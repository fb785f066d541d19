"""Configuration, resource loading, and bank construction.

One JSON config file names every input resource and every tunable; CLI
flags override individual fields. Everything downstream is deterministic
given the config, so repeated runs produce byte-identical outputs.
"""

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path

from . import depgraph, derivfilter, lexica, morphogen, qaengine, rephrase, wsd

log = logging.getLogger(__name__)

MODES = ("baseline", "base", "deriv", "all")


class ConfigError(ValueError):
    """The run configuration is unusable."""


_PATH_FIELDS = ("dictionary", "inflections", "corpus_lexicon", "synonyms",
                "patterns", "sentences", "questions", "euphonics", "code_table")
_REQUIRED_PATHS = ("dictionary", "inflections", "corpus_lexicon", "synonyms")


@dataclass
class PipelineConfig:
    dictionary: Path = None
    inflections: Path = None
    corpus_lexicon: Path = None
    synonyms: Path = None
    patterns: Path | None = None
    sentences: Path | None = None
    questions: Path | None = None
    euphonics: Path | None = None
    code_table: Path | None = None
    suffix_threshold: int = 2
    min_stem_len: int = 3
    max_stems_per_lemma: int = 2
    min_syllables: int = 3
    symmetrize: bool = False
    seed: int = 17
    k: int = 5
    mode: str = "deriv"
    require_full_match: bool = False

    def validate(self):
        for name in _REQUIRED_PATHS:
            if getattr(self, name) is None:
                raise ConfigError(f"config missing required path {name!r}")
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if value is not None and not Path(value).is_file():
                raise ConfigError(f"{name}: no such file: {value}")
        if not 1 <= self.k <= 5:
            raise ConfigError(f"k must be in [1, 5], got {self.k}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("suffix_threshold", "min_stem_len", "max_stems_per_lemma",
                     "min_syllables"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


def load_config(path) -> PipelineConfig:
    """Read a JSON config; relative paths resolve against the config's dir."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    config = PipelineConfig()
    base = path.parent
    for key, value in raw.items():
        if key in _PATH_FIELDS and value is not None:
            if not isinstance(value, str):
                raise ConfigError(f"{path}: {key} must be a path string")
            value = (base / value).resolve()
        setattr(config, key, value)
    for name in ("symmetrize", "require_full_match"):
        if not isinstance(getattr(config, name), bool):
            raise ConfigError(f"{path}: {name} must be a boolean")
    for name in ("suffix_threshold", "min_stem_len", "max_stems_per_lemma",
                 "min_syllables", "seed", "k"):
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: {name} must be an integer")
    config.validate()
    return config


def packaged_data(filename: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(importlib_resources.files("derivqa") / "data" / filename)


@dataclass
class Resources:
    """Everything the commands need, loaded and cross-compiled once."""

    config: PipelineConfig
    dictionary: list
    lexicon: lexica.InflectionLexicon
    corpus_lexicon: lexica.CorpusLexicon
    synonyms: lexica.SynonymTable
    code_table: dict
    euphonics: tuple
    model: morphogen.SuffixModel
    resource: derivfilter.DerivationalResource
    patterns: list
    compilation: wsd.RuleCompilation
    skipped_sentences: list = field(default_factory=list)


def _pos_of(dictionary):
    by_lemma = lexica.senses_by_lemma(dictionary)

    def lookup(lemma: str):
        kinds = {s.pos for s in by_lemma.get(lemma, [])}
        return kinds.pop() if len(kinds) == 1 else None

    return lookup


def load_resources(config: PipelineConfig) -> Resources:
    """Load lexica, learn the suffix model, build and filter the resource.

    With `symmetrize` on, building runs twice: the first resource donates
    back-instructions to noun/adjective entries, then the augmented
    dictionary is rebuilt so those instructions take effect.
    """
    dictionary = lexica.load_dictionary(config.dictionary)
    entries = lexica.load_inflections(config.inflections)
    lexicon = lexica.InflectionLexicon(entries)
    corpus_lexicon = lexica.load_corpus_lexicon(config.corpus_lexicon)
    code_table = lexica.load_code_table(config.code_table or packaged_data("code_table.tsv"))
    euphonics = morphogen.load_euphonic_rules(
        config.euphonics or packaged_data("euphonics.tsv"))
    model = morphogen.learn_suffix_model(
        entries, config.suffix_threshold,
        min_stem_len=config.min_stem_len,
        max_stems_per_lemma=config.max_stems_per_lemma,
        min_syllables=config.min_syllables)
    resource = derivfilter.build_resource(
        dictionary, model, corpus_lexicon, code_table, euphonics)
    if config.symmetrize:
        dictionary = derivfilter.symmetrize_instructions(
            dictionary, resource, code_table)
        resource = derivfilter.build_resource(
            dictionary, model, corpus_lexicon, code_table, euphonics)
    synonyms = lexica.load_synonyms(config.synonyms, pos_of=_pos_of(dictionary))
    patterns = rephrase.parse_patterns(config.patterns or packaged_data("patterns.txt"))
    compilation = wsd.compile_rules(dictionary, lexicon)
    return Resources(
        config=config,
        dictionary=dictionary,
        lexicon=lexicon,
        corpus_lexicon=corpus_lexicon,
        synonyms=synonyms,
        code_table=code_table,
        euphonics=euphonics,
        model=model,
        resource=resource,
        patterns=patterns,
        compilation=compilation,
    )


def load_sentences(path) -> list:
    """Read "id<TAB>text" sentence rows."""
    rows = []
    seen = set()
    for lineno, row in lexica._read_rows(path):
        if len(row) != 2:
            raise lexica.LexiconError(path, lineno, f"expected 2 columns, got {len(row)}")
        sid, text = (c.strip() for c in row)
        if sid in seen:
            raise lexica.LexiconError(path, lineno, f"duplicate sentence id {sid!r}")
        seen.add(sid)
        rows.append((sid, text))
    return rows


def enrich_for_mode(graph, res: Resources, mode: str):
    """The per-mode enrichment applied to one disambiguated graph.

    baseline: untouched (the bag engine ignores structure anyway).
    base:     synonym alternates only.
    deriv:    synonyms, then patterns pivoting on original lemmas only.
    all:      union of both enrichment orders, composition enabled.
    """
    if mode == "baseline":
        return graph
    if mode == "base":
        return rephrase.enrich_all(graph, res.resource, res.patterns,
                                   res.synonyms, rephrase.SYN_ONLY, res.dictionary)
    if mode == "deriv":
        out = rephrase.enrich_synonyms(graph, res.synonyms)
        return rephrase.apply_patterns(out, res.patterns, res.resource,
                                       res.dictionary, use_alternates=False)
    if mode == "all":
        return rephrase.enrich_all(graph, res.resource, res.patterns,
                                   res.synonyms, rephrase.BOTH, res.dictionary)
    raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def build_bank(res: Resources, mode: str, sentences=None,
               wsd_stats: wsd.WsdStats = None) -> depgraph.DependencyBank:
    """Parse, disambiguate, and enrich the corpus sentences for one mode.

    Unparsable sentences are skipped with a log line and recorded on the
    resource bundle; they never abort the run.
    """
    if sentences is None:
        if res.config.sentences is None:
            raise ConfigError("config has no sentences file")
        sentences = load_sentences(res.config.sentences)
    bank = []
    res.skipped_sentences = []
    for sid, text in sentences:
        try:
            graph = depgraph.toy_parse(text, res.lexicon, sentence_id=sid)
        except depgraph.ToyParseError as exc:
            log.warning("skipping %s: %s", sid, exc)
            res.skipped_sentences.append((sid, str(exc)))
            continue
        wsd.disambiguate(graph, res.compilation, res.dictionary, stats=wsd_stats)
        bank.append(enrich_for_mode(graph, res, mode))
    return depgraph.DependencyBank(bank)


def parse_questions(res: Resources, rows) -> list:
    """Parse and disambiguate (qid, text, gold) rows into engine inputs.

    Questions stay unenriched: alternates and derivative tokens live on the
    text side, where one preprocessing pass serves every future question.
    """
    parsed = []
    for qid, text, gold in rows:
        question = qaengine.parse_question(qid, text, res.lexicon)
        wsd.disambiguate(question.graph, res.compilation, res.dictionary)
        parsed.append((question, gold))
    return parsed
