"""Configuration, resource loading, and bank construction.

One JSON config file names every input resource and every tunable; CLI
flags override individual fields. Everything downstream is deterministic
given the config, so repeated runs produce byte-identical outputs.
"""

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from hashlib import sha256
from importlib import resources as importlib_resources
from pathlib import Path

# The build side (morphogen, derivfilter, rephrase) is imported where it
# runs, so a `--bank` process, which never builds a resource or enriches a
# graph, does not compile those modules.
from . import depgraph, lexica, qaengine, wsd

log = logging.getLogger(__name__)

MODES = ("baseline", "base", "deriv", "all")


class ConfigError(ValueError):
    """The run configuration is unusable."""


_PATH_FIELDS = ("dictionary", "inflections", "corpus_lexicon", "synonyms",
                "patterns", "sentences", "questions", "euphonics", "code_table")
_REQUIRED_PATHS = ("dictionary", "inflections", "corpus_lexicon", "synonyms")
# Packaged files that stand in for an optional path the config leaves out.
_DEFAULT_DATA = {"patterns": "patterns.txt", "euphonics": "euphonics.tsv",
                 "code_table": "code_table.tsv"}
# What shapes a bank besides the mode, so what its fingerprint covers.
_BANK_RESOURCES = _REQUIRED_PATHS + tuple(_DEFAULT_DATA)
_BANK_TUNABLES = ("suffix_threshold", "min_stem_len", "max_stems_per_lemma",
                  "min_syllables", "symmetrize")


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
    k: int = 5
    mode: str = "deriv"
    require_full_match: bool = False

    def validate(self):
        for name in _REQUIRED_PATHS:
            if getattr(self, name) is None:
                raise ConfigError(f"config missing required path {name!r}")
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            try:
                found = Path(value).is_file()
            except OSError as exc:  # such as a name longer than the file system allows
                raise ConfigError(f"{name}: {exc.strerror}") from exc
            if not found:
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
    if str(path) == "":  # Path("") is the current directory
        raise ConfigError("--config is an empty path")
    path = Path(path)
    try:
        text = lexica._read_text(
            path, lambda p, lineno, message: ConfigError(f"{p}:{lineno}: {message}"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
            try:
                value = (base / value).resolve()
            except ValueError as exc:
                raise ConfigError(f"{path}: {key}: {exc}") from exc
        setattr(config, key, value)
    for name in ("symmetrize", "require_full_match"):
        if not isinstance(getattr(config, name), bool):
            raise ConfigError(f"{path}: {name} must be a boolean")
    for name in ("suffix_threshold", "min_stem_len", "max_stems_per_lemma",
                 "min_syllables", "k"):
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: {name} must be an integer")
    config.validate()
    return config


def packaged_data(filename: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(importlib_resources.files("derivqa") / "data" / filename)


def _resource_path(config: PipelineConfig, name: str) -> Path:
    return getattr(config, name) or packaged_data(_DEFAULT_DATA[name])


def _fingerprint(config: PipelineConfig) -> str:
    """sha256 over the bytes of every file and the value of every tunable
    that shapes a bank; paths are not hashed."""
    digest = sha256()
    for name in _BANK_TUNABLES:
        digest.update(f"{name}={getattr(config, name)!r}\n".encode())
    for name in _BANK_RESOURCES:
        data = _resource_path(config, name).read_bytes()
        digest.update(f"{name} {len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


@dataclass
class QuestionResources:
    """What parsing and disambiguating a question needs: the dictionary,
    the inflection lexicon and the compiled sense rules, with the config and
    the fingerprint a bank must carry to be scored under it."""

    config: PipelineConfig
    dictionary: lexica.Dictionary
    lexicon: lexica.InflectionLexicon
    compilation: wsd.RuleCompilation
    fingerprint: str


@dataclass
class Resources(QuestionResources):
    """Everything the commands need, loaded and cross-compiled once."""

    synonyms: lexica.SynonymTable
    model: "morphogen.SuffixModel"
    resource: "derivfilter.DerivationalResource"
    patterns: list
    skipped_sentences: list = field(default_factory=list)


def load_question_resources(config: PipelineConfig) -> QuestionResources:
    """Load the code table, dictionary and inflections, and compile the
    sense rules from the dictionary's examples.

    Questions stay unenriched, so this is all `ask --bank` and `evaluate
    --bank` load. Unknown code letters are logged once per dictionary code
    string, as the dictionary loads. `fingerprint` still covers every file
    and tunable that shapes a bank, read without parsing the files this
    loader skips.
    """
    fingerprint = _fingerprint(config)
    code_table = lexica.load_code_table(_resource_path(config, "code_table"))
    dictionary = lexica.load_dictionary(config.dictionary, code_table)
    lexicon = lexica.InflectionLexicon(lexica.load_inflections(config.inflections))
    compilation = wsd.compile_rules(dictionary, lexicon)
    return QuestionResources(config, dictionary, lexicon, compilation, fingerprint)


def load_resources(config: PipelineConfig) -> Resources:
    """Load the question side, learn the suffix model, build and filter the
    resource, and load synonyms and patterns.

    With `symmetrize` on, the resource build also licenses the way back
    from a derived noun or adjective to its verb (see
    `derivfilter.build_resource`); the dictionary stays the loaded one.
    """
    from . import derivfilter, morphogen, rephrase

    question = load_question_resources(config)
    corpus_lexicon = lexica.load_corpus_lexicon(config.corpus_lexicon)
    euphonics = morphogen.load_euphonic_rules(_resource_path(config, "euphonics"))
    model = morphogen.learn_suffix_model(
        question.lexicon.entries, config.suffix_threshold,
        min_stem_len=config.min_stem_len,
        max_stems_per_lemma=config.max_stems_per_lemma,
        min_syllables=config.min_syllables)
    resource = derivfilter.build_resource(question.dictionary, model, corpus_lexicon, euphonics,
                                          config.symmetrize)
    return Resources(
        **vars(question),
        synonyms=lexica.load_synonyms(config.synonyms, question.dictionary),
        model=model,
        resource=resource,
        patterns=rephrase.parse_patterns(_resource_path(config, "patterns")),
    )


def load_sentences(path) -> list:
    """Read "id<TAB>text" sentence rows."""
    rows = []
    seen = set()
    for lineno, row in lexica._read_rows(path, 2):
        sid, text = (c.strip() for c in row)
        if sid in seen:
            raise lexica.LexiconError(path, lineno, f"duplicate sentence id {sid!r}")
        seen.add(sid)
        rows.append((sid, text))
    return rows


def enrichment(res: Resources, mode: str):
    """The per-mode enrichment, as a function from one disambiguated graph
    to the enriched graph.

    baseline: untouched (the bag engine ignores structure anyway).
    base:     synonym alternates only.
    deriv:    synonyms, then patterns pivoting on original lemmas only.
    all:      as deriv, with patterns also pivoting on synonym alternates
              and synonyms attached to derivatives of original lemmas.

    `build_bank` asks for it once per bank, so the mode is checked and the
    rephraser imported once, not once per sentence.
    """
    if mode == "baseline":
        return lambda graph: graph
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    from . import rephrase

    patterns = () if mode == "base" else res.patterns
    compose = mode == "all"
    return lambda graph: rephrase.enrich(graph, res.synonyms, patterns, res.resource,
                                         res.dictionary, compose=compose)


def build_bank(res: Resources, mode: str, sentences=None,
               wsd_stats: wsd.WsdStats = None) -> depgraph.DependencyBank:
    """Parse, disambiguate, and enrich the corpus sentences for one mode.

    Unparsable sentences are skipped with a log line and recorded on the
    resource bundle; they never abort the run. The bank carries `mode` and
    the resources' fingerprint.
    """
    if sentences is None:
        if res.config.sentences is None:
            raise ConfigError("config has no sentences file")
        sentences = load_sentences(res.config.sentences)
    enrich = enrichment(res, mode)
    graphs = []
    res.skipped_sentences = []
    for sid, text in sentences:
        try:
            graph = depgraph.toy_parse(text, res.lexicon, sentence_id=sid)
        except depgraph.ToyParseError as exc:
            log.warning("skipping %s: %s", sid, exc)
            res.skipped_sentences.append((sid, str(exc)))
            continue
        wsd.disambiguate(graph, res.compilation, res.dictionary, stats=wsd_stats)
        graphs.append(enrich(graph))
    return depgraph.DependencyBank(graphs, mode, res.fingerprint)


def parse_questions(res: QuestionResources, rows) -> list:
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
