"""Filtering candidate derivatives against per-sense instructions, and the
derivational resource built from the full generate/filter pipeline."""

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .lexica import VERB, DerivInstruction, Dictionary, _write_lines
from .morphogen import TooShortError, _common_prefix, attested_candidates

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DerivativeRecord:
    """An accepted derivative of a dictionary entry.

    `licensed_senses` lists the sense ids whose instructions produced the
    derivative; it is never empty.
    """

    surface: str
    target_pos: str
    suffix: str
    source_lemma: str
    licensed_senses: frozenset


@dataclass
class ResourceStats:
    entries_processed: int = 0
    candidates_generated: int = 0
    derivatives_accepted: int = 0
    instructions_total: int = 0
    instructions_unmatched: int = 0


@dataclass
class DerivationalResource:
    by_lemma: dict = field(default_factory=dict)
    stats: ResourceStats = field(default_factory=ResourceStats)

    def records_for(self, lemma: str, sense_id: int | None = None) -> list:
        """The derivative records of `lemma` usable in sense `sense_id`: those
        licensed for it, or all of them when the sense is None, since nothing
        then narrows the sense down. An unknown lemma has none."""
        records = self.by_lemma.get(lemma, [])
        if sense_id is None:
            return records
        return [r for r in records if sense_id in r.licensed_senses]

    def all_records(self) -> list:
        return [r for lemma in sorted(self.by_lemma) for r in self.by_lemma[lemma]]


def _instructions(sense, back) -> tuple:
    """`sense`'s own instructions, then its back-instructions in `back`."""
    return sense.instructions + back.get(sense.lemma, {}).get(sense.sense_id, ())


def filter_by_instructions(candidates, senses, back=None) -> list[DerivativeRecord]:
    """Keep candidates whose suffix equals the suffix of some instruction.

    All senses must belong to one lemma. A sense's instructions are its own,
    followed by its back-instructions in `back` (lemma -> sense id ->
    instructions, as `symmetrize_instructions` returns). Comparison is exact
    string equality on the suffix (euphonic adjustments happened at
    generation time, the candidate already records its effective suffix).
    The accepted record is licensed for every sense carrying a matching
    instruction and takes its part of speech from the first such instruction.
    """
    lemmas = {s.lemma for s in senses}
    if len(lemmas) > 1:
        raise ValueError(f"senses of several lemmas passed together: {sorted(lemmas)}")
    instructions = [(s.sense_id, _instructions(s, back or {})) for s in senses]
    records = []
    for cand in candidates:
        licensed = set()
        target_pos = None
        for sense_id, own in instructions:
            for ins in own:
                if ins.suffix == cand.suffix:
                    licensed.add(sense_id)
                    if target_pos is None:
                        target_pos = ins.target_pos
        if licensed:
            records.append(DerivativeRecord(
                surface=cand.surface,
                target_pos=target_pos,
                suffix=cand.suffix,
                source_lemma=cand.source_lemma,
                licensed_senses=frozenset(licensed),
            ))
    return records


def build_resource(dictionary: Dictionary, model, corpus_lexicon, euphonics,
                   symmetrize: bool = False) -> DerivationalResource:
    """Run generate -> corpus filter -> instruction filter for every entry.

    Entries below the model's syllable floor are skipped, with a log line.
    Every lemma is generated and corpus-filtered once, then licensed once;
    with `symmetrize`, each sense is licensed by its own instructions and
    then by its back-instructions (`symmetrize_instructions`). Output order
    is deterministic: lemmas sorted, records sorted by surface. Generation
    drops repeated surfaces, so a lemma's records are unique.
    """
    stats = ResourceStats()
    attested = {}  # lemma -> corpus-attested candidates (None below the syllable floor)
    for lemma in sorted(dictionary.senses):
        try:
            generated, attested[lemma] = attested_candidates(
                lemma, model, euphonics, corpus_lexicon)
        except TooShortError as exc:
            log.info("skipping %s: %s", lemma, exc)
            attested[lemma] = None
            continue
        stats.candidates_generated += generated
    back = symmetrize_instructions(dictionary, attested) if symmetrize else {}
    by_lemma = {}
    for lemma, candidates in attested.items():
        senses = dictionary.senses[lemma]
        stats.entries_processed += len(senses)
        instructions = [ins for s in senses for ins in _instructions(s, back)]
        stats.instructions_total += len(instructions)
        if candidates is None:
            stats.instructions_unmatched += len(instructions)
            continue
        records = sorted(filter_by_instructions(candidates, senses, back),
                         key=lambda r: r.surface)
        if records:
            by_lemma[lemma] = records
        stats.derivatives_accepted += len(records)
        matched_suffixes = {r.suffix for r in records}
        stats.instructions_unmatched += sum(
            1 for ins in instructions if ins.suffix not in matched_suffixes)
    return DerivationalResource(by_lemma=by_lemma, stats=stats)


def symmetrize_instructions(dictionary: Dictionary, attested) -> dict:
    """The back-instructions that lead noun/adjective senses to their source
    verb, as lemma -> sense id -> instructions.

    `attested` maps each lemma to its corpus-attested candidates, or None.
    For every verbal sense whose instruction licenses a candidate D, every
    dictionary sense of D in the same domain that is not a verb gains a VERB
    instruction rebuilding the verb (suffix = verb ending after the common
    prefix of D and the verb), once. The dictionary is left as it is.
    """
    index = dictionary.senses
    back = {}
    added = 0
    for sense in dictionary:
        if sense.pos != VERB or not attested.get(sense.lemma):
            continue
        candidates = sorted(attested[sense.lemma], key=lambda c: c.surface)
        for ins in sense.instructions:
            for cand in candidates:
                if cand.suffix != ins.suffix:
                    continue
                verb_suffix = sense.lemma[len(_common_prefix(cand.surface, sense.lemma)):]
                if not verb_suffix:
                    continue
                verb = DerivInstruction(VERB, verb_suffix)
                for target in index.get(cand.surface, []):
                    if target.pos == VERB or target.domain_code != sense.domain_code:
                        continue
                    gained = back.setdefault(target.lemma, {})
                    instructions = gained.get(target.sense_id, ())
                    if verb in instructions:
                        continue
                    gained[target.sense_id] = instructions + (verb,)
                    added += 1
    log.info("symmetrize: added %d back-instructions", added)
    return back


def audit_precision(resource, sample_size: int, gold: dict, seed: int = 17) -> Fraction:
    """Fraction of correct derivatives in a seeded uniform sample.

    `gold` maps derivative surfaces to booleans and must cover the sample.
    A sample size beyond the resource is clamped with a warning.
    """
    records = resource.all_records()
    if not records:
        raise ValueError("cannot audit an empty resource")
    if sample_size > len(records):
        log.warning("sample size %d clamped to resource size %d", sample_size, len(records))
        sample_size = len(records)
    rng = random.Random(seed)
    sample = rng.sample(records, sample_size)
    missing = [r.surface for r in sample if r.surface not in gold]
    if missing:
        raise ValueError(f"gold verdicts missing for sampled surfaces: {sorted(set(missing))}")
    correct = sum(1 for r in sample if gold[r.surface])
    return Fraction(correct, sample_size)


def save_resource(resource, path):
    """Write "source_lemma<TAB>surface<TAB>pos<TAB>suffix<TAB>senses" rows.

    The sense column is ","-joined ids. Output is byte-stable for a given
    resource.
    """
    lines = []
    for record in resource.all_records():
        senses = ",".join(str(s) for s in sorted(record.licensed_senses))
        lines.append("\t".join([
            record.source_lemma, record.surface, record.target_pos,
            record.suffix, senses,
        ]))
    _write_lines(path, lines)
