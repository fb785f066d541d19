"""Filtering candidate derivatives against per-sense instructions, and the
derivational resource built from the full generate/filter pipeline."""

import logging
import random
from dataclasses import dataclass, field, replace
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
    # lemma -> corpus-attested candidates (None below the syllable floor)
    attested: dict = field(default_factory=dict, repr=False, compare=False)

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


def filter_by_instructions(candidates, senses) -> list[DerivativeRecord]:
    """Keep candidates whose suffix equals the suffix of some instruction.

    All senses must belong to one lemma. Comparison is exact string equality
    on the suffix (euphonic adjustments happened at generation time, the
    candidate already records its effective suffix). The accepted record is
    licensed for every sense carrying a matching instruction and takes its
    part of speech from the first such instruction.
    """
    lemmas = {s.lemma for s in senses}
    if len(lemmas) > 1:
        raise ValueError(f"senses of several lemmas passed together: {sorted(lemmas)}")
    records = []
    for cand in candidates:
        licensed = set()
        target_pos = None
        for sense in senses:
            for ins in sense.instructions:
                if ins.suffix == cand.suffix:
                    licensed.add(sense.sense_id)
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


def build_resource(dictionary: Dictionary, model, corpus_lexicon,
                   euphonics) -> DerivationalResource:
    """Run generate -> corpus filter -> instruction filter for every entry.

    Entries below the model's syllable floor are skipped, with a log line.
    Output order is deterministic: lemmas sorted, records sorted by surface.
    The resource keeps each lemma's corpus-attested candidates for `relicense`.
    """
    resource = DerivationalResource()
    for lemma in sorted(dictionary.senses):
        try:
            generated, attested = attested_candidates(lemma, model, euphonics, corpus_lexicon)
        except TooShortError as exc:
            log.info("skipping %s: %s", lemma, exc)
            resource.attested[lemma] = None
            continue
        resource.stats.candidates_generated += generated
        resource.attested[lemma] = attested
    return relicense(resource, dictionary)


def relicense(resource, dictionary: Dictionary) -> DerivationalResource:
    """Run the instruction filter over `resource`'s attested candidates with
    the senses of `dictionary`, which must hold the lemmas the resource was
    built from. `build_resource` ends with it; after `symmetrize_instructions`
    it gives what a fresh build would, stats included, generating nothing.
    Generation drops repeated surfaces, so a lemma's attested surfaces, and
    the records made from them, are unique.
    """
    index = dictionary.senses
    if index.keys() != resource.attested.keys():
        raise ValueError("dictionary lemmas differ from those the resource was built from")
    stats = ResourceStats(candidates_generated=resource.stats.candidates_generated)
    by_lemma = {}
    for lemma, attested in resource.attested.items():
        senses = index[lemma]
        stats.entries_processed += len(senses)
        instruction_count = sum(len(s.instructions) for s in senses)
        stats.instructions_total += instruction_count
        if attested is None:
            stats.instructions_unmatched += instruction_count
            continue
        records = sorted(filter_by_instructions(attested, senses), key=lambda r: r.surface)
        if records:
            by_lemma[lemma] = records
        stats.derivatives_accepted += len(records)
        matched_suffixes = {r.suffix for r in records}
        for sense in senses:
            stats.instructions_unmatched += sum(
                1 for ins in sense.instructions if ins.suffix not in matched_suffixes)
    return DerivationalResource(by_lemma=by_lemma, stats=stats, attested=resource.attested)


def symmetrize_instructions(dictionary: Dictionary, resource) -> Dictionary:
    """Give noun/adjective entries a back-instruction to their source verb.

    For every verbal sense whose instruction produced a derivative D found in
    the resource, every dictionary sense of D in the same domain gains a
    VERB instruction rebuilding the verb (suffix = verb ending after the
    common prefix of D and the verb). Returns a new `Dictionary` in which
    each sense that gains an instruction is a copy whose `instructions` end
    with its back-instructions; every other record is the input's own. The
    input is untouched.
    """
    index = dictionary.senses
    gained = {}  # id of a target record -> its new instructions
    added = 0
    for sense in [s for s in dictionary if s.pos == VERB]:
        produced = {r.surface: r for r in resource.records_for(sense.lemma, sense.sense_id)}
        for ins in sense.instructions:
            for surface, record in sorted(produced.items()):
                if record.suffix != ins.suffix:
                    continue
                for target in index.get(surface, []):
                    if target.pos == VERB or target.domain_code != sense.domain_code:
                        continue
                    verb_suffix = sense.lemma[len(_common_prefix(surface, sense.lemma)):]
                    if not verb_suffix:
                        continue
                    back = DerivInstruction(VERB, verb_suffix)
                    instructions = gained.get(id(target), target.instructions)
                    if back in instructions:
                        continue
                    gained[id(target)] = instructions + (back,)
                    added += 1
    log.info("symmetrize: added %d back-instructions", added)
    return Dictionary(
        replace(s, instructions=gained[id(s)]) if id(s) in gained else s
        for s in dictionary)


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
