"""Suffix-model learning and candidate derivative generation.

The model is learned from an inflectional lexicon: the stem of a lemma is
the shortest longest-common-prefix between the lemma and any of its
inflected forms, and every vocabulary word contributes the ending left
after stripping its longest matching stem. Endings seen across enough
distinct stems become the suffix inventory. Generation then crosses
candidate stems with the whole inventory, on purpose over-generating, and
keeps the corpus-attested surfaces; `derivfilter` keeps the licensed ones.
"""

import logging
from dataclasses import dataclass

from .lexica import LexiconError, _read_rows, normalize

log = logging.getLogger(__name__)

VOWELS = frozenset("aeiouyàâäéèêëíîïóôöùûüÿ")


class TooShortError(ValueError):
    """Lemma is below the syllable floor for derivational generation."""


@dataclass(frozen=True)
class EuphonicRule:
    """Rewrite the stem tail when gluing a suffix on.

    `before` restricts the rule to suffixes starting with a vowel ("vowel")
    or applies it regardless ("any").
    """

    stem_tail: str
    replacement: str
    before: str = "vowel"

    def applies(self, stem: str, suffix: str) -> bool:
        if not suffix or not stem.endswith(self.stem_tail):
            return False
        if self.before == "vowel":
            return suffix[0] in VOWELS
        return True

    def apply(self, stem: str) -> str:
        return stem[: len(stem) - len(self.stem_tail)] + self.replacement


def load_euphonic_rules(path) -> tuple[EuphonicRule, ...]:
    """Load "stem_tail<TAB>replacement<TAB>before" rows, in file order."""
    rules = []
    for lineno, row in _read_rows(path, 3):
        tail, replacement, before = row
        if not tail:
            raise LexiconError(path, lineno, "empty stem tail")
        if before not in ("vowel", "any"):
            raise LexiconError(path, lineno, f"bad 'before' value: {before!r}")
        rules.append(EuphonicRule(tail, replacement, before))
    return tuple(rules)


@dataclass
class SuffixModel:
    """Learned suffix inventory, a sorted tuple, plus the stemming parameters."""

    suffixes: tuple[str, ...] = ()
    min_stem_len: int = 3
    max_stems_per_lemma: int = 2
    min_syllables: int = 3


@dataclass(frozen=True, slots=True)
class CandidateDerivative:
    source_lemma: str
    suffix: str
    surface: str


def syllable_count(word: str) -> int:
    """Count maximal vowel groups, the working definition of a syllable."""
    count = 0
    in_group = False
    for ch in normalize(word):
        if ch in VOWELS:
            if not in_group:
                count += 1
                in_group = True
        else:
            in_group = False
    return count


def learn_suffix_model(entries, threshold: int, *, min_stem_len: int = 3,
                       max_stems_per_lemma: int = 2, min_syllables: int = 3) -> SuffixModel:
    """Learn a suffix inventory from inflection entries.

    A suffix is retained when it is the residual of vocabulary words over at
    least `threshold` distinct stems.
    """
    stem_by_lemma: dict[str, str] = {}
    for e in entries:
        form, lemma = normalize(e.surface_form), normalize(e.lemma)
        if form == lemma:
            continue
        prefix = _common_prefix(form, lemma)
        if len(prefix) < min_stem_len:
            continue
        best = stem_by_lemma.get(lemma)
        if best is None or len(prefix) < len(best):
            stem_by_lemma[lemma] = prefix
    stems = set(stem_by_lemma.values())

    vocabulary = {normalize(e.surface_form) for e in entries}
    vocabulary.update(normalize(e.lemma) for e in entries)
    stems_per_suffix: dict[str, set[str]] = {}
    for word in vocabulary:
        # A word has one prefix of each length, so the longest proper prefix
        # that is a stem is its longest matching stem.
        stem = next((word[:n] for n in range(len(word) - 1, 0, -1) if word[:n] in stems), None)
        if stem is None:
            continue
        stems_per_suffix.setdefault(word[len(stem):], set()).add(stem)

    suffixes = tuple(sorted(
        suffix for suffix, stem_set in stems_per_suffix.items() if len(stem_set) >= threshold))
    return SuffixModel(
        suffixes=suffixes,
        min_stem_len=min_stem_len,
        max_stems_per_lemma=max_stems_per_lemma,
        min_syllables=min_syllables,
    )


def stem_candidates(lemma: str, model: SuffixModel) -> list[str]:
    """Plausible derivation stems of a lemma, shortest first.

    The lemma itself qualifies; so does the lemma minus any known suffix,
    when the remainder is long enough. Only the `model.max_stems_per_lemma`
    shortest are returned, so the cap can drop the lemma itself
    ("coupure" -> ["coup", "coupu"] under a cap of 2). Lemmas below the
    syllable floor are rejected outright.
    """
    word = normalize(lemma)
    syllables = syllable_count(word)
    if syllables < model.min_syllables:
        raise TooShortError(
            f"lemma too short for derivation: {lemma!r} "
            f"({syllables} < {model.min_syllables} syllables)")
    stems = {word}
    for suffix in model.suffixes:
        if word.endswith(suffix) and len(word) - len(suffix) >= model.min_stem_len:
            stems.add(word[: len(word) - len(suffix)])
    ordered = sorted(stems, key=lambda s: (len(s), s))
    return ordered[: model.max_stems_per_lemma]


def euphonic_surfaces(stem: str, suffix: str, rules) -> list[str]:
    """All spellings of stem + suffix: plain gluing plus one per matching rule."""
    surfaces = [stem + suffix]
    for rule in rules:
        if rule.applies(stem, suffix):
            adjusted = rule.apply(stem) + suffix
            if adjusted not in surfaces:
                surfaces.append(adjusted)
    return surfaces


def attested_candidates(lemma: str, model: SuffixModel, euphonics,
                        corpus_lexicon) -> tuple[int, list[CandidateDerivative]]:
    """Cross candidate stems with the suffix inventory and keep what the
    corpus attests. Returns (generated, attested): the number of distinct
    surfaces made and the attested candidates, in generation order.

    Every stem is also emitted bare (suffix "") to cover conversion, e.g.
    couper -> coup. Recall is the goal; precision comes from the corpus and
    instruction filters. Duplicate surfaces are dropped, first one wins.
    Only attested surfaces become `CandidateDerivative`s.
    """
    attested = []
    seen = set()
    for stem in stem_candidates(lemma, model):
        rules = [rule for rule in euphonics if stem.endswith(rule.stem_tail)]
        for suffix in ("", *model.suffixes):
            for surface in euphonic_surfaces(stem, suffix, rules):
                if len(surface) < model.min_stem_len + 1 or surface in seen:
                    continue
                seen.add(surface)
                if surface in corpus_lexicon:
                    attested.append(CandidateDerivative(lemma, suffix, surface))
    return len(seen), attested


def _common_prefix(a: str, b: str) -> str:
    i = 0
    limit = min(len(a), len(b))
    while i < limit and a[i] == b[i]:
        i += 1
    return a[:i]
