"""Lexical resources: sense dictionary, inflection lexicon, corpus wordlist,
synonym table and the derivation code table.

All resources are tab-separated UTF-8 text so they can be maintained by hand;
a line ends at `\\n` only. Loaders validate eagerly and report the offending
line. The dictionary's derivation codes are resolved against the code table
as it loads, so a `SenseRecord` carries instructions, never code letters.
"""

import codecs
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

log = logging.getLogger(__name__)

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
ADV = "ADV"
CONTENT_POS = frozenset({NOUN, VERB, ADJ, ADV})

# Kinds of derivational instruction in the code table, and the target part
# of speech each implies.
KIND_TARGET_POS = {"NOMINAL": NOUN, "VERBAL_ADJECTIVE": ADJ, "ADVERBIAL": ADV, "VERBAL": VERB}

WILDCARD_SENSE = "*"


def normalize(form: str) -> str:
    """Case-fold a surface form. Diacritics are significant and kept."""
    return form.lower()


class LexiconError(ValueError):
    """A resource file failed validation."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")


@dataclass(frozen=True)
class DerivInstruction:
    """One derivational instruction: attach `suffix` to build a `target_pos` word."""

    target_pos: str
    suffix: str


@dataclass
class SenseRecord:
    """One sense of a dictionary entry.

    `instructions` holds the sense's derivational instructions: those of its
    code letters, in code-string order, which `load_dictionary` resolves.
    Back-instructions under `symmetrize` never enter it: the resource build
    licenses them beside it (`derivfilter.build_resource`).
    """

    lemma: str
    sense_id: int
    pos: str
    domain_code: str = ""
    examples: tuple[str, ...] = ()
    construction_codes: tuple[str, ...] = ()
    instructions: tuple[DerivInstruction, ...] = ()


class Dictionary(tuple):
    """The sense records of a dictionary, in file order: a read-only sequence.

    `load_dictionary` returns one.

    `senses` maps each lemma to its records sorted by sense id, built on
    first use by `senses_by_lemma` and once per dictionary. A record whose
    `lemma` or `sense_id` changes after the index is built is not seen by
    it under the new values.
    """

    @cached_property
    def senses(self) -> dict[str, list[SenseRecord]]:
        return senses_by_lemma(self)


DICT_COLUMNS = 12


def load_dictionary(path, code_table) -> Dictionary:
    """Load sense records from a 12-column TSV file.

    Columns: lemma, sense_id, pos, domain, class, operator, gloss,
    examples (;-separated), conjugation, constructions (;-separated),
    derivation codes, level. Class, operator and gloss are read and
    dropped. Level must be empty or an integer; a verb sense needs a
    conjugation code, and no other sense may have conjugation or
    construction codes. Level and conjugation are checked, not kept. The
    codes become each record's `instructions` through `code_table` (see
    `load_code_table`); each distinct code string is parsed once, so an
    unknown letter is logged once per string. Files for different parts of
    speech may be loaded separately and concatenated by the caller, as
    `Dictionary(a + b)`.
    """
    records = []
    seen = set()
    resolved = {}  # code string -> its instructions
    for lineno, row in _read_rows(path, DICT_COLUMNS):
        (lemma, sense_id, pos, domain, _class, _operator, _gloss,
         examples, conjugation, constructions, codes, level) = row
        sense_num = _int_cell(path, lineno, "sense_id", sense_id)
        if level:
            _int_cell(path, lineno, "level", level)
        key = (lemma, sense_num)
        if key in seen:
            raise LexiconError(path, lineno, f"duplicate sense {lemma}/{sense_num}")
        seen.add(key)
        if codes not in resolved:
            resolved[codes] = tuple(parse_derivation_codes(codes, code_table))
        if pos not in CONTENT_POS:
            raise LexiconError(path, lineno, f"{lemma}: bad pos {pos!r}")
        if sense_num < 1:
            raise LexiconError(path, lineno, f"{lemma}: sense_id must be >= 1")
        construction_codes = _split_multi(constructions)
        if pos == VERB and not conjugation:
            raise LexiconError(path, lineno,
                               f"{lemma}/{sense_num}: verb sense needs a conjugation code")
        if pos != VERB and (conjugation or construction_codes):
            raise LexiconError(path, lineno,
                               f"{lemma}/{sense_num}: conjugation/construction codes are verb-only")
        records.append(SenseRecord(
            lemma=lemma,
            sense_id=sense_num,
            pos=pos,
            domain_code=domain,
            examples=_split_multi(examples),
            construction_codes=construction_codes,
            instructions=resolved[codes],
        ))
    return Dictionary(records)


def senses_by_lemma(records) -> dict[str, list[SenseRecord]]:
    index: dict[str, list[SenseRecord]] = {}
    for r in records:
        index.setdefault(r.lemma, []).append(r)
    for group in index.values():
        group.sort(key=lambda r: r.sense_id)
    return index


def load_code_table(path) -> dict[str, DerivInstruction]:
    """Load the code-letter table: code_letter, kind, target_pos, suffix."""
    table = {}
    for lineno, row in _read_rows(path, 4):
        letter, kind, target_pos, suffix = row
        if len(letter) != 1 or not letter.isalnum():
            raise LexiconError(path, lineno,
                               f"code letter must be a single letter or digit: {letter!r}")
        if letter in table:
            raise LexiconError(path, lineno, f"duplicate code letter {letter!r}")
        if kind not in KIND_TARGET_POS:
            raise LexiconError(path, lineno, f"unknown instruction kind: {kind!r}")
        if KIND_TARGET_POS[kind] != target_pos:
            raise LexiconError(path, lineno,
                               f"kind {kind} implies {KIND_TARGET_POS[kind]}, got {target_pos}")
        if not suffix:
            raise LexiconError(path, lineno, "instruction suffix must be nonempty")
        table[letter] = DerivInstruction(target_pos, suffix)
    return table


def parse_derivation_codes(raw: str, code_table) -> list[DerivInstruction]:
    """Resolve a positional code string like "-Q- - - RB- - -" to instructions.

    Alphanumeric characters are code letters, everything else is filler.
    Letters missing from the table are skipped, never errors: the historical
    code inventory is larger than any one table. Each is logged as a warning,
    once per call.
    """
    instructions = []
    unknown = set()
    for ch in raw:
        if not ch.isalnum():
            continue
        hit = code_table.get(ch)
        if hit is not None:
            instructions.append(hit)
        elif ch not in unknown:
            unknown.add(ch)
            log.warning(f"unknown derivation code {ch!r} in {raw!r}")
    return instructions


@dataclass(frozen=True)
class InflectionEntry:
    surface_form: str
    lemma: str
    morph_tags: str


# Head tag -> the part of speech it names.
_TAG_POS = {"V": VERB, "N": NOUN, "ADJ": ADJ, "ADV": ADV}


class InflectionLexicon:
    """Normalized surface form -> readings multimap over inflection
    entries; `entries` keeps them in file order for the suffix learner.

    `by_form` maps each normalized form to its readings in file order, one
    (entry, pos, subtag) tuple per entry, its tags split once here at `:`.
    The first part gives the part of speech: `V`, `N`, `ADJ` and `ADV` name
    VERB, NOUN, ADJ and ADV, and any other first part is kept as it is. The
    second part is the subtag, such as `inf`, `pp` or a finite tense; it is
    None for a tag without a `:`.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        by_form: dict[str, tuple[tuple[InflectionEntry, str, str | None], ...]] = {}
        split = {}  # tags -> (pos, subtag), each distinct tag string split once
        for e in self.entries:
            tags = split.get(e.morph_tags)
            if tags is None:
                parts = e.morph_tags.split(":", 2)
                tags = split[e.morph_tags] = (_TAG_POS.get(parts[0], parts[0]),
                                              parts[1] if len(parts) > 1 else None)
            form = normalize(e.surface_form)
            by_form[form] = by_form.get(form, ()) + ((e,) + tags,)
        self.by_form = by_form


def load_inflections(path) -> list[InflectionEntry]:
    """Load "form<TAB>lemma<TAB>tags" lines."""
    entries = []
    for lineno, row in _read_rows(path, 3):
        form, lemma, tags = row
        if not form or not lemma:
            raise LexiconError(path, lineno, "empty form or lemma")
        entries.append(InflectionEntry(form, lemma, tags))
    return entries


class CorpusLexicon:
    """Attested wordlist; membership is case-insensitive."""

    def __init__(self, forms):
        self.forms = frozenset(normalize(form) for form in forms)

    def __contains__(self, form: str) -> bool:
        return normalize(form) in self.forms


def load_corpus_lexicon(path) -> CorpusLexicon:
    """Load "form<TAB>count" rows; each count is checked, none is kept."""
    forms = []
    for lineno, row in _read_rows(path, 2):
        form, count = row
        n = _int_cell(path, lineno, "count", count)
        if n < 1:
            raise LexiconError(path, lineno, f"count must be positive: {n}")
        forms.append(form)
    return CorpusLexicon(forms)


class SynonymTable:
    """(lemma, sense or wildcard) -> synonym lemmas.

    Wildcard rows apply to every sense of the lemma; sense rows additionally
    apply when the token carries that sense.
    """

    def __init__(self, entries: dict[tuple[str, int | str], set[str]]):
        self.entries = entries

    def lookup(self, lemma: str, sense_id: int | None) -> set[str]:
        result = set(self.entries.get((lemma, WILDCARD_SENSE), ()))
        if sense_id is not None:
            result |= self.entries.get((lemma, sense_id), set())
        return result


def load_synonyms(path, dictionary: Dictionary) -> SynonymTable:
    """Load "lemma<TAB>sense-or-*<TAB>syn(;syn)*" rows.

    The sense is `*` or an integer of at least 1, as in the dictionary.
    A row pairing two lemmas whose senses in `dictionary` each have one part
    of speech, and not the same one, is rejected, since synonymy never
    crosses part of speech here; a lemma with no senses there, or with senses
    of several parts of speech, is not checked.
    """
    entries: dict[tuple[str, int | str], set[str]] = {}
    for lineno, row in _read_rows(path, 3):
        lemma, sense, syns = row
        key_sense: int | str = sense
        if sense != WILDCARD_SENSE:
            key_sense = _int_cell(path, lineno, "sense", sense)
            if key_sense < 1:
                raise LexiconError(path, lineno, f"{lemma}: sense must be >= 1")
        synonyms = _split_multi(syns)
        if not synonyms:
            raise LexiconError(path, lineno, "empty synonym list")
        for syn in synonyms:
            if syn == lemma:
                raise LexiconError(path, lineno, f"synonym equals its head lemma: {lemma!r}")
            head_pos, syn_pos = _only_pos(dictionary, lemma), _only_pos(dictionary, syn)
            if head_pos and syn_pos and head_pos != syn_pos:
                raise LexiconError(
                    path, lineno, f"pos mismatch: {lemma} is {head_pos}, {syn} is {syn_pos}")
        entries.setdefault((lemma, key_sense), set()).update(synonyms)
    return SynonymTable(entries)


def _only_pos(dictionary: Dictionary, lemma: str) -> str | None:
    """The part of speech of all of `lemma`'s senses, or None if they have
    none or several."""
    kinds = {s.pos for s in dictionary.senses.get(lemma, ())}
    return kinds.pop() if len(kinds) == 1 else None


def _int_cell(path, lineno: int, column: str, cell: str, error=LexiconError) -> int:
    """`cell` as an integer: ASCII digits after an optional `-`, nothing else,
    and no more digits than `int` converts; otherwise raises
    `error(path, lineno, message)`."""
    digits = cell[1:] if cell.startswith("-") else cell
    if not (digits.isascii() and digits.isdigit()):
        raise error(path, lineno, f"{column} is not an integer: {cell!r}")
    try:
        return int(cell)
    except ValueError:  # past the interpreter's limit on digits converted
        raise error(path, lineno, f"{column} is not an integer: {len(digits)} digits is too many")


def _split_multi(cell: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in cell.split(";") if part.strip())


def _read_text(path, error=LexiconError) -> str:
    """The text of a UTF-8 file, less one leading byte-order mark; a byte
    that is not UTF-8 raises `error(path, lineno, message)` for the line
    that holds it."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(path, lineno, f"not valid UTF-8: byte 0x{data[exc.start]:02x}") from None


def _read_lines(path, error=LexiconError):
    """(line number, line) of each line of a UTF-8 file, read by `_read_text`.

    A line ends at `\\n` only, and one `\\r` before it is dropped; every
    other character, line and paragraph separators included, stays in the
    line.
    """
    lines = _read_text(path, error).split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        yield lineno, line[:-1] if line.endswith("\r") else line


def _read_rows(path, columns: int):
    """(line number, cells) of each row of a TSV file, which must hold
    `columns` cells; blank lines and `#` comment lines are skipped."""
    for lineno, line in _read_lines(path):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        row = line.split("\t")
        if len(row) != columns:
            raise LexiconError(path, lineno, f"expected {columns} columns, got {len(row)}")
        yield lineno, row


def _write_lines(path, lines):
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
