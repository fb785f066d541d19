"""Dependency graphs over tokens, a deterministic parser for a restricted
French grammar, and the tab-separated bank format.

The parser covers exactly what the pipeline needs: subject-verb-object
clauses (simple past, present, or avoir + participle), copular attribute
clauses, noun phrases with "de"/"par" complements, noun + proper-noun
appositions, postnominal adjectives, clitic inversion for questions, a
fronted "De quel X ... est-il le Y" interrogative, and two fragments: an
infinitive with its object, and a bare noun phrase. Anything else fails
with an explicit error rather than producing a wrong parse.
"""

import logging
import re
from dataclasses import dataclass, field
from functools import cached_property

from .lexica import (ADJ, CONTENT_POS, NOUN, VERB, _int_cell, _read_lines, _write_lines,
                     normalize)

log = logging.getLogger(__name__)

SUBJECT = "SUBJECT"
DIROBJ = "DIROBJ"
ATTRIBUTE = "ATTRIBUTE"
PREPPH = "PREPPH"
MODIFIER = "MODIFIER"
KNOWN_LABELS = frozenset({SUBJECT, DIROBJ, ATTRIBUTE, PREPPH, MODIFIER})

# A dependency is parsed (BASE) or added by a derivation pattern; synonyms
# are token alternates, not dependencies.
BASE = "BASE"
DERIVATIONAL = "DERIVATIONAL"
PROVENANCES = frozenset({BASE, DERIVATIONAL})

DET = "DET"
PREP = "PREP"
PRON = "PRON"
OTHER = "OTHER"

# Parser-internal item kind for auxiliaries and copulas; such tokens
# surface with pos OTHER since they carry no content of their own.
_AUX = "AUX"


class ToyParseError(ValueError):
    """The sentence falls outside the restricted grammar."""


class UnknownTokenError(ToyParseError):
    """A token is neither closed-class, in the lexicon, nor a proper noun."""

    def __init__(self, token: str):
        super().__init__(f"token outside lexicon: {token!r}")


class DepbankError(ValueError):
    """A serialized bank record violates the schema."""


_NO_ALTERNATES = frozenset()


@dataclass(slots=True)
class TokenNode:
    """One word of a graph; `index` is its position in the graph's tokens.

    `alternates` is a frozenset of synonym lemmas, replaced rather than
    changed, so tokens may share it: every token without alternates, loaded
    ones included, holds one empty frozenset, and `copy_graph` gives the
    copy the original's. Tokens are slotted and carry no `__dict__`.
    `deriv_pattern` and `deriv_source` are None on a parsed token; on a
    derivative token, `rephrase.apply_pattern` sets them to the pattern that
    made it and its source lemma. Parsed, built and copied tokens may be
    changed in place. Loaded tokens are shared per (position, cells) and
    read-only (`_LoadedToken`); `copy_graph` gives a graph of editable ones.
    """

    index: int
    surface: str
    lemma: str
    pos: str
    sense_id: int | None = None
    alternates: frozenset = _NO_ALTERNATES
    deriv_pattern: str | None = None
    deriv_source: str | None = None

    @property
    def features(self) -> dict:
        """The derivation fields as a dict, {} on a parsed token; only the benchmark reads it."""
        return {} if self.deriv_pattern is None else {
            "deriv_pattern": self.deriv_pattern, "deriv_source": self.deriv_source}


class _LoadedToken(TokenNode):
    """A token of a loaded bank, shared by every graph line holding its
    cells at its position, and so read-only: edit a `copy_graph` copy.

    It adds no slots, so the loader builds a `TokenNode` and sets its class.
    It equals any `TokenNode` of equal fields, and `copy.copy`,
    `copy.deepcopy`, `pickle` and `dataclasses.replace` give an editable
    `TokenNode`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return TokenNode(*args, **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a loaded token is shared and read-only; "
                             "edit the tokens of copy_graph(graph)")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a loaded token is shared and read-only; "
                             "edit the tokens of copy_graph(graph)")

    def __eq__(self, other):
        if not isinstance(other, TokenNode):
            return NotImplemented
        return _token_fields(self) == _token_fields(other)

    def __reduce__(self):
        return TokenNode, _token_fields(self)


def _token_fields(t: TokenNode) -> tuple:
    return (t.index, t.surface, t.lemma, t.pos, t.sense_id, t.alternates, t.deriv_pattern,
            t.deriv_source)


@dataclass(frozen=True, slots=True)
class Dependency:
    """A labeled dependency; args are token indices into the owning graph.

    The label is one of `KNOWN_LABELS`, and the two args are (head,
    dependent). PREPPH carries its preposition as a literal string next to
    them. Dependencies are slotted and carry no `__dict__`.
    """

    label: str
    args: tuple
    prep: str | None = None
    provenance: str = BASE

    def __post_init__(self):
        if self.label not in KNOWN_LABELS:
            raise ValueError(f"unknown dependency label {self.label!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.label == PREPPH:
            if len(self.args) != 2 or not isinstance(self.prep, str) or not self.prep:
                raise ValueError("PREPPH takes two token args and a preposition string")
        elif len(self.args) != 2 or self.prep is not None:
            raise ValueError(f"{self.label} takes exactly two token args and no preposition")


@dataclass(slots=True)
class DependencyGraph:
    """A sentence's tokens, in order, and its dependencies between them.

    Graphs are slotted and carry no `__dict__`. In a loaded bank, graphs
    holding equal cells at one position share that read-only token, and
    equal dependencies are one `Dependency`; each graph owns its token and
    dependency lists. `copy_graph` gives a graph whose tokens it owns and
    may change.
    """

    sentence_id: str
    text: str
    tokens: list
    deps: list = field(default_factory=list)

    def add_dep(self, dep: Dependency):
        """Append `dep` unless the graph holds it already.

        Its args must be what `save_depbank` writes: a tuple of two token
        indices of this graph, ints and not bools. The toy parser builds
        its dependency list directly and is not checked here.
        """
        n = len(self.tokens)
        head, dependent = args = dep.args
        if type(args) is not tuple or not (type(head) is type(dependent) is int
                                           and 0 <= head < n and 0 <= dependent < n):
            raise ValueError(f"dependency args must be a tuple of two integers in [0, {n}), "
                             f"not {args!r}")
        if dep not in self.deps:
            self.deps.append(dep)


class DependencyBank(tuple):
    """The graphs of a bank in bank order: a read-only sequence.

    `load_depbank` and `pipeline.build_bank` return one. `mode` and
    `fingerprint` name the configuration the bank was built under
    (`pipeline.Resources.fingerprint`); both are None when unknown.

    Two indexes are built on first use, once per bank. `postings` is an
    inverted index over the graphs' dependencies: (label, prep,
    word of arg 0, word of arg 1) -> the (bank position, dependency index)
    of each dependency holding that key, where a word is the argument
    token's lemma or one of its alternates. The pairs are stored flat, as
    one list of ints `[position, dep index, position, dep index, ...]` in
    ascending order, each pair once; `qaengine.answer` reads its matching
    edges from it through `match_edges`. `bag_index` is the bag engine's:
    significant lemma -> ascending bank positions, each position once. A
    graph changed after an index is built is not seen by it.
    """

    def __new__(cls, graphs=(), mode: str | None = None, fingerprint: str | None = None):
        bank = super().__new__(cls, graphs)
        bank.mode = mode
        bank.fingerprint = fingerprint
        return bank

    @cached_property
    def postings(self) -> dict:
        return _dependency_postings(self)

    @cached_property
    def bag_index(self) -> dict:
        return _bag_index(self)

    def match_edges(self, qgraph: DependencyGraph) -> dict:
        """Bank position -> one list per dependency of `qgraph`, holding the
        ascending indexes of the graph's dependencies it matches; only
        graphs with at least one match appear.

        A question dependency matches a sentence dependency when labels and
        prepositions are equal and each question argument's lemma is the
        sentence argument's lemma or one of its alternates; provenance plays
        no role. That holds exactly when the question dependency's (label,
        prep, lemma of arg 0, lemma of arg 1) is one of the sentence
        dependency's keys, so the postings find every match and no other.
        """
        postings = self.postings
        tokens = qgraph.tokens
        n = len(qgraph.deps)
        edges = {}
        for qi, dep in enumerate(qgraph.deps):
            run = iter(postings.get((dep.label, dep.prep, tokens[dep.args[0]].lemma,
                                     tokens[dep.args[1]].lemma), ()))
            for position, ti in zip(run, run):
                lists = edges.get(position)
                if lists is None:
                    edges[position] = lists = [[] for _ in range(n)]
                lists[qi].append(ti)
        return edges


def _dependency_postings(graphs) -> dict:
    postings = {}
    for position, graph in enumerate(graphs):
        # each token's words: its lemma and alternates, each word once
        words = [t.alternates | {t.lemma} if t.alternates else (t.lemma,)
                 for t in graph.tokens]
        for index, dep in enumerate(graph.deps):
            head, dependent = dep.args
            for x in words[head]:
                for y in words[dependent]:
                    postings.setdefault((dep.label, dep.prep, x, y), []).extend(
                        (position, index))
    return postings


def _significant_lemmas(graph: DependencyGraph) -> frozenset:
    """Lemmas of the graph's content words; derivative tokens are left out."""
    return frozenset(t.lemma for t in graph.tokens
                     if t.pos in CONTENT_POS and t.deriv_pattern is None)


def _bag_index(graphs) -> dict:
    postings = {}
    for position, graph in enumerate(graphs):
        for lemma in _significant_lemmas(graph):
            postings.setdefault(lemma, []).append(position)
    return postings


def copy_graph(graph: DependencyGraph) -> DependencyGraph:
    tokens = [TokenNode(t.index, t.surface, t.lemma, t.pos, t.sense_id, t.alternates,
                        t.deriv_pattern, t.deriv_source) for t in graph.tokens]
    return DependencyGraph(graph.sentence_id, graph.text, tokens, list(graph.deps))


# ---------------------------------------------------------------------------
# Toy parser
# ---------------------------------------------------------------------------

_DETS = {"le", "la", "les", "l'", "un", "une", "ce", "cet", "cette", "ces",
         "sa", "son", "ses", "quel", "quelle", "quels", "quelles"}
_QUEL = {"quel", "quelle", "quels", "quelles"}
_PREPS = {"de", "d'", "à", "par", "dans", "sur", "avec", "pour", "en"}
_FUSED = {"du": "de", "des": "de", "au": "à", "aux": "à"}
_PRONS = {"il", "elle", "ils", "elles", "on", "je", "tu", "nous", "vous"}
_AUX_AVOIR = {"a", "ont", "avait", "avaient", "eut", "eurent"}
_COPULA = {"est", "sont", "était", "étaient", "fut", "furent"}
# Closed-class word -> (item kind, lemma); the sets above are disjoint.
_CLOSED = {
    **{w: (DET, w) for w in _DETS}, "l'": (DET, "le"),
    **{w: (PREP, w) for w in _PREPS}, "d'": (PREP, "de"),
    **{w: (PREP, lemma) for w, lemma in _FUSED.items()},
    **{w: (PRON, w) for w in _PRONS},
    **{w: (_AUX, "avoir") for w in _AUX_AVOIR},
    **{w: (_AUX, "être") for w in _COPULA},
}
_ELIDED = {"l'", "d'", "n'", "s'", "j'", "m'", "t'", "qu'"}
_CLITIC_RE = re.compile(r"^(.+?)(?:-t)?-(il|elle|ils|elles|on)$")
_FINITE = {"pres", "ps", "impf", "fut", "cond"}


@dataclass(slots=True)
class _Item:
    surface: str
    kind: str
    lemma: str = ""
    readings: tuple = ()


def _tokenize(sentence: str) -> list:
    pieces = []
    for chunk in sentence.split():
        chunk = chunk.strip(".,!?;:«»()\"")
        if not chunk:
            continue
        m = _CLITIC_RE.match(chunk) if "-" in chunk else None
        clitic = None
        if m and normalize(m.group(1)) not in _PRONS:
            chunk, clitic = m.group(1), m.group(2)
        while "'" in chunk:
            head, rest = chunk.split("'", 1)
            prefix = normalize(head) + "'"
            if prefix in _ELIDED and rest:
                pieces.append(prefix)
                chunk = rest
            else:
                break
        if chunk.startswith("-"):  # only the clitic split off above may
            raise UnknownTokenError(chunk)
        pieces.append(chunk)
        if clitic:
            pieces.append("-" + clitic)
    return pieces


def _classify(pieces, lexicon) -> list:
    items = []
    for surface in pieces:
        low = normalize(surface)
        if surface.startswith("-"):
            items.append(_Item(surface, PRON, lemma=surface[1:]))
        elif low in _CLOSED:
            items.append(_Item(surface, *_CLOSED[low]))
        elif readings := lexicon.by_form.get(low):
            items.append(_Item(surface, "WORD", readings=readings))
        elif surface[0].isupper():
            items.append(_Item(surface, "PROPER", lemma=surface))
        else:
            raise UnknownTokenError(surface)
    return items


def _reading(item, pos: str, subtags=None):
    """The entry of the first reading of a WORD item with part of speech
    `pos`, and with a subtag in `subtags` if given (see
    `lexica.InflectionLexicon`); None for any other item or None."""
    for entry, reading_pos, subtag in item.readings if item else ():
        if reading_pos == pos and (subtags is None or subtag in subtags):
            return entry
    return None


class _Parser:
    """Recursive descent over the classified items. `choices` maps each
    WORD item taken to its (lemma, pos); `deps` holds (label, head,
    dependent, prep) in the order the grammar finds them."""

    def __init__(self, items):
        # The items, then one None: `self.items[self.i]` is the next item, None at the end.
        self.items = [*items, None]
        self.i = 0
        self.choices = {}
        self.deps = []

    def skip(self, kind: str, lemma=None) -> bool:
        """Take the next item if it has `kind`, and `lemma` if given."""
        item = self.items[self.i]
        if item is None or item.kind != kind or lemma is not None and item.lemma != lemma:
            return False
        self.i += 1
        return True

    def word(self, pos: str, subtags=None):
        """Take the next item under its `pos` reading (see `_reading`) and
        return its index; None, taking nothing, if it has no such reading."""
        reading = _reading(self.items[self.i], pos, subtags)
        if reading is None:
            return None
        self.choices[self.i] = (reading.lemma, pos)
        self.i += 1
        return self.i - 1

    def fail(self, why: str):
        raise ToyParseError(f"unparsable: {why}")

    def add(self, label, head, dependent, prep=None):
        self.deps.append((label, head, dependent, prep))

    # --- phrase level -----------------------------------------------------

    def np(self):
        """[DET] (NOUN (ADJ | PROPER)* | PROPER); returns the head item index."""
        if self.items[self.i] is None:
            self.fail("expected a noun phrase")
        self.skip(DET)
        item = self.items[self.i]
        if item is None:
            self.fail("dangling determiner")
        if self.skip("PROPER"):
            return self.i - 1
        head = self.word(NOUN)
        if head is None:
            self.fail(f"expected a noun, got {item.surface!r}" if item.kind == "WORD"
                      else f"expected a noun phrase at {item.surface!r}")
        while True:
            # A word that may be a finite verb is the clause's verb, not an ADJ.
            if (_reading(self.items[self.i], VERB, _FINITE) is None
                    and (adj := self.word(ADJ)) is not None):
                self.add(MODIFIER, head, adj)
            elif self.skip("PROPER"):
                self.add(ATTRIBUTE, head, self.i - 1)
            else:
                return head

    def pp_chain(self, attach_de: int, attach_par: int):
        """(de NP | par NP)*; "de" attaches to the latest head, "par" to the top."""
        while True:
            if self.skip(PREP, "de"):
                inner = self.np()
                self.add(PREPPH, attach_de, inner, prep="de")
                attach_de = inner
            elif self.skip(PREP, "par"):
                self.add(PREPPH, attach_par, self.np(), prep="par")
            else:
                return

    def copular(self, subject: int, fronted=None):
        """The tail after "être": [clitic] NP (de NP | par NP)*, the NP being
        the subject's ATTRIBUTE; a fronted noun is its first "de" complement."""
        self.skip(PRON)
        attribute = self.np()
        self.add(ATTRIBUTE, subject, attribute)
        if fronted is not None:
            self.add(PREPPH, attribute, fronted, prep="de")
        self.pp_chain(attribute, attribute)

    # --- sentence level ---------------------------------------------------

    def parse(self):
        items = self.items
        first = items[0]
        if first is None:
            self.fail("empty sentence")
        if (first.kind == PREP and first.lemma == "de" and items[1] is not None
                and items[1].kind == DET and items[1].lemma in _QUEL):
            self.fronted_interrogative()
        elif _reading(first, VERB, {"inf"}) and not _reading(first, NOUN):
            self.infinitive_fragment()
        else:
            self.clause_or_fragment()
        if items[self.i] is not None:
            self.fail(f"trailing material from {items[self.i].surface!r}")
        return self.choices, self.deps

    def fronted_interrogative(self):
        """De quel N1 SUBJ est-il le N2 -> ATTRIBUTE(SUBJ, N2), PREPPH(N2, de, N1)."""
        self.i = 2  # "de quel", which parse() checked
        fronted = self.word(NOUN)
        if fronted is None:
            self.fail("fronted interrogative needs a noun after 'quel'")
        subject = self.subject()
        if not self.skip(_AUX, "être"):
            self.fail("fronted interrogative needs a copula")
        self.copular(subject, fronted)

    def infinitive_fragment(self):
        """VERB-inf NP (de NP | par NP)*; "par" attaches to the verb."""
        verb = self.word(VERB, {"inf"})
        obj = self.np()
        self.add(DIROBJ, verb, obj)
        self.pp_chain(obj, verb)

    def subject(self) -> int:
        if self.items[self.i] is None:
            self.fail("expected a subject")
        return self.i - 1 if self.skip(PRON) else self.np()

    def clause_or_fragment(self):
        subject = self.subject()
        self.pp_chain(subject, subject)
        item = self.items[self.i]
        if item is None:
            return  # bare noun phrase fragment
        if self.skip(_AUX, "avoir"):
            verb = self.word(VERB, {"pp"})
            if verb is None:
                self.fail("avoir needs a past participle")
            self.verb_complements(verb, subject)
        elif self.skip(_AUX, "être"):
            self.copular(subject)
        elif (verb := self.word(VERB, _FINITE)) is not None:
            self.skip(PRON)  # an inversion clitic echoes the subject
            self.verb_complements(verb, subject)
        else:
            self.fail(f"expected a verb, got {item.surface!r}")

    def verb_complements(self, verb: int, subject: int):
        self.add(SUBJECT, verb, subject)
        if self.items[self.i] is None:
            return
        # The case marker of an indirect object, normalized away.
        self.skip(PREP, "à") or self.skip(PREP, "de")
        if self.items[self.i] is None:
            self.fail("dangling preposition")
        obj = self.np()
        self.add(DIROBJ, verb, obj)
        self.pp_chain(obj, obj)


def toy_parse(sentence: str, lexicon, sentence_id: str = "s0") -> DependencyGraph:
    """Parse one sentence of the restricted grammar into a dependency graph.

    Raises ToyParseError (or UnknownTokenError) instead of guessing: an
    unparsable sentence must never contribute a wrong graph to the bank.
    """
    items = _classify(_tokenize(sentence), lexicon)
    choices, raw_deps = _Parser(items).parse()

    tokens = []
    for idx, item in enumerate(items):
        if idx in choices:
            lemma, pos = choices[idx]
        elif item.kind == "WORD":
            # A content word the grammar never attached anywhere.
            raise ToyParseError(f"unparsable: unattached word {item.surface!r}")
        elif item.kind == "PROPER":
            lemma, pos = item.lemma, NOUN
        else:
            lemma, pos = item.lemma, OTHER if item.kind == _AUX else item.kind
        tokens.append(TokenNode(idx, item.surface, lemma, pos))

    # Each item is the dependent of at most one dependency, so none repeats.
    return DependencyGraph(sentence_id, sentence, tokens,
                           [Dependency(label, (head, dependent), prep)
                            for label, head, dependent, prep in raw_deps])


# ---------------------------------------------------------------------------
# Bank serialization (tab-separated lines, format 3)
# ---------------------------------------------------------------------------

BANK_FORMAT = 3
_BANK_TAG = "derivqa_bank"
# What `save_depbank` writes only if it holds: the reader splits lines at
# newlines and cells at tabs, and drops a carriage return ending a line.
_CELL_RULE = "a string with no tab or newline, the line's last not ending in a carriage return"


def save_depbank(graphs, path):
    """Write a header line, then one line per graph, each a row of
    tab-separated cells in which an empty cell stands for none.

    The header is `derivqa_bank, 3, mode, fingerprint`, taken from the
    bank's `mode` and `fingerprint`; a plain sequence of graphs writes
    empty cells. A graph line is `id, text, N`, then the 7 cells of each of
    its N tokens, `surface, lemma, pos, sense, alternates, pattern, source`,
    then the 5 cells of each dependency, `label, arg0, arg1, prep,
    provenance`. A token's index is its position; its alternates are sorted
    and joined by `;`; pattern and source are its derivation fields.

    A bank that `load_depbank` would not give back as it is raises
    DepbankError, naming the file and the sentence id, and nothing is
    written: a cell that is not a string, or holds a tab or a newline; a
    line that would end in a carriage return, which the reader drops; an
    empty mode or fingerprint; a sense that is not an integer or None;
    alternates that are not a set of strings, each non-empty and without
    `;`; a `deriv_pattern` and `deriv_source` that are not both None or
    both non-empty strings; dependency args that are not a tuple of
    integers indexing the graph's tokens; a dependency repeated in its
    graph; an id that is the header tag or repeats an earlier one.
    """
    mode, fingerprint = getattr(graphs, "mode", None), getattr(graphs, "fingerprint", None)
    header = None if "" in (mode, fingerprint) else _bank_line(
        [_BANK_TAG, str(BANK_FORMAT), mode or "", fingerprint or ""])
    if header is None:
        raise DepbankError(f"{path}: bank header: mode and fingerprint must be None or "
                           f"{_CELL_RULE}, and not empty")
    lines = [header]
    ids = set()
    for g in graphs:
        sid = g.sentence_id
        if sid == _BANK_TAG:
            raise _save_error(path, sid, "an id must not be the bank header tag")
        if type(g.tokens) is not list or type(g.deps) is not list:
            raise _save_error(path, sid, "tokens and deps must be lists")
        n = len(g.tokens)
        cells = [sid, g.text, str(n)]
        for index, t in enumerate(g.tokens):
            sense, words = t.sense_id, t.alternates
            pattern, source = t.deriv_pattern, t.deriv_source
            if pattern is None and source is None:
                pattern = source = ""
            elif not (type(pattern) is str and type(source) is str and pattern and source):
                raise _save_error(path, sid, f"token {index}: deriv_pattern and deriv_source "
                                  "must both be None, or both non-empty strings")
            if sense is None:
                sense = ""
            elif type(sense) is int:
                sense = str(sense)
            else:
                raise _save_error(path, sid, f"token {index}: sense must be an integer or None")
            alternates = "" if words is _NO_ALTERNATES else _alternates_cell(words)
            if alternates is None:
                raise _save_error(path, sid, f"token {index}: alternates must be a set of "
                                  "non-empty strings without ';'")
            cells += (t.surface, t.lemma, t.pos, sense, alternates, pattern, source)
        written = set()
        for d in g.deps:
            head, dependent = args = d.args
            if type(args) is not tuple or not (type(head) is type(dependent) is int
                                               and 0 <= head < n and 0 <= dependent < n):
                raise _save_error(path, sid, "dependency args must be a tuple of two integers "
                                  f"in [0, {n}), not {args!r}")
            dep = (d.label, str(head), str(dependent), d.prep or "", d.provenance)
            written.add(dep)
            cells += dep
        if len(written) < len(g.deps):
            raise _save_error(path, sid, "a dependency repeats")
        line = _bank_line(cells)
        if line is None:
            raise _save_error(path, sid, f"every cell must be {_CELL_RULE}")
        if sid in ids:
            raise _save_error(path, sid, "duplicate sentence id")
        ids.add(sid)
        lines.append(line)
    _write_lines(path, lines)


def _save_error(path, sentence_id, message: str) -> DepbankError:
    return DepbankError(f"{path}: id={sentence_id!r}: {message}")


def _alternates_cell(words) -> str | None:
    """`words` as an alternates cell; None unless it reads back as them: a
    set of strings, none empty or holding `;`."""
    if not isinstance(words, (set, frozenset)):
        return None
    if not words:
        return ""
    try:
        ordered = sorted(words)
        cell = ";".join(ordered)
    except TypeError:
        return None
    return cell if ordered[0] and cell.count(";") == len(ordered) - 1 else None


def _bank_line(cells) -> str | None:
    """The cells joined by tabs; None unless the line reads back as them."""
    try:
        line = "\t".join(cells)
    except TypeError:
        return None
    if line.count("\t") != len(cells) - 1 or "\n" in line or line.endswith("\r"):
        return None
    return line


def _bank_error(path, lineno: int, message: str) -> DepbankError:
    return DepbankError(f"{path}:{lineno}: {message}")


def load_depbank(path) -> DependencyBank:
    """Read a bank written by `save_depbank`; sentence ids must be unique.

    The first non-blank line must be a format-3 header; a bank of an
    earlier format, such as format 2's JSON lines, is refused with "rerun
    preprocess". A later header identical to it is skipped, so banks saved
    under one configuration may be concatenated; a differing one is an
    error. Every cell is checked the first time it is read, and a fault
    raises a `FILE:LINE:` DepbankError. Equal dependencies of a bank load as
    one shared `Dependency`, and equal alternates cells as one frozenset.
    Equal token groups of 7 cells at one position load as one read-only
    token, shared by every graph holding them there, with that position as
    its `index`; each string is one object for the whole bank, and an empty
    pattern and source cell load as None. Edit a `copy_graph` copy.
    """
    graphs = []
    seen = set()
    # Cells already read -> their value, for the whole bank: integer cells,
    # alternates cells, in `shared` each string cell of a token, a
    # dependency's 5 cells and a line's dependency cells (a string holding
    # tabs, so never a single cell), and in `positions[i]` a token's 7 cells
    # at position i.
    ints, alternates, shared, positions = {}, {"": _NO_ALTERNATES}, {}, []
    header = None
    for lineno, line in _read_lines(path, _bank_error):
        if not line.strip():
            continue
        cells = line.split("\t", 3)
        if cells[0] == _BANK_TAG:
            cells = line.split("\t")
            if len(cells) != 4 or cells[1] != str(BANK_FORMAT):
                raise _bank_error(path, lineno, f"not a derivqa_bank {BANK_FORMAT} header; "
                                  "rerun preprocess")
            other = cells[2] or None, cells[3] or None
            if header is None:
                header = other
            elif other != header:
                raise _bank_error(path, lineno, "bank header differs from the first one "
                                  f"({describe_bank(*other)} against {describe_bank(*header)}); "
                                  "rerun preprocess")
        elif header is None:
            raise _bank_error(path, lineno, f"not a derivqa_bank {BANK_FORMAT} header; "
                              "rerun preprocess")
        else:
            graph = _graph_from_cells(cells, path, lineno, ints, alternates, shared,
                                      positions)
            if graph.sentence_id in seen:
                raise _bank_error(path, lineno, f"duplicate sentence id {graph.sentence_id!r}")
            seen.add(graph.sentence_id)
            graphs.append(graph)
    if header is None:
        raise DepbankError(f"{path}: no derivqa_bank {BANK_FORMAT} header; rerun preprocess")
    return DependencyBank(graphs, *header)


def describe_bank(mode, fingerprint) -> str:
    """A bank configuration, as error messages name it."""
    return f"mode={mode} fingerprint={fingerprint}"


def _graph_from_cells(cells, path, lineno: int, ints: dict, alternates: dict,
                      shared: dict, positions: list) -> DependencyGraph:
    """One graph line, split at its first three tabs, checked. `ints`,
    `alternates`, `shared` and `positions` map cells already read to their
    values.

    The token groups are read by `_tokens_from_cells`: equal groups at one
    position are one token. The dependency cells are read as one string, so
    a line whose dependency cells were read before takes the same
    dependencies, checked against its own token count."""
    if len(cells) < 3:
        raise _bank_error(path, lineno, "a graph line must start with id, text and token count")
    sentence_id, text, count = cells[0], cells[1], cells[2]
    n = ints.get(count)
    if n is None:
        n = ints[count] = _int_cell(path, lineno, f"id={sentence_id!r}: token count", count,
                                    _bank_error)
    rest = cells[3] if len(cells) > 3 else None
    following = 0 if rest is None else rest.count("\t") + 1
    end = 7 * n
    if n < 0 or following < end or (following - end) % 5:
        raise _bank_error(path, lineno, f"id={sentence_id!r}: {following} cells follow "
                          f"a token count of {n}; a graph line holds 7 per token, then 5 per "
                          "dependency")
    cells = rest.split("\t", end) if following else []
    tokens = _tokens_from_cells(cells, path, lineno, sentence_id, ints, alternates, shared,
                                positions)
    if following == end:
        return DependencyGraph(sentence_id, text, tokens, [])
    tail = cells[-1]
    found = shared.get(tail)
    if found is None:
        found = shared[tail] = _dependencies_from_cells(tail, path, lineno, sentence_id, n, ints,
                                                        shared)
    deps, top = found
    if top >= n:  # raises the error of the first dependency out of range
        _dependencies_from_cells(tail, path, lineno, sentence_id, n, ints, shared)
    return DependencyGraph(sentence_id, text, tokens, list(deps))


def _dependencies_from_cells(tail: str, path, lineno: int, sentence_id: str, n: int,
                             ints: dict, shared: dict) -> tuple:
    """The dependencies of a line's dependency cells, checked against its
    `n` tokens, and their highest arg. Equal dependencies are one object,
    so one repeated in the line is kept once, by its identity."""
    deps = {}  # id -> Dependency, first occurrence first
    top = 0
    run = iter(tail.split("\t"))
    for key in zip(run, run, run, run, run):
        dep = shared.get(key)
        if dep is None:
            dep = shared[key] = _dependency_from_cells(key, path, lineno, sentence_id, ints,
                                                       shared)
        head, dependent = dep.args
        if head >= n or dependent >= n:
            raise _bank_error(path, lineno, f"id={sentence_id!r}: dependency args out of "
                              f"range: {[head, dependent]}")
        if head > top or dependent > top:
            top = head if head > dependent else dependent
        deps[id(dep)] = dep
    return tuple(deps.values()), top


def _tokens_from_cells(cells, path, lineno: int, sentence_id: str, ints: dict,
                       alternates: dict, shared: dict, positions: list) -> list:
    """The tokens of a line's token cells, 7 per token: surface, lemma, pos,
    sense, alternates, pattern and source.

    `positions[i]` maps each group of 7 cells read at position i to its
    token. A group is checked the first time it is read at a position, and
    every later line holding it there takes that one `_LoadedToken`. Its
    values are shared too: the strings, each the first one of the bank that
    spells it, the sense, the alternates, and the pattern and source, None
    for empty cells. Each token has its position as its `index`."""
    missing = len(cells) // 7 - len(positions)
    if missing > 0:
        positions.extend({} for _ in range(missing))
    tokens = []
    first = shared.setdefault
    run = iter(cells)
    for index, key in enumerate(zip(run, run, run, run, run, run, run)):
        token = positions[index].get(key)
        if token is None:
            surface, lemma, pos, sense, alts, pattern, source = key
            if sense:
                sense_id = ints.get(sense)
                if sense_id is None:
                    sense_id = ints[sense] = _int_cell(path, lineno, f"id={sentence_id!r}: token "
                                                       f"{index} sense", sense, _bank_error)
            else:
                sense_id = None
            words = alternates.get(alts)
            if words is None:
                words = frozenset(alts.split(";"))
                if "" in words:
                    raise _bank_error(path, lineno, f"id={sentence_id!r}: token {index}: an "
                                      f"alternate is empty: {alts!r}")
                alternates[alts] = words
            if (not pattern) != (not source):
                raise _bank_error(path, lineno, f"id={sentence_id!r}: token {index}: a pattern "
                                  "needs a source, and a source a pattern")
            lemma = first(lemma, lemma)
            token = TokenNode(index, lemma if surface == lemma else first(surface, surface),
                              lemma, first(pos, pos), sense_id, words,
                              first(pattern, pattern) or None, first(source, source) or None)
            token.__class__ = _LoadedToken
            positions[index][key] = token
        tokens.append(token)
    return tokens


def _dependency_from_cells(cells, path, lineno: int, sentence_id: str, ints: dict,
                           shared: dict) -> Dependency:
    """The dependency of 5 cells not read before; the one already read when
    the cells spell its args otherwise, such as `01` for `1`."""
    label, arg0, arg1, prep, provenance = cells
    head, dependent = ints.get(arg0), ints.get(arg1)
    if head is None:
        head = ints[arg0] = _int_cell(path, lineno, f"id={sentence_id!r}: dependency arg0",
                                      arg0, _bank_error)
    if dependent is None:
        dependent = ints[arg1] = _int_cell(path, lineno, f"id={sentence_id!r}: dependency arg1",
                                           arg1, _bank_error)
    if head < 0 or dependent < 0:
        raise _bank_error(path, lineno, f"id={sentence_id!r}: dependency args out of range: "
                          f"{[head, dependent]}")
    written = (label, str(head), str(dependent), prep, provenance)
    if written in shared:
        return shared[written]
    try:
        dep = shared[written] = Dependency(label, (head, dependent), prep or None, provenance)
    except ValueError as exc:
        raise _bank_error(path, lineno, f"id={sentence_id!r}: bad dependency record: {exc}")
    return dep
