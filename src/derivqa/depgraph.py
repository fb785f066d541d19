"""Dependency graphs over tokens, a deterministic parser for a restricted
French grammar, and the JSON-lines bank format.

The parser covers exactly what the pipeline needs: subject-verb-object
clauses (simple past, present, or avoir + participle), copular attribute
clauses, noun phrases with "de"/"par" complements, noun + proper-noun
appositions, postnominal adjectives, clitic inversion for questions, a
fronted "De quel X ... est-il le Y" interrogative, and two fragments: an
infinitive with its object, and a bare noun phrase. Anything else fails
with an explicit error rather than producing a wrong parse.
"""

import json
import logging
import re
from dataclasses import dataclass, field
from functools import cached_property

from .lexica import ADJ, ADV, CONTENT_POS, NOUN, VERB, _read_lines, _write_lines, normalize

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
    `features` is empty on a parsed token; a derivative token holds the
    `deriv_pattern` and `deriv_source` that `rephrase.apply_pattern` writes.
    """

    index: int
    surface: str
    lemma: str
    pos: str
    features: dict = field(default_factory=dict)
    sense_id: int | None = None
    alternates: frozenset = _NO_ALTERNATES


@dataclass(frozen=True)
class Dependency:
    """A labeled dependency; args are token indices into the owning graph.

    The label is one of `KNOWN_LABELS`, and the two args are (head,
    dependent). PREPPH carries its preposition as a literal string next to
    them.
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


@dataclass
class DependencyGraph:
    sentence_id: str
    text: str
    tokens: list
    deps: list = field(default_factory=list)

    def add_dep(self, dep: Dependency):
        for i in dep.args:
            if not 0 <= i < len(self.tokens):
                raise ValueError(f"dependency arg {i} out of range")
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
    return frozenset(
        t.lemma for t in graph.tokens
        if t.pos in CONTENT_POS and not t.features.get("deriv_pattern")
    )


def _bag_index(graphs) -> dict:
    postings = {}
    for position, graph in enumerate(graphs):
        for lemma in _significant_lemmas(graph):
            postings.setdefault(lemma, []).append(position)
    return postings


def copy_graph(graph: DependencyGraph) -> DependencyGraph:
    tokens = [
        TokenNode(t.index, t.surface, t.lemma, t.pos, dict(t.features),
                  t.sense_id, t.alternates)
        for t in graph.tokens
    ]
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
_TAG_POS = {"V": VERB, "N": NOUN, "ADJ": ADJ, "ADV": ADV}


@dataclass
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
        m = _CLITIC_RE.match(chunk)
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
        elif readings := tuple(lexicon.readings(surface)):
            items.append(_Item(surface, "WORD", readings=readings))
        elif surface[0].isupper():
            items.append(_Item(surface, "PROPER", lemma=surface))
        else:
            raise UnknownTokenError(surface)
    return items


def _reading(item, pos: str, subtags=None):
    """The first reading of a WORD item with part of speech `pos`, and with
    a second tag in `subtags` if given; None for any other item or None."""
    for r in item.readings if item else ():
        parts = r.morph_tags.split(":")
        if (_TAG_POS.get(parts[0], parts[0]) == pos
                and (subtags is None or len(parts) > 1 and parts[1] in subtags)):
            return r
    return None


class _Parser:
    """Recursive descent over the classified items. `choices` maps each
    WORD item taken to its (lemma, pos); `deps` holds (label, head,
    dependent, prep) in the order the grammar finds them."""

    def __init__(self, items):
        self.items = items
        self.i = 0
        self.choices = {}
        self.deps = []

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else None

    def skip(self, kind: str, lemma=None) -> bool:
        """Take the next item if it has `kind`, and `lemma` if given."""
        item = self.peek()
        if item is None or item.kind != kind or lemma is not None and item.lemma != lemma:
            return False
        self.i += 1
        return True

    def word(self, pos: str, subtags=None):
        """Take the next item under its `pos` reading (see `_reading`) and
        return its index; None, taking nothing, if it has no such reading."""
        reading = _reading(self.peek(), pos, subtags)
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
        if self.peek() is None:
            self.fail("expected a noun phrase")
        self.skip(DET)
        item = self.peek()
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
            if (_reading(self.peek(), VERB, _FINITE) is None
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
        if not items:
            self.fail("empty sentence")
        first = items[0]
        if (first.kind == PREP and first.lemma == "de" and len(items) > 1
                and items[1].kind == DET and items[1].lemma in _QUEL):
            self.fronted_interrogative()
        elif _reading(first, VERB, {"inf"}) and not _reading(first, NOUN):
            self.infinitive_fragment()
        else:
            self.clause_or_fragment()
        if self.i != len(items):
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
        if self.peek() is None:
            self.fail("expected a subject")
        return self.i - 1 if self.skip(PRON) else self.np()

    def clause_or_fragment(self):
        subject = self.subject()
        self.pp_chain(subject, subject)
        item = self.peek()
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
        if self.peek() is None:
            return
        # The case marker of an indirect object, normalized away.
        self.skip(PREP, "à") or self.skip(PREP, "de")
        if self.peek() is None:
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

    graph = DependencyGraph(sentence_id, sentence, tokens)
    for label, head, dependent, prep in raw_deps:
        graph.add_dep(Dependency(label, (head, dependent), prep=prep))
    return graph


# ---------------------------------------------------------------------------
# Bank serialization (JSON lines, format 2)
# ---------------------------------------------------------------------------

BANK_FORMAT = 2


def save_depbank(graphs, path):
    """Write a header line, then one row per graph.

    The header is `{"derivqa_bank":2,"mode":M,"fingerprint":F}`, taken from
    the bank's `mode` and `fingerprint`; a plain sequence of graphs writes
    nulls. A row is `[id, text, tokens, deps]`, with each token
    `[surface, lemma, pos, features, sense, alternates]` (its index is its
    position) and each dependency `[label, arg0, arg1, prep, provenance]`.
    """
    header = {"derivqa_bank": BANK_FORMAT,
              "mode": getattr(graphs, "mode", None),
              "fingerprint": getattr(graphs, "fingerprint", None)}
    lines = [json.dumps(header, separators=(",", ":"))]
    for g in graphs:
        row = [
            g.sentence_id,
            g.text,
            [[t.surface, t.lemma, t.pos, t.features, t.sense_id, sorted(t.alternates)]
             for t in g.tokens],
            [[d.label, *d.args, d.prep, d.provenance] for d in g.deps],
        ]
        lines.append(json.dumps(row, ensure_ascii=False, separators=(",", ":"),
                                sort_keys=True))
    _write_lines(path, lines)


def load_depbank(path) -> DependencyBank:
    """Read a bank written by `save_depbank`; sentence ids must be unique.

    The first non-blank line must be a format-2 header. A later header
    identical to it is skipped, so banks saved under one configuration may
    be concatenated; a differing one is an error.
    """
    graphs = []
    seen = set()
    shared = {}
    header = None
    lines = _read_lines(path, lambda p, lineno, message: DepbankError(f"{p}:{lineno}: {message}"))
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DepbankError(f"{path}:{lineno}: not valid JSON: {exc}")
        if header is None:
            if not _is_header(record):
                raise DepbankError(f"{path}:{lineno}: not a derivqa_bank {BANK_FORMAT} "
                                   "header; rerun preprocess")
            header = record["mode"], record["fingerprint"]
        elif _is_header(record):
            other = record["mode"], record["fingerprint"]
            if other != header:
                raise DepbankError(f"{path}:{lineno}: bank header differs from the first one "
                                   f"({describe_bank(*other)} against {describe_bank(*header)}); "
                                   "rerun preprocess")
        else:
            graph = _graph_from_row(record, f"{path}:{lineno}", shared)
            if graph.sentence_id in seen:
                raise DepbankError(f"{path}:{lineno}: duplicate sentence id "
                                   f"{graph.sentence_id!r}")
            seen.add(graph.sentence_id)
            graphs.append(graph)
    if header is None:
        raise DepbankError(f"{path}: no derivqa_bank {BANK_FORMAT} header; rerun preprocess")
    return DependencyBank(graphs, *header)


def _is_header(record) -> bool:
    return (type(record) is dict
            and record.keys() == {"derivqa_bank", "mode", "fingerprint"}
            and type(record["derivqa_bank"]) is int and record["derivqa_bank"] == BANK_FORMAT
            and all(value is None or type(value) is str
                    for value in (record["mode"], record["fingerprint"])))


def describe_bank(mode, fingerprint) -> str:
    """A bank configuration, as error messages name it."""
    return f"mode={mode} fingerprint={fingerprint}"


def _graph_from_row(row, where: str, shared: dict) -> DependencyGraph:
    """One graph row, checked; `shared` maps each dependency row already read
    to its `Dependency`, so equal dependencies of a bank are one object. Equal
    rows are equal dependencies, so a row repeated in a graph is dropped by
    its row alone."""
    if type(row) is not list or len(row) != 4:
        raise DepbankError(f"{where}: a graph row must be a list [id, text, tokens, deps]")
    sentence_id, text, raw_tokens, raw_deps = row
    rid = f"{where} (id={sentence_id!r})"
    if type(sentence_id) is not str or type(text) is not str:
        raise DepbankError(f"{rid}: id and text must be strings")
    if type(raw_tokens) is not list or type(raw_deps) is not list:
        raise DepbankError(f"{rid}: tokens and deps must be lists")
    tokens = []
    for index, raw in enumerate(raw_tokens):
        if type(raw) is not list or len(raw) != 6:
            raise DepbankError(f"{rid}: token {index} must be a list [surface, lemma, pos, "
                               "features, sense, alternates]")
        surface, lemma, pos, features, sense, alternates = raw
        if type(surface) is not str or type(lemma) is not str or type(pos) is not str:
            raise DepbankError(f"{rid}: token {index}: surface, lemma and pos must be strings")
        if type(features) is not dict or (
                features and not all(type(v) is str for v in features.values())):
            raise DepbankError(f"{rid}: token {index}: features must be an object of strings")
        if sense is not None and type(sense) is not int:
            raise DepbankError(f"{rid}: token {index}: sense must be an integer or null")
        if type(alternates) is not list or (
                alternates and not all(type(a) is str for a in alternates)):
            raise DepbankError(f"{rid}: token {index}: alternates must be a list of strings")
        tokens.append(TokenNode(index, surface, lemma, pos, features, sense,
                                frozenset(alternates) if alternates else _NO_ALTERNATES))
    n = len(tokens)
    deps = {}  # dependency row -> Dependency, first occurrence first
    for raw in raw_deps:
        if type(raw) is not list or len(raw) != 5:
            raise DepbankError(f"{rid}: a dependency must be a list [label, arg0, arg1, "
                               "prep, provenance]")
        label, arg0, arg1, prep, provenance = raw
        if type(arg0) is not int or type(arg1) is not int or not (0 <= arg0 < n and 0 <= arg1 < n):
            raise DepbankError(f"{rid}: dependency args not integers or out of range: "
                               f"{[arg0, arg1]}")
        key = (label, arg0, arg1, prep, provenance)
        try:
            dep = shared[key]
        except (KeyError, TypeError):
            # A key that cannot be hashed holds a list or an object, which
            # Dependency rejects, so it is never stored.
            try:
                dep = Dependency(label, (arg0, arg1), prep, provenance)
            except (TypeError, ValueError) as exc:
                raise DepbankError(f"{rid}: bad dependency record: {exc}")
            shared[key] = dep
        deps.setdefault(key, dep)
    return DependencyGraph(sentence_id, text, tokens, list(deps.values()))
