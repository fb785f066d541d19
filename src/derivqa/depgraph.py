"""Dependency graphs over tokens, a deterministic parser for a restricted
French grammar, and the JSON-lines bank format.

The parser covers exactly what the pipeline needs: subject-verb-object
clauses (simple past, present, or avoir + participle), copular attribute
clauses, noun phrases with "de"/"par" complements, noun + proper-noun
appositions, postnominal adjectives, clitic inversion for questions, and a
fronted "De quel X ... est-il le Y" interrogative. Anything else fails with
an explicit error rather than producing a wrong parse.
"""

import json
import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .lexica import ADJ, ADV, CONTENT_POS, NOUN, VERB, normalize

log = logging.getLogger(__name__)

SUBJECT = "SUBJECT"
DIROBJ = "DIROBJ"
ATTRIBUTE = "ATTRIBUTE"
PREPPH = "PREPPH"
MODIFIER = "MODIFIER"
KNOWN_LABELS = frozenset({SUBJECT, DIROBJ, ATTRIBUTE, PREPPH, MODIFIER})

BASE = "BASE"
SYNONYM = "SYNONYM"
DERIVATIONAL = "DERIVATIONAL"
PROVENANCES = frozenset({BASE, SYNONYM, DERIVATIONAL})

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
        self.token = token
        super().__init__(f"token outside lexicon: {token!r}")


class DepbankError(ValueError):
    """A serialized bank record violates the schema."""


@dataclass
class TokenNode:
    index: int
    surface: str
    lemma: str
    pos: str
    features: dict = field(default_factory=dict)
    sense_id: int | None = None
    alternates: set = field(default_factory=set)


@dataclass(frozen=True)
class Dependency:
    """A labeled dependency; args are token indices into the owning graph.

    PREPPH carries its preposition as a literal string next to the two
    token arguments (head, dependent); its arity therefore counts as 3.
    Unknown labels are allowed so foreign banks round-trip, but they never
    take part in matching.
    """

    label: str
    args: tuple
    prep: str | None = None
    provenance: str = BASE

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.label == PREPPH:
            if len(self.args) != 2 or not self.prep:
                raise ValueError("PREPPH takes two token args and a preposition string")
        elif self.label in KNOWN_LABELS:
            if len(self.args) != 2 or self.prep is not None:
                raise ValueError(f"{self.label} takes exactly two token args and no preposition")

    def arity(self) -> int:
        return len(self.args) + (1 if self.label == PREPPH else 0)


@dataclass
class DependencyGraph:
    sentence_id: str
    text: str
    tokens: list
    deps: list = field(default_factory=list)

    def lemma(self, index: int) -> str:
        return self.tokens[index].lemma

    def has_dep(self, dep: Dependency) -> bool:
        return dep in self.deps

    def add_dep(self, dep: Dependency):
        for i in dep.args:
            if not 0 <= i < len(self.tokens):
                raise ValueError(f"dependency arg {i} out of range")
        if dep not in self.deps:
            self.deps.append(dep)

    def significant_tokens(self) -> list:
        return [t for t in self.tokens if t.pos in CONTENT_POS]


class DependencyBank(tuple):
    """The graphs of a bank in bank order: a read-only sequence.

    `load_depbank` and `pipeline.build_bank` return one. Like `tuple()`,
    `DependencyBank(bank)` gives back `bank` itself when it already is one,
    so its index is kept.

    `postings` is an inverted index over the graphs' known-label
    dependencies, built on first use: (label, prep, word of arg 0, word of
    arg 1) -> ascending bank positions, where a word is the argument
    token's lemma or one of its alternates. A graph changed after the index
    is built is not seen by it.
    """

    def __new__(cls, graphs=()):
        if type(graphs) is cls:
            return graphs
        return super().__new__(cls, graphs)

    @cached_property
    def postings(self) -> dict:
        return _dependency_postings(self)

    def sharing(self, qgraph: DependencyGraph) -> list:
        """Ascending positions of the graphs holding a dependency that one of
        `qgraph`'s dependencies matches.

        Lossless for `qaengine.dep_match`: a question dependency matches a
        sentence dependency exactly when its (label, prep, lemma of arg 0,
        lemma of arg 1) is one of the sentence dependency's keys.
        """
        postings = self.postings
        hits = set()
        for dep in qgraph.deps:
            key = (dep.label, dep.prep, *(qgraph.tokens[i].lemma for i in dep.args))
            hits.update(postings.get(key, ()))
        return sorted(hits)


def _dependency_postings(graphs) -> dict:
    postings = {}
    for position, graph in enumerate(graphs):
        tokens = graph.tokens
        for dep in graph.deps:
            if dep.label not in KNOWN_LABELS:
                continue
            head, dependent = tokens[dep.args[0]], tokens[dep.args[1]]
            for x in (head.lemma, *head.alternates):
                for y in (dependent.lemma, *dependent.alternates):
                    bucket = postings.setdefault((dep.label, dep.prep, x, y), [])
                    if not bucket or bucket[-1] != position:
                        bucket.append(position)
    return postings


def copy_graph(graph: DependencyGraph) -> DependencyGraph:
    tokens = [
        TokenNode(t.index, t.surface, t.lemma, t.pos, dict(t.features),
                  t.sense_id, set(t.alternates))
        for t in graph.tokens
    ]
    return DependencyGraph(graph.sentence_id, graph.text, tokens, list(graph.deps))


def dep_signature(graph: DependencyGraph, dep: Dependency, with_provenance: bool = True):
    """Lemma-level view of a dependency, the unit of graph comparison."""
    lemmas = tuple(graph.tokens[i].lemma for i in dep.args)
    head = (dep.label, lemmas, dep.prep)
    return head + ((dep.provenance,) if with_provenance else ())


def graph_equal(a: DependencyGraph, b: DependencyGraph, ignore_provenance: bool = False) -> bool:
    """Structural equality at lemma level; token order does not matter."""
    keep = not ignore_provenance
    sig_a = {dep_signature(a, d, keep) for d in a.deps}
    sig_b = {dep_signature(b, d, keep) for d in b.deps}
    return sig_a == sig_b


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
_ELIDED = {"l'", "d'", "n'", "s'", "j'", "m'", "t'", "qu'"}
_CLITIC_RE = re.compile(r"^(.+?)(?:-t)?-(il|elle|ils|elles|on)$")
_FINITE = {"pres", "ps", "impf", "fut", "cond"}


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
        elif low in _DETS:
            items.append(_Item(surface, DET, lemma="le" if low == "l'" else low))
        elif low in _FUSED:
            items.append(_Item(surface, PREP, lemma=_FUSED[low]))
        elif low in _PREPS:
            items.append(_Item(surface, PREP, lemma="de" if low == "d'" else low))
        elif low in _PRONS:
            items.append(_Item(surface, PRON, lemma=low))
        elif low in _AUX_AVOIR:
            items.append(_Item(surface, _AUX, lemma="avoir"))
        elif low in _COPULA:
            items.append(_Item(surface, _AUX, lemma="être"))
        else:
            readings = tuple(lexicon.readings(surface))
            if readings:
                items.append(_Item(surface, "WORD", readings=readings))
            elif surface[0].isupper():
                items.append(_Item(surface, "PROPER", lemma=surface))
            else:
                raise UnknownTokenError(surface)
    return items


def _pos_of_tag(tags: str) -> str:
    head = tags.split(":", 1)[0]
    return {"V": VERB, "N": NOUN, "ADJ": ADJ, "ADV": ADV}.get(head, head)


def _reading(item, pos: str, subtags=None):
    for r in item.readings:
        parts = r.morph_tags.split(":")
        if _pos_of_tag(r.morph_tags) != pos:
            continue
        if subtags is None or (len(parts) > 1 and parts[1] in subtags):
            return r
    return None


def _has_finite_verb(item) -> bool:
    return item.kind == "WORD" and _reading(item, VERB, _FINITE) is not None


class _Parser:
    def __init__(self, items):
        self.items = items
        self.i = 0
        self.choices = {}
        self.deps = []

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else None

    def take(self):
        item = self.items[self.i]
        self.i += 1
        return item

    def fail(self, why: str):
        raise ToyParseError(f"unparsable: {why}")

    def choose(self, index: int, lemma: str, pos: str):
        self.choices[index] = (lemma, pos)

    def add(self, label, head, dependent, prep=None):
        self.deps.append((label, head, dependent, prep))

    # --- phrase level -----------------------------------------------------

    def np(self):
        """[DET] (NOUN [ADJ]* [PROPER] | PROPER); returns the head item index."""
        item = self.peek()
        if item is None:
            self.fail("expected a noun phrase")
        if item.kind == DET:
            self.take()
            item = self.peek()
        if item is None:
            self.fail("dangling determiner")
        if item.kind == "PROPER":
            head = self.i
            self.take()
            return head
        if item.kind == "WORD":
            noun = _reading(item, NOUN)
            if noun is None:
                self.fail(f"expected a noun, got {item.surface!r}")
            head = self.i
            self.choose(head, noun.lemma, NOUN)
            self.take()
            while True:
                nxt = self.peek()
                if nxt is None:
                    break
                if nxt.kind == "WORD" and _reading(nxt, ADJ) and not _has_finite_verb(nxt):
                    adj = _reading(nxt, ADJ)
                    self.choose(self.i, adj.lemma, ADJ)
                    self.add(MODIFIER, head, self.i)
                    self.take()
                elif nxt.kind == "PROPER":
                    self.add(ATTRIBUTE, head, self.i)
                    self.take()
                else:
                    break
            return head
        self.fail(f"expected a noun phrase at {item.surface!r}")

    def pp_chain(self, attach_de: int, attach_par: int):
        """(de NP | par NP)*; "de" attaches to the latest head, "par" to the top."""
        while True:
            item = self.peek()
            if item is None or item.kind != PREP:
                return
            if item.lemma == "de":
                self.take()
                inner = self.np()
                self.add(PREPPH, attach_de, inner, prep="de")
                attach_de = inner
            elif item.lemma == "par":
                self.take()
                inner = self.np()
                self.add(PREPPH, attach_par, inner, prep="par")
            else:
                return

    # --- sentence level ---------------------------------------------------

    def parse(self):
        if not self.items:
            self.fail("empty sentence")
        first = self.items[0]
        if (first.kind == PREP and first.lemma == "de"
                and len(self.items) > 1 and self.items[1].kind == DET
                and normalize(self.items[1].surface) in _QUEL):
            self.fronted_interrogative()
        elif first.kind == "WORD" and _reading(first, VERB, {"inf"}) and not _reading(first, NOUN):
            self.infinitive_fragment()
        else:
            self.clause_or_fragment()
        if self.i != len(self.items):
            leftover = self.items[self.i].surface
            self.fail(f"trailing material from {leftover!r}")
        return self.choices, self.deps

    def fronted_interrogative(self):
        """De quel N1 SUBJ est-il le N2 -> ATTRIBUTE(SUBJ, N2), PREPPH(N2, de, N1)."""
        self.take()  # de
        self.take()  # quel
        item = self.peek()
        if item is None or item.kind != "WORD" or _reading(item, NOUN) is None:
            self.fail("fronted interrogative needs a noun after 'quel'")
        fronted = self.i
        self.choose(fronted, _reading(item, NOUN).lemma, NOUN)
        self.take()
        subject = self.subject()
        cop = self.peek()
        if cop is None or cop.kind != _AUX or cop.lemma != "être":
            self.fail("fronted interrogative needs a copula")
        self.take()
        if self.peek() is not None and self.peek().kind == PRON:
            self.take()
        attribute = self.np()
        self.add(ATTRIBUTE, subject, attribute)
        self.add(PREPPH, attribute, fronted, prep="de")
        self.pp_chain(attach_de=attribute, attach_par=attribute)

    def infinitive_fragment(self):
        verb = self.i
        item = self.take()
        self.choose(verb, _reading(item, VERB, {"inf"}).lemma, VERB)
        obj = self.np()
        self.add(DIROBJ, verb, obj)
        self.pp_chain(attach_de=obj, attach_par=verb)

    def subject(self) -> int:
        item = self.peek()
        if item is None:
            self.fail("expected a subject")
        if item.kind == PRON:
            head = self.i
            self.take()
            return head
        return self.np()

    def clause_or_fragment(self):
        subject = self.subject()
        self.pp_chain(attach_de=subject, attach_par=subject)
        item = self.peek()
        if item is None:
            return  # bare noun phrase fragment
        if item.kind == _AUX and item.lemma == "avoir":
            self.take()
            part = self.peek()
            if part is None or part.kind != "WORD" or _reading(part, VERB, {"pp"}) is None:
                self.fail("avoir needs a past participle")
            verb = self.i
            self.choose(verb, _reading(part, VERB, {"pp"}).lemma, VERB)
            self.take()
            self.verb_complements(verb, subject)
        elif item.kind == _AUX and item.lemma == "être":
            self.take()
            if self.peek() is not None and self.peek().kind == PRON:
                self.take()
            attribute = self.np()
            self.add(ATTRIBUTE, subject, attribute)
            self.pp_chain(attach_de=attribute, attach_par=attribute)
        elif item.kind == "WORD" and _has_finite_verb(item):
            verb = self.i
            self.choose(verb, _reading(item, VERB, _FINITE).lemma, VERB)
            self.take()
            if self.peek() is not None and self.peek().kind == PRON:
                self.take()  # inversion clitic echoes the subject
            self.verb_complements(verb, subject)
        else:
            self.fail(f"expected a verb, got {item.surface!r}")

    def verb_complements(self, verb: int, subject: int):
        self.add(SUBJECT, verb, subject)
        item = self.peek()
        if item is None:
            return
        if item.kind == PREP and item.lemma in ("à", "de"):
            self.take()  # case marker of an indirect object, normalized away
        if self.peek() is None:
            self.fail("dangling preposition")
        obj = self.np()
        self.add(DIROBJ, verb, obj)
        self.pp_chain(attach_de=obj, attach_par=obj)


def toy_parse(sentence: str, lexicon, sentence_id: str = "s0") -> DependencyGraph:
    """Parse one sentence of the restricted grammar into a dependency graph.

    Raises ToyParseError (or UnknownTokenError) instead of guessing: an
    unparsable sentence must never contribute a wrong graph to the bank.
    """
    pieces = _tokenize(sentence)
    items = _classify(pieces, lexicon)
    parser = _Parser(items)
    choices, raw_deps = parser.parse()

    tokens = []
    for idx, item in enumerate(items):
        if idx in choices:
            lemma, pos = choices[idx]
            features = {}
        elif item.kind == "WORD":
            # A content word the grammar never attached anywhere.
            raise ToyParseError(f"unparsable: unattached word {item.surface!r}")
        elif item.kind == "PROPER":
            lemma, pos, features = item.lemma, NOUN, {"proper": "true"}
        else:
            pos = OTHER if item.kind == _AUX else item.kind
            lemma, features = item.lemma, {}
        tokens.append(TokenNode(idx, item.surface, lemma, pos, features))

    graph = DependencyGraph(sentence_id, sentence, tokens)
    for label, head, dependent, prep in raw_deps:
        graph.add_dep(Dependency(label, (head, dependent), prep=prep))
    return graph


# ---------------------------------------------------------------------------
# Bank serialization (JSON lines)
# ---------------------------------------------------------------------------

def save_depbank(graphs, path):
    """Write one JSON object per graph, with stable field ordering."""
    lines = []
    for g in graphs:
        record = {
            "id": g.sentence_id,
            "text": g.text,
            "tokens": [
                {
                    "i": t.index,
                    "surface": t.surface,
                    "lemma": t.lemma,
                    "pos": t.pos,
                    "features": {k: t.features[k] for k in sorted(t.features)},
                    "sense": t.sense_id,
                    "alternates": sorted(t.alternates),
                }
                for t in g.tokens
            ],
            "deps": [
                {
                    "label": d.label,
                    "args": list(d.args),
                    "prep": d.prep,
                    "provenance": d.provenance,
                }
                for d in g.deps
            ],
        }
        lines.append(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_depbank(path) -> DependencyBank:
    graphs = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DepbankError(f"{path}:{lineno}: not valid JSON: {exc}")
        graphs.append(_graph_from_record(record, f"{path}:{lineno}"))
    return DependencyBank(graphs)


def _graph_from_record(record, where: str) -> DependencyGraph:
    try:
        sentence_id = record["id"]
        text = record["text"]
        raw_tokens = record["tokens"]
        raw_deps = record["deps"]
    except (KeyError, TypeError) as exc:
        raise DepbankError(f"{where}: missing field {exc}")
    rid = f"{where} (id={sentence_id!r})"
    if not isinstance(sentence_id, str) or not isinstance(text, str):
        raise DepbankError(f"{rid}: id and text must be strings")
    if not isinstance(raw_tokens, list) or not isinstance(raw_deps, list):
        raise DepbankError(f"{rid}: tokens and deps must be lists")
    tokens = []
    for pos_expected, raw in enumerate(raw_tokens):
        try:
            if raw["i"] != pos_expected:
                raise DepbankError(f"{rid}: token indices must be contiguous from 0")
            surface, lemma, pos = raw["surface"], raw["lemma"], raw["pos"]
            features = raw.get("features") or {}
            sense = raw.get("sense")
            alternates = raw.get("alternates") or []
        except (KeyError, TypeError) as exc:
            raise DepbankError(f"{rid}: bad token record: {exc}")
        if not (isinstance(surface, str) and isinstance(lemma, str) and isinstance(pos, str)):
            raise DepbankError(f"{rid}: token {pos_expected}: surface, lemma and pos "
                               "must be strings")
        if not isinstance(features, dict):
            raise DepbankError(f"{rid}: token {pos_expected}: features must be an object")
        if sense is not None and (not isinstance(sense, int) or isinstance(sense, bool)):
            raise DepbankError(f"{rid}: token {pos_expected}: sense must be an integer or null")
        if not isinstance(alternates, list) or not all(isinstance(a, str) for a in alternates):
            raise DepbankError(f"{rid}: token {pos_expected}: alternates must be a list "
                               "of strings")
        tokens.append(TokenNode(pos_expected, surface, lemma, pos, dict(features),
                                sense, set(alternates)))
    graph = DependencyGraph(sentence_id, text, tokens)
    for raw in raw_deps:
        try:
            dep = Dependency(
                label=raw["label"],
                args=tuple(raw["args"]),
                prep=raw.get("prep"),
                provenance=raw.get("provenance", BASE),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DepbankError(f"{rid}: bad dependency record: {exc}")
        if not isinstance(dep.label, str) or not (dep.prep is None or isinstance(dep.prep, str)):
            raise DepbankError(f"{rid}: dependency label and prep must be strings")
        if any(not isinstance(i, int) or not 0 <= i < len(tokens) for i in dep.args):
            raise DepbankError(f"{rid}: dependency args out of range: {dep.args}")
        if dep not in graph.deps:
            graph.deps.append(dep)
    return graph
