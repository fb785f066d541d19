"""Question answering over dependency banks.

Two retrieval strategies share one candidate type. The structural engine
(`answer`) scores a sentence by how large a one-to-one matching exists
between the question's dependencies and the sentence's, where a dependency
pair matches label-wise and argument-wise (a question lemma may also hit a
sentence token's alternates). The bag engine (`answer_baseline`) ignores
structure and ranks sentences by shared significant lemmas.
"""

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .depgraph import (
    KNOWN_LABELS,
    DependencyBank,
    DependencyGraph,
    ToyParseError,
)
from .lexica import CONTENT_POS, _read_rows, _write_lines

log = logging.getLogger(__name__)


class QuestionError(ValueError):
    """A question could not be turned into a dependency structure."""


@dataclass
class QuestionStructure:
    question_id: str
    text: str
    graph: DependencyGraph

    @property
    def deps(self):
        return self.graph.deps


def parse_question(question_id: str, text: str, lexicon) -> QuestionStructure:
    """Analyze a question; raise QuestionError if no structure comes out."""
    from .depgraph import toy_parse

    try:
        graph = toy_parse(text, lexicon, sentence_id=question_id)
    except ToyParseError as exc:
        raise QuestionError(f"{question_id}: unanalyzable question: {exc}") from exc
    if not graph.deps:
        raise QuestionError(f"{question_id}: unanalyzable question: no dependencies")
    return QuestionStructure(question_id, text, graph)


@dataclass
class AnswerCandidate:
    """A retrieved sentence with its score and supporting evidence.

    `matched` holds (question dep index, sentence dep index) pairs for the
    structural engine, shared lemmas for the bag engine.
    """

    sentence_id: str
    coverage: Fraction
    matched: list = field(default_factory=list)
    text: str = ""


def _arg_matches(q_token, t_token) -> bool:
    return q_token.lemma == t_token.lemma or q_token.lemma in t_token.alternates


def dep_match(qgraph: DependencyGraph, qdep, tgraph: DependencyGraph, tdep) -> bool:
    """Whether a question dependency is satisfied by a sentence dependency.

    Labels must be equal and known; prepositions must agree literally;
    each question argument must equal the sentence argument's lemma or
    appear among its alternates. Provenance plays no role.
    `DependencyBank.sharing` finds candidates by these same rules, so a
    change here must be made there too.
    """
    if qdep.label != tdep.label or qdep.label not in KNOWN_LABELS:
        return False
    if qdep.prep != tdep.prep:
        return False
    if len(qdep.args) != len(tdep.args):
        return False
    return all(
        _arg_matches(qgraph.tokens[qi], tgraph.tokens[ti])
        for qi, ti in zip(qdep.args, tdep.args)
    )


def _max_matching(qgraph: DependencyGraph, tgraph: DependencyGraph) -> list:
    """Largest one-to-one pairing of question deps onto sentence deps.

    Kuhn's augmenting-path algorithm; the left side is the question.
    Returns the matched (question index, sentence index) pairs.
    """
    edges = [
        [ti for ti, tdep in enumerate(tgraph.deps)
         if dep_match(qgraph, qdep, tgraph, tdep)]
        for qdep in qgraph.deps
    ]
    owner = {}

    def try_assign(qi, visited) -> bool:
        for ti in edges[qi]:
            if ti in visited:
                continue
            visited.add(ti)
            if ti not in owner or try_assign(owner[ti], visited):
                owner[ti] = qi
                return True
        return False

    for qi in range(len(qgraph.deps)):
        try_assign(qi, set())
    return sorted((qi, ti) for ti, qi in owner.items())


def answer(question: QuestionStructure, bank, k: int = 5,
           require_full_match: bool = False) -> list:
    """Rank bank sentences by dependency coverage of the question.

    Coverage is the matched fraction of the question's dependencies.
    Sentences with zero coverage are not candidates. Ties keep bank order.
    Only the graphs the bank's dependency index finds sharing a dependency
    with the question are matched; any other sequence of graphs is wrapped
    in a `DependencyBank` first.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    total = len(question.deps)
    if total == 0:
        return []
    bank = DependencyBank(bank)
    scored = []
    for position in bank.sharing(question.graph):
        graph = bank[position]
        pairs = _max_matching(question.graph, graph)
        coverage = Fraction(len(pairs), total)
        if require_full_match and coverage != 1:
            continue
        scored.append((-coverage, position,
                       AnswerCandidate(graph.sentence_id, coverage, pairs, graph.text)))
    scored.sort(key=lambda item: item[:2])
    return [candidate for _, _, candidate in scored[:k]]


@dataclass
class BagIndex:
    """Lemma-bag view of a bank: per-sentence lemma sets plus postings."""

    bags: dict = field(default_factory=dict)        # sentence_id -> frozenset of lemmas
    postings: dict = field(default_factory=dict)    # lemma -> set of sentence_ids
    order: dict = field(default_factory=dict)       # sentence_id -> bank position
    texts: dict = field(default_factory=dict)       # sentence_id -> text


def _significant_lemmas(graph: DependencyGraph) -> frozenset:
    return frozenset(
        t.lemma for t in graph.tokens
        if t.pos in CONTENT_POS and not t.features.get("deriv_pattern")
    )


def build_bag_index(bank) -> BagIndex:
    index = BagIndex()
    for position, graph in enumerate(bank):
        bag = _significant_lemmas(graph)
        index.bags[graph.sentence_id] = bag
        index.order[graph.sentence_id] = position
        index.texts[graph.sentence_id] = graph.text
        for lemma in bag:
            index.postings.setdefault(lemma, set()).add(graph.sentence_id)
    return index


def answer_baseline(question: QuestionStructure, index: BagIndex, k: int = 5) -> list:
    """Rank sentences by count of shared significant lemmas."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    q_bag = _significant_lemmas(question.graph)
    if not q_bag:
        return []
    hits = set()
    for lemma in q_bag:
        hits |= index.postings.get(lemma, set())
    scored = []
    for sid in hits:
        shared = sorted(q_bag & index.bags[sid])
        scored.append((-len(shared), index.order[sid],
                       AnswerCandidate(sid, Fraction(len(shared), len(q_bag)),
                                       shared, index.texts[sid])))
    scored.sort(key=lambda item: item[:2])
    return [candidate for _, _, candidate in scored[:k]]


@dataclass
class EvalReport:
    """Reciprocal-rank evaluation of one mode over a question set."""

    mode: str
    per_question: dict = field(default_factory=dict)  # qid -> Fraction rr
    ranks: dict = field(default_factory=dict)         # qid -> int rank or None
    mean_score: Fraction = Fraction(0)
    no_answer_count: int = 0
    wrong_only_count: int = 0
    answered: int = 0


def score_candidates(candidates, gold) -> tuple:
    """(rank, rr) of the first gold candidate, (None, 0) if absent."""
    for position, candidate in enumerate(candidates, start=1):
        if candidate.sentence_id in gold:
            return position, Fraction(1, position)
    return None, Fraction(0)


def evaluate(questions, bank, mode: str, k: int = 5,
             require_full_match: bool = False, index: BagIndex = None) -> EvalReport:
    """Score a list of (QuestionStructure, gold id frozenset) pairs.

    `bank` must be enriched as the mode requires before the call; this
    function only switches between the bag engine (`baseline`) and the
    structural engine. Gold ids must name sentences present in the bank.
    """
    bank = DependencyBank(bank)
    known_ids = {g.sentence_id for g in bank}
    report = EvalReport(mode=mode)
    total = Fraction(0)
    for question, gold in questions:
        unknown = gold - known_ids
        if unknown:
            raise ValueError(
                f"{question.question_id}: gold ids not in bank: {sorted(unknown)}")
        if mode == "baseline":
            if index is None:
                index = build_bag_index(bank)
            candidates = answer_baseline(question, index, k=k)
        else:
            candidates = answer(question, bank, k=k,
                                require_full_match=require_full_match)
        rank, rr = score_candidates(candidates, gold)
        report.per_question[question.question_id] = rr
        report.ranks[question.question_id] = rank
        total += rr
        if not candidates:
            report.no_answer_count += 1
        elif rank is None:
            report.wrong_only_count += 1
        else:
            report.answered += 1
    if questions:
        report.mean_score = total / len(questions)
    return report


def load_questions(path) -> list:
    """Read a question file: id, text, comma-separated gold sentence ids."""
    questions = []
    seen = set()
    for lineno, row in _read_rows(path):
        if len(row) != 3:
            from .lexica import LexiconError
            raise LexiconError(path, lineno, f"expected 3 columns, got {len(row)}")
        qid, text, gold = (c.strip() for c in row)
        if qid in seen:
            from .lexica import LexiconError
            raise LexiconError(path, lineno, f"duplicate question id {qid!r}")
        seen.add(qid)
        ids = frozenset(g.strip() for g in gold.split(",") if g.strip())
        questions.append((qid, text, ids))
    return questions


def write_report(report: EvalReport, path) -> None:
    """Write per-question rows then a summary row.

    Row format: qid, rank of first correct ("-" when absent), reciprocal
    rank as an exact fraction string. Summary: mode, mean score as float,
    count of unanswered questions.
    """
    lines = []
    for qid in report.per_question:
        rank = report.ranks[qid]
        lines.append("\t".join([
            qid,
            "-" if rank is None else str(rank),
            str(report.per_question[qid]),
        ]))
    lines.append("\t".join([
        report.mode,
        repr(float(report.mean_score)),
        str(report.no_answer_count),
    ]))
    _write_lines(path, lines)
