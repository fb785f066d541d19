"""Question answering over dependency banks.

Two retrieval strategies share one candidate type. The structural engine
(`answer`) scores a sentence by how large a one-to-one matching exists
between the question's dependencies and the sentence's, where a dependency
pair matches label-wise and argument-wise (a question lemma may also hit a
sentence token's alternates); the bank's dependency index names the
matching pairs. The bag engine (`answer_baseline`) ignores structure and
ranks sentences by shared significant lemmas.
"""

import heapq
import logging
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .depgraph import (
    DependencyBank,
    DependencyGraph,
    ToyParseError,
    _significant_lemmas,
    toy_parse,
)
from .lexica import LexiconError, _read_rows, _write_lines

log = logging.getLogger(__name__)


class QuestionError(ValueError):
    """A question could not be turned into a dependency structure."""


@dataclass
class QuestionStructure:
    question_id: str
    text: str
    graph: DependencyGraph


def parse_question(question_id: str, text: str, lexicon) -> QuestionStructure:
    """Analyze a question; raise QuestionError if no structure comes out."""
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


def _try_assign(edges: list, owner: dict, qi: int, visited: set) -> bool:
    """Give question dependency `qi` a sentence dependency not in `visited`,
    moving earlier owners along an augmenting path; `owner` maps each taken
    sentence dependency to its question dependency."""
    for ti in edges[qi]:
        if ti in visited:
            continue
        visited.add(ti)
        if ti not in owner or _try_assign(edges, owner, owner[ti], visited):
            owner[ti] = qi
            return True
    return False


def _max_matching(edges: list) -> list:
    """Largest one-to-one pairing of question deps onto sentence deps.

    `edges[qi]` lists the sentence dependencies question dependency `qi`
    matches. Kuhn's augmenting-path algorithm; the left side is the
    question. Returns the matched (question index, sentence index) pairs.
    """
    owner = {}
    for qi in range(len(edges)):
        _try_assign(edges, owner, qi, set())
    return sorted((qi, ti) for ti, qi in owner.items())


def answer(question: QuestionStructure, bank: DependencyBank, k: int = 5,
           require_full_match: bool = False) -> list:
    """Rank bank sentences by dependency coverage of the question.

    Coverage is the matched fraction of the question's dependencies.
    Sentences with zero coverage are not candidates. Ties keep bank order.
    The bank's dependency index names, per graph, the sentence dependencies
    each question dependency matches (`DependencyBank.match_edges`); only
    the graphs it names are matched, and they are ranked by matching size.
    Only the k returned become candidates.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    total = len(question.graph.deps)
    if total == 0:
        return []
    scored = []
    for position, edges in bank.match_edges(question.graph).items():
        pairs = _max_matching(edges)
        if require_full_match and len(pairs) != total:
            continue
        scored.append((-len(pairs), position, pairs))
    candidates = []
    for _, position, pairs in heapq.nsmallest(k, scored):
        graph = bank[position]
        candidates.append(AnswerCandidate(graph.sentence_id, Fraction(len(pairs), total),
                                          pairs, graph.text))
    return candidates


def build_bag_index(bank: DependencyBank) -> DependencyBank:
    """`bank` itself, with its bag index built."""
    bank.bag_index  # built on first use, then kept by the bank
    return bank


def answer_baseline(question: QuestionStructure, bank: DependencyBank, k: int = 5) -> list:
    """Rank bank sentences by count of shared significant lemmas.

    Sentences sharing none are not candidates. Ties keep bank order. The
    bank's bag index counts each sentence's shared lemmas: a position
    appears once in a lemma's postings, so its count over the question's
    lemmas is the size of the intersection. Only the k returned become
    candidates.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    q_bag = _significant_lemmas(question.graph)
    if not q_bag:
        return []
    postings = bank.bag_index
    counts = Counter()
    for lemma in q_bag:
        counts.update(postings.get(lemma, ()))
    # most shared lemmas first; the sort is stable, so ties keep bank order
    best = sorted(counts)
    best.sort(key=counts.__getitem__, reverse=True)
    candidates = []
    for position in best[:k]:
        graph = bank[position]
        shared = sorted(q_bag & _significant_lemmas(graph))
        candidates.append(AnswerCandidate(graph.sentence_id, Fraction(len(shared), len(q_bag)),
                                          shared, graph.text))
    return candidates


def answer_for_mode(question: QuestionStructure, bank: DependencyBank, mode: str, k: int,
                    require_full_match: bool) -> list:
    """The bag engine's answers in `baseline` mode, the structural engine's
    in every other mode."""
    if mode == "baseline":
        return answer_baseline(question, bank, k=k)
    return answer(question, bank, k=k, require_full_match=require_full_match)


def _reciprocal_rank(rank: int | None) -> Fraction:
    return Fraction(0) if rank is None else Fraction(1, rank)


@dataclass
class EvalReport:
    """Reciprocal-rank evaluation of one mode over a question set."""

    mode: str
    ranks: dict = field(default_factory=dict)  # qid -> rank of the first gold, or None
    no_answer_count: int = 0
    wrong_only_count: int = 0

    @property
    def mean_score(self) -> Fraction:
        """Mean reciprocal rank over the questions, 0 when there are none."""
        rrs = [_reciprocal_rank(rank) for rank in self.ranks.values()]
        return sum(rrs, Fraction(0)) / len(rrs) if rrs else Fraction(0)


def score_candidates(candidates, gold) -> int | None:
    """Rank of the first gold candidate, None if absent."""
    for position, candidate in enumerate(candidates, start=1):
        if candidate.sentence_id in gold:
            return position
    return None


def evaluate(questions, bank: DependencyBank, mode: str, k: int = 5,
             require_full_match: bool = False) -> EvalReport:
    """Score a list of (QuestionStructure, gold id frozenset) pairs.

    `bank` must be enriched as the mode requires before the call; this
    function only picks the engine, through `answer_for_mode`. Question ids
    must be unique, and gold ids must name sentences present in the bank.
    """
    known_ids = {g.sentence_id for g in bank}
    report = EvalReport(mode=mode)
    for question, gold in questions:
        unknown = gold - known_ids
        if unknown:
            raise ValueError(
                f"{question.question_id}: gold ids not in bank: {sorted(unknown)}")
        candidates = answer_for_mode(question, bank, mode, k, require_full_match)
        rank = score_candidates(candidates, gold)
        report.ranks[question.question_id] = rank
        if not candidates:
            report.no_answer_count += 1
        elif rank is None:
            report.wrong_only_count += 1
    return report


def load_questions(path) -> list:
    """Read a question file: id, text, comma-separated gold sentence ids."""
    questions = []
    seen = set()
    for lineno, row in _read_rows(path, 3):
        qid, text, gold = (c.strip() for c in row)
        if qid in seen:
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
    lines = [
        "\t".join([qid, "-" if rank is None else str(rank), str(_reciprocal_rank(rank))])
        for qid, rank in report.ranks.items()
    ]
    lines.append("\t".join([
        report.mode,
        repr(float(report.mean_score)),
        str(report.no_answer_count),
    ]))
    _write_lines(path, lines)
