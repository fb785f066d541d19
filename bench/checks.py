"""Correctness checks, computed apart from the program.

Each check takes the program's outputs (graphs, answer candidates, CLI
text, the derivational resource) and compares them with a computation made
here from the rules stated in README.md, or with the generator's manifest.
A check returns a list of failure messages; an empty list means it passed.

Graphs are read through their attributes only (`sentence_id`, `text`,
`tokens[i].lemma` / `.pos` / `.alternates` / `.features` / `.sense_id`,
`deps[j].label` / `.args` / `.prep` / `.provenance`), so the checks run on
the program's objects and on the small stand-ins of the tests alike.
"""

from fractions import Fraction
from itertools import permutations

MATCH_LABELS = frozenset({"SUBJECT", "DIROBJ", "ATTRIBUTE", "PREPPH", "MODIFIER"})
CONTENT_POS = frozenset({"NOUN", "VERB", "ADJ", "ADV"})
BASE, DERIVATIONAL = "BASE", "DERIVATIONAL"


# --- the matching rule ---------------------------------------------------------

def _word_matches(q_token, t_token, alternates=True):
    return q_token.lemma == t_token.lemma or (alternates and q_token.lemma in t_token.alternates)


def deps_match(qgraph, qdep, tgraph, tdep, alternates=True):
    """A question dependency is met by a sentence dependency when the labels
    are equal and known, the prepositions are equal, and every question word
    equals the sentence word's lemma or one of its alternates."""
    return (qdep.label == tdep.label and qdep.label in MATCH_LABELS
            and qdep.prep == tdep.prep and len(qdep.args) == len(tdep.args)
            and all(_word_matches(qgraph.tokens[a], tgraph.tokens[b], alternates)
                    for a, b in zip(qdep.args, tdep.args)))


def exhaustive_matching(qgraph, tgraph, alternates=True, derivational=True):
    """Size of the largest one-to-one pairing of question dependencies with
    sentence dependencies, by trying every assignment."""
    tdeps = [d for d in tgraph.deps if derivational or d.provenance != DERIVATIONAL]
    edges = [[j for j, tdep in enumerate(tdeps)
              if deps_match(qgraph, qdep, tgraph, tdep, alternates)]
             for qdep in qgraph.deps]
    useful = sorted({j for row in edges for j in row})
    best = 0
    # Every injective assignment of question deps to useful sentence deps or
    # to "unmatched" (None); questions have at most a handful of deps.
    slots = useful + [None] * len(edges)
    for choice in set(permutations(slots, len(edges))):
        size = sum(1 for qi, j in enumerate(choice) if j is not None and j in edges[qi])
        best = max(best, size)
    return best


def coverage(qgraph, tgraph, **kwargs):
    return Fraction(exhaustive_matching(qgraph, tgraph, **kwargs), len(qgraph.deps))


class DepIndex:
    """(label, prep, first word, second word) -> bank positions, where a word
    is a token's lemma or one of its alternates."""

    def __init__(self, bank):
        self.bank = bank
        self.postings = {}
        for position, graph in enumerate(bank):
            for dep in graph.deps:
                if dep.label not in MATCH_LABELS or len(dep.args) != 2:
                    continue
                a, b = (graph.tokens[i] for i in dep.args)
                for x in {a.lemma} | set(a.alternates):
                    for y in {b.lemma} | set(b.alternates):
                        self.postings.setdefault((dep.label, dep.prep, x, y), set()).add(position)

    def ranking(self, qgraph, k):
        """Top-k (sentence id, coverage) by coverage, then bank order."""
        hits = set()
        for dep in qgraph.deps:
            a, b = (qgraph.tokens[i].lemma for i in dep.args)
            hits |= self.postings.get((dep.label, dep.prep, a, b), set())
        scored = sorted((-coverage(qgraph, self.bank[p]), p) for p in hits)
        return [(self.bank[p].sentence_id, -neg) for neg, p in scored[:k]]


def significant_lemmas(graph):
    """Lemmas of content words, derivative tokens left out."""
    return {t.lemma for t in graph.tokens
            if t.pos in CONTENT_POS and not t.features.get("deriv_pattern")}


class BagIndex:
    """Significant-lemma sets of a bank, for the bag engine's ranking."""

    def __init__(self, bank):
        self.bank = bank
        self.bags = [significant_lemmas(g) for g in bank]

    def ranking(self, qgraph, k):
        """Top-k (sentence id, coverage) by shared significant lemmas, then bank order."""
        q_bag = significant_lemmas(qgraph)
        scored = []
        for position, bag in enumerate(self.bags):
            shared = len(q_bag & bag)
            if shared:
                scored.append((-shared, position))
        scored.sort()
        return [(self.bank[p].sentence_id, Fraction(-neg, len(q_bag))) for neg, p in scored[:k]]


# --- checks ----------------------------------------------------------------------

def check_answers(asked, bank, k, baseline):
    """`asked` maps question id -> (question record, question graph, candidates).

    The planted gold comes first with full coverage (structural engine) or
    with the most shared lemmas (bag engine); every coverage equals the
    exhaustive matching; the list equals the independent top-k ranking,
    which orders by coverage, then by bank order.
    """
    failures = []
    index = BagIndex(bank) if baseline else DepIndex(bank)
    for qid, (record, qgraph, candidates) in sorted(asked.items()):
        got = [(c.sentence_id, c.coverage) for c in candidates]
        want = index.ranking(qgraph, k)
        if got != want:
            failures.append(f"{qid}: ranking {got[:3]} differs from {want[:3]}")
            continue
        if not got or got[0][0] != record["gold"]:
            failures.append(f"{qid}: gold {record['gold']} not ranked first: {got[:2]}")
        elif not baseline and got[0][1] != 1:
            failures.append(f"{qid}: gold coverage {got[0][1]} is not full")
        elif len(got) > 1 and got[1][1] == got[0][1]:
            failures.append(f"{qid}: gold shares its score with {got[1][0]}")
    return failures


def check_planted_kinds(asked, bank):
    """A synonym question is not fully met without alternates, a derivation
    question not without DERIVATIONAL dependencies."""
    failures = []
    by_id = {g.sentence_id: g for g in bank}
    for qid, (record, qgraph, _) in sorted(asked.items()):
        gold = by_id[record["gold"]]
        if record["kind"].startswith("syn") and coverage(qgraph, gold, alternates=False) == 1:
            failures.append(f"{qid}: synonym question met without alternates")
        if record["kind"].startswith("deriv") and coverage(qgraph, gold, derivational=False) == 1:
            failures.append(f"{qid}: derivation question met without derivatives")
    return failures


def parse_cli_answer(text):
    """CLI `ask` output -> [(sentence id, coverage, text)]."""
    if text.strip() == "no answer":
        return []
    rows = []
    for rank, line in enumerate(text.splitlines(), start=1):
        head, sid, cov, sentence = line.split("\t", 3)
        if head != f"{rank}.":
            raise ValueError(f"bad rank column {head!r}")
        rows.append((sid, Fraction(cov), sentence))
    return rows


def check_cli(cli_outputs, asked):
    """Every CLI answer equals the in-process answer to the same question."""
    failures = []
    for qid, text in sorted(cli_outputs.items()):
        want = [(c.sentence_id, c.coverage, c.text) for c in asked[qid][2]]
        try:
            got = parse_cli_answer(text)
        except ValueError as exc:
            failures.append(f"{qid}: unreadable CLI output: {exc}")
            continue
        if got != want:
            failures.append(f"{qid}: CLI answered {got[:2]}, in process {want[:2]}")
    return failures


def check_resource(by_lemma, expected, decoys):
    """The resource holds exactly the generator's expected records, no decoy.

    `by_lemma` maps a lemma to records with `surface`, `target_pos`,
    `suffix` and `licensed_senses`; `expected` maps every synthetic lemma
    to [surface, pos, suffix, sorted sense ids] rows sorted by surface.
    """
    failures = []
    for lemma in sorted(set(by_lemma) - set(expected)):
        failures.append(f"{lemma}: records for a lemma the generator never made")
    for lemma, rows in sorted(expected.items()):
        got = [[r.surface, r.target_pos, r.suffix, sorted(r.licensed_senses)]
               for r in by_lemma.get(lemma, [])]
        if got != rows:
            failures.append(f"{lemma}: resource {got} != expected {rows}")
        surfaces = {row[0] for row in got}
        for decoy in decoys.get(lemma, []):
            if decoy in surfaces:
                failures.append(f"{lemma}: decoy {decoy} accepted")
    return failures


def check_derivative_tokens(bank, by_lemma):
    """Every derivative token names a record of the resource."""
    failures = []
    for graph in bank:
        for token in graph.tokens:
            if not token.features.get("deriv_pattern"):
                continue
            source = token.features.get("deriv_source")
            records = {(r.surface, r.target_pos) for r in by_lemma.get(source, [])}
            if (token.lemma, token.pos) not in records:
                failures.append(f"{graph.sentence_id}: derivative {token.lemma}/{token.pos} "
                                f"of {source} is not in the resource")
    return failures


def check_base_kept(parsed, bank):
    """Every dependency of the plain parse is in the enriched graph as BASE."""
    failures = []
    for base, graph in zip(parsed, bank):
        kept = {(d.label, tuple(d.args), d.prep) for d in graph.deps if d.provenance == BASE}
        for dep in base.deps:
            if (dep.label, tuple(dep.args), dep.prep) not in kept:
                failures.append(f"{graph.sentence_id}: BASE {dep.label}{tuple(dep.args)} lost")
    return failures


def graph_record(graph):
    return (graph.sentence_id, graph.text,
            [(t.index, t.surface, t.lemma, t.pos, dict(t.features), t.sense_id,
              set(t.alternates)) for t in graph.tokens],
            [(d.label, tuple(d.args), d.prep, d.provenance) for d in graph.deps])


def check_roundtrip(saved, loaded):
    """`load_depbank(save_depbank(bank))` gives back the same graphs."""
    if len(saved) != len(loaded):
        return [f"round trip: {len(saved)} graphs saved, {len(loaded)} loaded"]
    return [f"{a.sentence_id}: round trip changed the graph"
            for a, b in zip(saved, loaded) if graph_record(a) != graph_record(b)]


def check_bank_ids(bank, sentences):
    ids = [g.sentence_id for g in bank]
    want = [sid for sid, _ in sentences]
    return [] if ids == want else [f"bank holds {len(ids)} graphs, {len(want)} sentences given"]
