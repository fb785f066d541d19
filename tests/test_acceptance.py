"""End-to-end acceptance checks.

Each test function covers one gate for the whole pipeline; `pytest -v`
therefore prints exactly one pass/fail line per gate. Expected values are
frozen: any behavior drift must fail here before anywhere else.
"""

import random
import time
from fractions import Fraction

from conftest import FIXTURES, make_graph

import oracles
from oracles import dep_signature
from derivqa import pipeline, qaengine
from derivqa.depgraph import (
    ATTRIBUTE,
    BASE,
    DERIVATIONAL,
    DIROBJ,
    MODIFIER,
    PREPPH,
    SUBJECT,
    Dependency,
    DependencyBank,
    DependencyGraph,
    TokenNode,
    copy_graph,
    toy_parse,
)
from derivqa.derivfilter import (
    DerivationalResource,
    audit_precision,
    filter_by_instructions,
)
from derivqa.lexica import (
    ADJ,
    NOUN,
    VERB,
    Dictionary,
    SenseRecord,
    load_code_table,
    parse_derivation_codes,
    senses_by_lemma,
)
from derivqa.morphogen import CandidateDerivative, attested_candidates
from derivqa.qaengine import QuestionStructure, answer, evaluate
from derivqa.rephrase import apply_pattern, enrich, match_pattern
from derivqa.wsd import disambiguate


# -- 1: over-generation plus corpus and instruction filters, single family --

def test_filter_accepts_exactly_the_attested_licensed_family(couper_family_resources,
                                                            couper_family_filter_inputs):
    res = couper_family_resources
    corpus_lexicon, euphonics = couper_family_filter_inputs
    senses = senses_by_lemma(res.dictionary)["couper"]

    start = time.monotonic()
    _, attested = attested_candidates("couper", res.model, euphonics, corpus_lexicon)
    records = filter_by_instructions(attested, senses)
    elapsed = time.monotonic() - start

    attested_surfaces = {c.surface for c in attested}
    accepted = {r.surface for r in records}
    assert accepted == {"coupure", "coupage", "coupant", "coupeur", "coupé"}
    assert attested_surfaces - accepted == {"coup", "coupable", "coupon"}
    assert elapsed < 1.0


# -- 2: sense-conditional licensing ------------------------------------------

def test_sense_conditional_licensing_of_derivatives(benchmark_resources):
    resource = benchmark_resources.resource
    records = resource.records_for("formaliser")
    by_surface = {r.surface: r for r in records}
    assert set(by_surface) == {"formalisation", "formalisé"}
    assert by_surface["formalisation"].licensed_senses == frozenset({2})
    assert by_surface["formalisé"].licensed_senses == frozenset({2})

    sense1 = resource.records_for("formaliser", 1)
    sense2 = resource.records_for("formaliser", 2)
    assert sense1 == []
    assert {r.surface for r in sense2} == {"formalisation", "formalisé"}


# -- 3: the derivation step answers what synonyms alone cannot ----------------

def test_derivational_rephrasing_rescues_the_synonym_only_failure():
    config = pipeline.load_config(FIXTURES / "rescue" / "config.json")
    res = pipeline.load_resources(config)
    rows = qaengine.load_questions(config.questions)
    questions = pipeline.parse_questions(res, rows)
    assert len(questions) == 1
    (question, gold) = questions[0]
    assert gold == frozenset({"s06"})

    deriv_bank = pipeline.build_bank(res, "deriv")
    assert len(deriv_bank) >= 5  # the key sentence plus at least 4 distractors
    assert sum(1 for g in deriv_bank if g.sentence_id not in gold) >= 4
    deriv_report = evaluate([(question, gold)], deriv_bank, "deriv", k=config.k)
    assert deriv_report.ranks[question.question_id] == 1
    assert deriv_report.mean_score == Fraction(1)

    base_bank = pipeline.build_bank(res, "base")
    base_candidates = answer(question, base_bank, k=config.k)
    assert base_candidates == []
    base_report = evaluate([(question, gold)], base_bank, "base", k=config.k)
    assert base_report.no_answer_count == 1
    assert base_report.ranks[question.question_id] is None
    assert base_report.mean_score == Fraction(0)


# -- 4: reciprocal-rank arithmetic on a hand-built run ------------------------

def test_reciprocal_rank_mean_arithmetic():
    bank = DependencyBank([
        make_graph("t1",
                   [("va", VERB), ("homme", NOUN), ("roi", NOUN),
                    ("voit", VERB), ("chat", NOUN)],
                   [(SUBJECT, 0, 1), (ATTRIBUTE, 1, 2), (DIROBJ, 3, 4)]),
        make_graph("t2",
                   [("va", VERB), ("homme", NOUN), ("voit", VERB), ("chat", NOUN)],
                   [(SUBJECT, 0, 1), (DIROBJ, 2, 3)]),
        make_graph("t3", [("va", VERB), ("homme", NOUN)], [(SUBJECT, 0, 1)]),
        make_graph("t4", [("va", VERB), ("homme", NOUN)], [(SUBJECT, 0, 1)]),
        make_graph("t5", [("va", VERB), ("homme", NOUN)], [(SUBJECT, 0, 1)]),
    ])

    def question(qid, tokens, deps):
        return QuestionStructure(qid, qid, make_graph(qid, tokens, deps))

    questions = [
        (question("q1", [("homme", NOUN), ("roi", NOUN)], [(ATTRIBUTE, 0, 1)]),
         frozenset({"t1"})),
        (question("q2", [("voit", VERB), ("chat", NOUN)], [(DIROBJ, 0, 1)]),
         frozenset({"t2"})),
        (question("q3", [("chien", NOUN), ("noir", ADJ)], [(MODIFIER, 0, 1)]),
         frozenset({"t1"})),
        (question("q4",
                  [("va", VERB), ("homme", NOUN), ("mange", VERB), ("pain", NOUN)],
                  [(SUBJECT, 0, 1), (DIROBJ, 2, 3)]),
         frozenset({"t5"})),
    ]
    report = evaluate(questions, bank, mode="deriv", k=5)
    assert report.ranks == {"q1": 1, "q2": 2, "q3": None, "q4": 5}
    assert report.mean_score == Fraction(17, 40)
    assert float(report.mean_score) == 0.425


# -- 5: the enrichment ladder improves scores and coverage --------------------

def test_enrichment_ladder_improves_scores_and_coverage():
    start = time.monotonic()
    config = pipeline.load_config(FIXTURES / "benchmark" / "config.json")
    res = pipeline.load_resources(config)
    sentences = pipeline.load_sentences(config.sentences)
    rows = qaengine.load_questions(config.questions)
    questions = pipeline.parse_questions(res, rows)
    assert len(questions) >= 20
    assert len(sentences) >= 50

    reports = {}
    for mode in pipeline.MODES:
        bank = pipeline.build_bank(res, mode, sentences=sentences)
        assert len(bank) == len(sentences)
        reports[mode] = evaluate(questions, bank, mode, k=config.k)
    elapsed = time.monotonic() - start

    means = [reports[mode].mean_score for mode in pipeline.MODES]
    no_answer = [reports[mode].no_answer_count for mode in pipeline.MODES]

    assert means == [Fraction(47, 264), Fraction(9, 22), Fraction(19, 22), Fraction(1)]
    assert no_answer == [14, 13, 3, 0]
    assert means[0] <= means[1] <= means[2] <= means[3]
    assert means[0] < means[3]
    assert no_answer[0] >= no_answer[1] >= no_answer[2] >= no_answer[3]
    assert elapsed < 10.0


# -- 6: every pattern reproduces its hand rephrasings -------------------------

def _load_pattern_suite():
    rows = []
    text = (FIXTURES / "pattern_suite.tsv").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        pattern_id, sentence, rephrase = line.split("\t")
        rows.append((pattern_id, sentence, rephrase))
    return rows


def test_every_pattern_reproduces_its_hand_rephrasings(benchmark_resources):
    res = benchmark_resources
    by_id = {p.pattern_id: p for p in res.patterns}
    suite = _load_pattern_suite()

    counts = {}
    failures = []
    for pattern_id, sentence, rephrase in suite:
        counts[pattern_id] = counts.get(pattern_id, 0) + 1
        pattern = by_id[pattern_id]

        graph = toy_parse(sentence, res.lexicon)
        disambiguate(graph, res.compilation, res.dictionary)
        matches = []
        for pivot in range(len(graph.tokens)):
            matches.extend(match_pattern(graph, pattern, pivot, res.resource,
                                         res.dictionary, use_alternates=False))
        enriched = copy_graph(graph)
        for match in matches:
            apply_pattern(enriched, match)
        produced = {
            dep_signature(enriched, d, with_provenance=False)
            for d in enriched.deps if d.provenance == DERIVATIONAL
        }

        derivatives = {m.derivative.surface for m in matches}
        target = toy_parse(rephrase, res.lexicon)
        expected = {
            dep_signature(target, d, with_provenance=False)
            for d in target.deps
            if any(target.tokens[i].lemma in derivatives for i in d.args)
        }
        if not matches or produced != expected:
            failures.append((pattern_id, sentence, produced, expected))

    assert set(counts) == set(by_id), "every shipped pattern needs suite rows"
    assert all(n >= 2 for n in counts.values()), counts
    assert failures == []


# -- 7: filter soundness against a brute-force oracle, audit arithmetic -------

SUFFIX_POOL = ["ure", "age", "eur", "ant", "é", "able", "ment", "ation", "er",
               "on", "a", ""]


def test_filter_matches_oracle_on_random_pairs_and_audit_counts(benchmark_resources):
    code_table = load_code_table(pipeline.packaged_data("code_table.tsv"))
    letters = sorted(code_table)
    rng = random.Random(20260819)
    pairs = 0
    for _ in range(100):
        senses = []
        for sense_id in range(1, rng.randint(2, 5)):
            chosen = rng.sample(letters, rng.randint(0, len(letters)))
            senses.append(SenseRecord(
                lemma="couper", sense_id=sense_id, pos=VERB,
                instructions=tuple(parse_derivation_codes("-".join(chosen), code_table))))
        candidates = []
        for _ in range(10):
            suffix = rng.choice(SUFFIX_POOL)
            stem = rng.choice(["coup", "coupe", "tranch"])
            candidates.append(CandidateDerivative("couper", suffix, stem + suffix))
        pairs += len(candidates)

        records = filter_by_instructions(candidates, senses)
        got = {}
        for r in records:
            got.setdefault(r.surface, set()).update(r.licensed_senses)
        expected = oracles.instruction_filter(candidates, senses)
        assert got == {surface: set(ids) for surface, ids in expected.items()}
        assert all(r.suffix for r in records)  # bare stems never pass
    assert pairs >= 1000

    sub_resource = DerivationalResource(by_lemma={
        lemma: list(benchmark_resources.resource.records_for(lemma))
        for lemma in ("couper", "compartiment", "balayer", "blesser", "glisser")
    })
    records = sub_resource.all_records()
    assert len(records) == 10
    gold = {r.surface: r.surface != "compartiable" for r in records}
    assert sum(1 for v in gold.values() if not v) == 1
    precision = audit_precision(sub_resource, 10, gold, seed=17)
    assert precision == Fraction(9, 10)
    assert float(precision) == 0.9


# -- 8: matcher and ranking agree with exhaustive oracles ---------------------

GRAB_BAG = ["couper", "laver", "courant", "linge", "ouvrier", "domestique",
            "coupure", "lavage", "empereur", "rapide", "glisser", "trancher"]
GRAB_POS = [NOUN, VERB, ADJ]
GRAB_LABELS = [SUBJECT, DIROBJ, ATTRIBUTE, MODIFIER]


def _random_graph(rng, name, max_tokens=8, max_deps=6, with_alternates=False):
    n = rng.randint(1, max_tokens)
    tokens = []
    for i in range(n):
        lemma = rng.choice(GRAB_BAG)
        alternates = frozenset()
        if with_alternates and rng.random() < 0.4:
            alternates = frozenset({rng.choice(GRAB_BAG)} - {lemma})
        tokens.append(TokenNode(i, lemma, lemma, rng.choice(GRAB_POS),
                                alternates=alternates))
    graph = DependencyGraph(name, name, tokens)
    for _ in range(rng.randint(0, max_deps)):
        head, dependent = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.3:
            dep = Dependency(PREPPH, (head, dependent), prep=rng.choice(["de", "par"]))
        else:
            dep = Dependency(rng.choice(GRAB_LABELS), (head, dependent))
        if dep not in graph.deps:
            graph.deps.append(dep)
    return graph


def test_matcher_and_answer_match_exhaustive_oracles(benchmark_resources):
    res = benchmark_resources
    rng = random.Random(99173)
    cases = 500
    for case in range(cases):
        graph = _random_graph(rng, f"g{case}", with_alternates=True)
        base = [d for d in graph.deps if d.provenance == BASE]

        # pattern matcher vs exhaustive binding enumeration
        pattern = rng.choice(res.patterns)
        for pivot in range(len(graph.tokens)):
            token = graph.tokens[pivot]
            matches = match_pattern(graph, pattern, pivot, res.resource, Dictionary())
            got = {frozenset(m.bindings.items()) for m in matches}
            expected = oracles.enumerate_bindings(pattern, base, pivot)
            eligible = [
                r for r in res.resource.records_for(token.lemma)
                if r.target_pos == pattern.deriv_pos
                and r.suffix == pattern.deriv_suffix
            ]
            if token.pos != pattern.pivot_pos or not eligible:
                assert got == set()
            else:
                assert got == expected

        # ranking coverage vs exhaustive one-to-one pairing
        question = QuestionStructure("q", "q", _random_graph(rng, f"q{case}",
                                                             max_tokens=5,
                                                             max_deps=4))
        best = oracles.max_coverage_pairs(question.graph, graph, oracles.dep_match)
        candidates = answer(question, DependencyBank([graph]), k=1) if question.graph.deps else []
        if not question.graph.deps or best == 0:
            assert candidates == []
        else:
            assert candidates[0].coverage == Fraction(best, len(question.graph.deps))
            assert candidates == oracles.plain_answer(question, [graph], k=1)

        # enrichment additivity: deps grow, coverage never shrinks
        enriched = enrich(graph, res.synonyms, res.patterns, res.resource,
                          res.dictionary, compose=True)
        assert set(graph.deps) <= set(enriched.deps)
        assert [t.lemma for t in enriched.tokens[:len(graph.tokens)]] == \
            [t.lemma for t in graph.tokens]
        if question.graph.deps:
            before = answer(question, DependencyBank([graph]), k=1)
            after = answer(question, DependencyBank([enriched]), k=1)
            cov_before = before[0].coverage if before else Fraction(0)
            cov_after = after[0].coverage if after else Fraction(0)
            assert cov_after >= cov_before
