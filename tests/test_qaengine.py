from fractions import Fraction

import pytest

import oracles
from derivqa import depgraph, pipeline, qaengine
from derivqa.depgraph import (
    DERIVATIONAL,
    DIROBJ,
    PREPPH,
    SUBJECT,
    Dependency,
    DependencyBank,
    DependencyGraph,
    toy_parse,
)
from derivqa.lexica import LexiconError
from derivqa.qaengine import (
    AnswerCandidate,
    EvalReport,
    QuestionError,
    QuestionStructure,
    answer,
    answer_baseline,
    build_bag_index,
    evaluate,
    load_questions,
    parse_question,
    score_candidates,
    write_report,
)


@pytest.fixture(scope="module")
def res(benchmark_resources):
    return benchmark_resources


@pytest.fixture(scope="module")
def small_bank(res):
    texts = [
        ("s1", "l'ouvrier a coupé le courant ."),
        ("s2", "le domestique lave le linge ."),
        ("s3", "l'ouvrier surveilla le courant ."),
        ("s4", "l'ouvrier a coupé le linge ."),
    ]
    return DependencyBank(toy_parse(text, res.lexicon, sid) for sid, text in texts)


@pytest.fixture(scope="module")
def baseline_bank(res, benchmark_config):
    return pipeline.build_bank(res, "baseline",
                               pipeline.load_sentences(benchmark_config.sentences))


def with_deps(graph, deps):
    """`graph`'s tokens under the dependencies `deps`."""
    return DependencyGraph(graph.sentence_id, graph.text, graph.tokens, list(deps))


def answer_pairs(qgraph, tgraph):
    """The (question dep, sentence dep) pairs `answer` matches on a bank
    holding `tgraph` alone."""
    candidates = answer(QuestionStructure("q", "", qgraph), DependencyBank([tgraph]), k=1)
    return candidates[0].matched if candidates else []


class TestDepMatch:
    """The rule that pairs a question dependency with a sentence
    dependency, checked on the reference `oracles.dep_match` and, through
    the dependency index, on `answer`."""

    def make(self, res, text):
        return toy_parse(text, res.lexicon)

    def assert_match(self, q, qdep, t, tdep, expected):
        assert oracles.dep_match(q, qdep, t, tdep) is expected
        pair = (q.deps.index(qdep), t.deps.index(tdep))
        assert (pair in answer_pairs(q, t)) is expected

    def test_lemma_equality(self, res):
        q = self.make(res, "l'ouvrier coupa le courant .")
        t = self.make(res, "l'ouvrier a coupé le courant .")
        q_subj = next(d for d in q.deps if d.label == SUBJECT)
        t_subj = next(d for d in t.deps if d.label == SUBJECT)
        self.assert_match(q, q_subj, t, t_subj, True)

    def test_label_must_agree(self, res):
        q = self.make(res, "l'ouvrier coupa le courant .")
        subj = next(d for d in q.deps if d.label == SUBJECT)
        other = next(d for d in q.deps if d.label != SUBJECT)
        self.assert_match(q, subj, q, other, False)
        relabeled = Dependency(DIROBJ, subj.args)
        self.assert_match(with_deps(q, [subj]), subj, with_deps(q, [relabeled]), relabeled,
                          False)

    def test_prep_must_agree(self, res):
        a = self.make(res, "la coupure du courant .")
        b = self.make(res, "la coupure du courant par l'ouvrier .")
        de = next(d for d in a.deps if d.prep == "de")
        par = next(d for d in b.deps if d.prep == "par")
        self.assert_match(a, de, b, par, False)
        same = next(d for d in b.deps if d.prep == "de")
        self.assert_match(a, de, b, same, True)
        # the same arguments under another preposition
        by = Dependency(PREPPH, de.args, prep="par")
        self.assert_match(a, de, with_deps(a, [by]), by, False)

    def test_alternates_count_for_sentence_tokens(self, res):
        q = self.make(res, "le chef gouverna l'empire .")
        t = self.make(res, "l'empereur gouverna l'empire .")
        q_subj = next(d for d in q.deps if d.label == SUBJECT)
        t_subj = next(d for d in t.deps if d.label == SUBJECT)
        self.assert_match(q, q_subj, t, t_subj, False)
        emperor = next(tok for tok in t.tokens if tok.lemma == "empereur")
        emperor.alternates = frozenset({"chef"})
        self.assert_match(q, q_subj, t, t_subj, True)

    def test_question_alternates_play_no_role(self, res):
        q = self.make(res, "le chef gouverna l'empire .")
        t = self.make(res, "l'empereur gouverna l'empire .")
        chief = next(tok for tok in q.tokens if tok.lemma == "chef")
        chief.alternates = frozenset({"empereur"})
        q_subj = next(d for d in q.deps if d.label == SUBJECT)
        t_subj = next(d for d in t.deps if d.label == SUBJECT)
        self.assert_match(q, q_subj, t, t_subj, False)

    def test_provenance_plays_no_role(self, res):
        q = self.make(res, "l'ouvrier coupa le courant .")
        subj = next(d for d in q.deps if d.label == SUBJECT)
        derived = Dependency(SUBJECT, subj.args, provenance=DERIVATIONAL)
        self.assert_match(q, subj, with_deps(q, [derived]), derived, True)
        self.assert_match(with_deps(q, [derived]), derived, q, subj, True)


class TestStructuralAnswer:
    def test_full_match_ranks_first(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        candidates = answer(q, small_bank)
        # s3 shares both argument lemmas but not the verb, so it is no match
        assert [c.sentence_id for c in candidates] == ["s1", "s4"]
        assert candidates[0].coverage == Fraction(1)
        assert candidates[1].coverage == Fraction(1, 2)

    def test_matching_size_agrees_with_exhaustive_search(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        for graph in small_bank:
            best = oracles.max_coverage_pairs(q.graph, graph, oracles.dep_match)
            candidates = [c for c in answer(q, small_bank, k=3)
                          if c.sentence_id == graph.sentence_id]
            got = len(candidates[0].matched) if candidates else 0
            assert got == best

    @pytest.mark.parametrize("mode", ["base", "deriv", "all"])
    def test_fixture_questions_match_plain_answer(self, res, benchmark_config,
                                                  benchmark_questions, mode):
        bank = pipeline.build_bank(res, mode, pipeline.load_sentences(benchmark_config.sentences))
        for question, _ in benchmark_questions:
            for k in (1, 5, len(bank)):
                for full in (False, True):
                    assert answer(question, bank, k=k, require_full_match=full) == \
                        oracles.plain_answer(question, bank, k=k, require_full_match=full)

    def test_zero_coverage_is_not_a_candidate(self, res, small_bank):
        q = parse_question("q", "le magistrat observa le temple ?", res.lexicon)
        assert answer(q, small_bank) == []

    def test_require_full_match(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        candidates = answer(q, small_bank, require_full_match=True)
        assert [c.sentence_id for c in candidates] == ["s1"]

    def test_k_truncates(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        assert len(answer(q, small_bank, k=1)) == 1

    def test_k_must_be_positive(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        with pytest.raises(ValueError, match="k must be positive"):
            answer(q, small_bank, k=0)

    def test_ties_keep_bank_order(self, res):
        bank = DependencyBank([
            toy_parse("l'ouvrier surveilla le courant .", res.lexicon, "a"),
            toy_parse("le magistrat observa le courant .", res.lexicon, "b"),
        ])
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        # both match only via nothing -> no candidates; use subject overlap
        q2 = parse_question("q2", "l'ouvrier surveilla quel courant ?", res.lexicon)
        candidates = answer(q2, bank)
        assert [c.sentence_id for c in candidates] == ["a"]

    @pytest.mark.parametrize("mode, engine, builder", [
        ("deriv", answer, "_dependency_postings"),
        ("baseline", answer_baseline, "_bag_index"),
    ], ids=["deriv", "baseline"])
    def test_one_bank_builds_its_index_once(self, res, small_bank, monkeypatch,
                                            mode, engine, builder):
        builds = []
        build = getattr(depgraph, builder)
        monkeypatch.setattr(depgraph, builder,
                            lambda graphs: builds.append(len(graphs)) or build(graphs))
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        bank = DependencyBank(small_bank)
        assert builds == []
        first = engine(q, bank)
        for _ in range(3):
            assert engine(q, bank) == first
        evaluate([(q, frozenset({"s1"}))] * 3, bank, mode=mode)
        assert builds == [4]

    @pytest.mark.parametrize("engine", [answer, answer_baseline],
                             ids=["structural", "bag"])
    def test_only_the_returned_answers_are_built(self, res, small_bank, monkeypatch,
                                                 engine):
        built = []

        class CountingCandidate(AnswerCandidate):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(qaengine, "AnswerCandidate", CountingCandidate)
        bank = DependencyBank(depgraph.copy_graph(g) for g in small_bank * 2)
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        # s1 and s4 share a dependency with the question, s1, s3 and s4 a lemma
        assert len(bank.match_edges(q.graph)) == 4
        assert len(answer_baseline(q, bank, k=len(bank))) == 6
        built.clear()
        candidates = engine(q, bank, k=2)
        assert built == [c.sentence_id for c in candidates] == ["s1", "s1"]

    def test_unanalyzable_question(self, res):
        with pytest.raises(QuestionError, match="unanalyzable"):
            parse_question("q", "quoi zzz ?", res.lexicon)


class TestMaxMatching:
    """`_max_matching(edges)`: `edges[qi]` lists the sentence dependencies
    question dependency `qi` matches."""

    def test_an_augmenting_path_undoes_a_first_choice(self):
        # q0 takes s0 first; q1 can only have s0, so q0 moves on to s1. s0
        # was taken first, yet the pairs come back sorted by question index.
        assert qaengine._max_matching([[0, 1], [0]]) == [(0, 1), (1, 0)]

    def test_a_dependency_without_edges_stays_unmatched(self):
        assert qaengine._max_matching([[], [0, 1], [0]]) == [(1, 1), (2, 0)]

    def test_nothing_to_match(self):
        assert qaengine._max_matching([[], []]) == []


class TestBagBaseline:
    def test_counts_shared_lemmas(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        candidates = answer_baseline(q, small_bank)
        assert [c.sentence_id for c in candidates] == ["s1", "s3", "s4"]
        assert candidates[0].matched == ["couper", "courant", "ouvrier"]
        assert candidates[1].coverage == candidates[2].coverage == Fraction(2, 3)
        assert oracles.bag_overlap(
            ["ouvrier", "couper", "courant"],
            ["ouvrier", "couper", "courant"]) == 3

    def test_derivative_tokens_are_invisible(self, res, small_bank):
        from derivqa.rephrase import enrich
        enriched = [
            enrich(g, res.synonyms, res.patterns, res.resource, res.dictionary,
                   compose=True)
            for g in small_bank
        ]
        assert any(t.deriv_pattern is not None for g in enriched for t in g.tokens)
        assert DependencyBank(enriched).bag_index == DependencyBank(small_bank).bag_index

    def test_bag_index_posts_each_significant_lemma(self, baseline_bank):
        # lemma -> ascending positions, each position once per lemma
        postings = {}
        for position, graph in enumerate(baseline_bank):
            for lemma in set(oracles.significant_lemmas(graph)):
                postings.setdefault(lemma, []).append(position)
        assert type(baseline_bank.bag_index) is dict
        assert baseline_bank.bag_index == postings

    def test_fixture_questions_match_exhaustive_ranking(self, baseline_bank,
                                                        benchmark_questions):
        for question, _ in benchmark_questions:
            got = answer_baseline(question, baseline_bank, k=len(baseline_bank))
            assert [(c.sentence_id, c.coverage, c.matched) for c in got] == \
                oracles.bag_ranking(question.graph, baseline_bank, len(baseline_bank))

    def test_repeated_ids_keep_their_own_text(self, res, small_bank):
        # ranking is by bank position, so a later graph under the same id
        # neither hides an earlier one nor lends it its text
        bank = DependencyBank([depgraph.copy_graph(small_bank[0]),
                               depgraph.copy_graph(small_bank[1])])
        for graph in bank:
            graph.sentence_id = "x"
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        candidates = answer_baseline(q, bank)
        assert [(c.sentence_id, c.coverage, c.text) for c in candidates] == [
            ("x", Fraction(1), small_bank[0].text)]

    def test_build_bag_index_returns_the_indexed_bank(self, small_bank):
        bank = DependencyBank(small_bank)
        assert "bag_index" not in vars(bank)
        assert build_bag_index(bank) is bank
        assert "bag_index" in vars(bank)

    def test_k_must_be_positive(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        with pytest.raises(ValueError, match="k must be positive"):
            answer_baseline(q, small_bank, k=0)


class TestEvaluate:
    def test_scores_and_counters(self, res, small_bank):
        questions = [
            (parse_question("q1", "l'ouvrier coupa quel courant ?", res.lexicon),
             frozenset({"s1"})),
            (parse_question("q2", "le magistrat observa le temple ?", res.lexicon),
             frozenset({"s2"})),
            (parse_question("q3", "l'ouvrier coupa quel linge ?", res.lexicon),
             frozenset({"s2"})),
        ]
        report = evaluate(questions, small_bank, mode="deriv")
        assert report.ranks == {"q1": 1, "q2": None, "q3": None}
        assert report.no_answer_count == 1   # q2 has no candidates
        assert report.wrong_only_count == 1  # q3 retrieves only wrong sentences
        assert report.mean_score == Fraction(1, 3)

    def test_unknown_gold_id_is_an_error(self, res, small_bank):
        questions = [
            (parse_question("q1", "l'ouvrier coupa quel courant ?", res.lexicon),
             frozenset({"sX"})),
        ]
        with pytest.raises(ValueError, match="gold ids not in bank"):
            evaluate(questions, small_bank, mode="deriv")

    def test_baseline_mode_uses_bag_engine(self, res, small_bank):
        # a noun-phrase question: no sentence carries a PREPPH, so the
        # structural engine returns nothing, while the bag engine keys on
        # the shared lemmas
        questions = [
            (parse_question("q1", "le linge du domestique ?", res.lexicon),
             frozenset({"s2"})),
        ]
        structural = evaluate(questions, small_bank, mode="deriv")
        bag = evaluate(questions, small_bank, mode="baseline")
        assert structural.ranks["q1"] is None
        assert structural.no_answer_count == 1
        assert bag.ranks["q1"] == 1  # shares domestique+linge lemmas

    def test_score_candidates(self):
        candidates = [AnswerCandidate("a", Fraction(1)),
                      AnswerCandidate("b", Fraction(1, 2))]
        assert score_candidates(candidates, {"b"}) == 2
        assert score_candidates(candidates, {"z"}) is None
        assert score_candidates([], {"z"}) is None


class TestQuestionIO:
    def test_load_questions(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("# header\nq1\ttexte ?\ts1,s2\nq2\tautre ?\t\n",
                        encoding="utf-8")
        rows = load_questions(path)
        assert rows == [("q1", "texte ?", frozenset({"s1", "s2"})),
                        ("q2", "autre ?", frozenset())]

    def test_duplicate_question_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ttexte ?\ts1\nq1\tencore ?\ts2\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="duplicate question id"):
            load_questions(path)

    def test_wrong_columns(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ttexte ?\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="expected 3 columns"):
            load_questions(path)

    def test_write_report_format(self, tmp_path):
        report = EvalReport(mode="deriv", ranks={"q1": 1, "q2": 3, "q3": None},
                            no_answer_count=1)
        assert report.mean_score == Fraction(4, 9)
        path = tmp_path / "report.tsv"
        write_report(report, path)
        assert path.read_text(encoding="utf-8") == (
            "q1\t1\t1\n"
            "q2\t3\t1/3\n"
            "q3\t-\t0\n"
            "deriv\t" + repr(float(Fraction(4, 9))) + "\t1\n"
        )
