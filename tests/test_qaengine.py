from fractions import Fraction

import pytest

import oracles
from derivqa import depgraph
from derivqa.depgraph import (
    DERIVATIONAL,
    SUBJECT,
    Dependency,
    DependencyBank,
    toy_parse,
)
from derivqa.lexica import LexiconError, NOUN, VERB
from derivqa.qaengine import (
    AnswerCandidate,
    EvalReport,
    QuestionError,
    answer,
    answer_baseline,
    build_bag_index,
    dep_match,
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
    return [toy_parse(text, res.lexicon, sid) for sid, text in texts]


class TestDepMatch:
    def make(self, res, text):
        return toy_parse(text, res.lexicon)

    def test_lemma_equality(self, res):
        q = self.make(res, "l'ouvrier coupa le courant .")
        t = self.make(res, "l'ouvrier a coupé le courant .")
        q_subj = next(d for d in q.deps if d.label == SUBJECT)
        t_subj = next(d for d in t.deps if d.label == SUBJECT)
        assert dep_match(q, q_subj, t, t_subj)

    def test_label_must_agree(self, res):
        q = self.make(res, "l'ouvrier coupa le courant .")
        subj = next(d for d in q.deps if d.label == SUBJECT)
        other = next(d for d in q.deps if d.label != SUBJECT)
        assert not dep_match(q, subj, q, other)

    def test_unknown_labels_never_match(self, res):
        q = self.make(res, "l'ouvrier coupa le courant .")
        foreign_q = Dependency("FOREIGN", (0, 1))
        assert not dep_match(q, foreign_q, q, foreign_q)

    def test_prep_must_agree(self, res):
        a = self.make(res, "la coupure du courant .")
        b = self.make(res, "la coupure du courant par l'ouvrier .")
        de = next(d for d in a.deps if d.prep == "de")
        par = next(d for d in b.deps if d.prep == "par")
        assert not dep_match(a, de, b, par)
        same = next(d for d in b.deps if d.prep == "de")
        assert dep_match(a, de, b, same)

    def test_alternates_count_for_sentence_tokens(self, res):
        q = self.make(res, "le chef gouverna l'empire .")
        t = self.make(res, "l'empereur gouverna l'empire .")
        q_subj = next(d for d in q.deps if d.label == SUBJECT)
        t_subj = next(d for d in t.deps if d.label == SUBJECT)
        assert not dep_match(q, q_subj, t, t_subj)
        emperor = next(tok for tok in t.tokens if tok.lemma == "empereur")
        emperor.alternates.add("chef")
        assert dep_match(q, q_subj, t, t_subj)

    def test_question_alternates_play_no_role(self, res):
        q = self.make(res, "le chef gouverna l'empire .")
        t = self.make(res, "l'empereur gouverna l'empire .")
        chief = next(tok for tok in q.tokens if tok.lemma == "chef")
        chief.alternates.add("empereur")
        q_subj = next(d for d in q.deps if d.label == SUBJECT)
        t_subj = next(d for d in t.deps if d.label == SUBJECT)
        assert not dep_match(q, q_subj, t, t_subj)


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
            best = oracles.max_coverage_pairs(q.graph, graph, dep_match)
            candidates = [c for c in answer(q, small_bank, k=3)
                          if c.sentence_id == graph.sentence_id]
            got = len(candidates[0].matched) if candidates else 0
            assert got == best

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
        bank = [
            toy_parse("l'ouvrier surveilla le courant .", res.lexicon, "a"),
            toy_parse("le magistrat observa le courant .", res.lexicon, "b"),
        ]
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        # both match only via nothing -> no candidates; use subject overlap
        q2 = parse_question("q2", "l'ouvrier surveilla quel courant ?", res.lexicon)
        candidates = answer(q2, bank)
        assert [c.sentence_id for c in candidates] == ["a"]

    def test_one_bank_builds_its_index_once(self, res, small_bank, monkeypatch):
        builds = []
        build = depgraph._dependency_postings
        monkeypatch.setattr(depgraph, "_dependency_postings",
                            lambda graphs: builds.append(len(graphs)) or build(graphs))
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        bank = DependencyBank(small_bank)
        assert builds == []
        first = answer(q, bank)
        for _ in range(3):
            assert answer(q, bank) == first
        evaluate([(q, frozenset({"s1"}))] * 3, bank, mode="deriv")
        assert DependencyBank(bank) is bank
        assert builds == [4]
        # a plain list is wrapped once per call, so evaluate builds once
        evaluate([(q, frozenset({"s1"}))] * 3, small_bank, mode="deriv")
        assert builds == [4, 4]

    def test_unanalyzable_question(self, res):
        with pytest.raises(QuestionError, match="unanalyzable"):
            parse_question("q", "quoi zzz ?", res.lexicon)


class TestBagBaseline:
    def test_counts_shared_lemmas(self, res, small_bank):
        index = build_bag_index(small_bank)
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        candidates = answer_baseline(q, index)
        assert [c.sentence_id for c in candidates] == ["s1", "s3", "s4"]
        assert candidates[0].matched == ["couper", "courant", "ouvrier"]
        assert candidates[1].coverage == candidates[2].coverage == Fraction(2, 3)
        assert oracles.bag_overlap(
            ["ouvrier", "couper", "courant"],
            ["ouvrier", "couper", "courant"]) == 3

    def test_derivative_tokens_are_invisible(self, res, small_bank):
        from derivqa.rephrase import apply_patterns
        enriched = [
            apply_patterns(g, res.patterns, res.resource, res.dictionary)
            for g in small_bank
        ]
        assert build_bag_index(enriched).bags == build_bag_index(small_bank).bags

    def test_k_must_be_positive(self, res, small_bank):
        q = parse_question("q", "l'ouvrier coupa quel courant ?", res.lexicon)
        with pytest.raises(ValueError, match="k must be positive"):
            answer_baseline(q, build_bag_index(small_bank), k=0)


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
        assert report.per_question == {
            "q1": Fraction(1), "q2": Fraction(0), "q3": Fraction(0),
        }
        assert report.ranks == {"q1": 1, "q2": None, "q3": None}
        assert report.no_answer_count == 1   # q2 has no candidates
        assert report.wrong_only_count == 1  # q3 retrieves only wrong sentences
        assert report.answered == 1
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
        assert score_candidates(candidates, {"b"}) == (2, Fraction(1, 2))
        assert score_candidates(candidates, {"z"}) == (None, Fraction(0))
        assert score_candidates([], {"z"}) == (None, Fraction(0))


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
        report = EvalReport(mode="deriv")
        report.per_question = {"q1": Fraction(1), "q2": Fraction(1, 3),
                               "q3": Fraction(0)}
        report.ranks = {"q1": 1, "q2": 3, "q3": None}
        report.mean_score = Fraction(4, 9)
        report.no_answer_count = 1
        path = tmp_path / "report.tsv"
        write_report(report, path)
        assert path.read_text(encoding="utf-8") == (
            "q1\t1\t1\n"
            "q2\t3\t1/3\n"
            "q3\t-\t0\n"
            "deriv\t" + repr(float(Fraction(4, 9))) + "\t1\n"
        )
