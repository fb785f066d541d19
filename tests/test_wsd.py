import pytest

from derivqa.depgraph import toy_parse
from derivqa.lexica import NOUN, VERB, Dictionary
from derivqa.wsd import (
    DependencyConstraint,
    WsdStats,
    compile_rules,
    disambiguate,
    dump_rules,
)


@pytest.fixture(scope="module")
def res(benchmark_resources):
    return benchmark_resources


class TestCompilation:
    def test_one_rule_per_parseable_example(self, res):
        compilation = res.compilation
        assert compilation.examples_total == 18
        assert sum(len(rules) for rules in compilation.rules.values()) == 18
        assert compilation.skipped == []

    def test_constraints_cover_entry_word_deps(self, res):
        rules = res.compilation.rules_for("formaliser", VERB)
        assert {r.sense_id for r in rules} == {1, 2}
        by_sense = {r.sense_id: r for r in rules}
        # "la conduite formalise Pierre ." gives SUBJECT+DIROBJ around the verb
        assert {
            (c.label, c.slot, c.other_lemma) for c in by_sense[1].constraints
        } == {("SUBJECT", 0, "conduite"), ("DIROBJ", 0, "Pierre")}
        assert {
            (c.label, c.slot, c.other_lemma) for c in by_sense[2].constraints
        } == {("SUBJECT", 0, "mathématicien"), ("DIROBJ", 0, "théorie")}

    def test_noun_examples_use_prep_constraints(self, res):
        rules = res.compilation.rules_for("coupure", NOUN)
        assert len(rules) == 1
        (constraint,) = rules[0].constraints
        assert constraint == DependencyConstraint("PREPPH", 0, "courant", "de")

    def test_unparseable_example_is_skipped(self, res, couper_family_resources):
        # the single-entry setup lacks the example's nouns, so its example
        # cannot parse and the compilation records the skip
        compilation = couper_family_resources.compilation
        assert compilation.examples_total == 1
        assert compilation.rules == {}
        assert len(compilation.skipped) == 1
        lemma, sense_id, example, reason = compilation.skipped[0]
        assert (lemma, sense_id) == ("couper", 1)
        assert "ouvrier" in reason


class TestDisambiguation:
    def test_rule_separates_senses(self, res):
        # a new Dictionary of the same records builds its own index, to the same effect
        for dictionary in (res.dictionary, Dictionary(list(res.dictionary))):
            graph = toy_parse("le mathématicien formalise une théorie .", res.lexicon)
            disambiguate(graph, res.compilation, dictionary)
            verb = next(t for t in graph.tokens if t.lemma == "formaliser")
            assert verb.sense_id == 2

            graph = toy_parse("la conduite formalise Pierre .", res.lexicon)
            disambiguate(graph, res.compilation, dictionary)
            verb = next(t for t in graph.tokens if t.lemma == "formaliser")
            assert verb.sense_id == 1

    def test_monosemous_shortcut(self, res):
        graph = toy_parse("le domestique lave le linge .", res.lexicon)
        stats = WsdStats()
        disambiguate(graph, res.compilation, res.dictionary, stats)
        verb = next(t for t in graph.tokens if t.lemma == "laver")
        assert verb.sense_id == 1
        assert stats.monosemous >= 1

    def test_no_matching_context_leaves_none(self, res):
        # polysemous "formaliser" in a context neither example covers
        graph = toy_parse("le domestique formalise le linge .", res.lexicon)
        stats = WsdStats()
        disambiguate(graph, res.compilation, res.dictionary, stats)
        verb = next(t for t in graph.tokens if t.lemma == "formaliser")
        assert verb.sense_id is None
        assert stats.unresolved == 1

    def test_tie_goes_to_lowest_sense(self, res):
        graph = toy_parse("il prend le livre .", res.lexicon)
        disambiguate(graph, res.compilation, res.dictionary)
        verb = next(t for t in graph.tokens if t.lemma == "prendre")
        # both examples share the subject "il"; one constraint each fires
        assert verb.sense_id == 1

    def test_tokens_outside_dictionary_stay_untagged(self, res):
        graph = toy_parse("le domestique lave le linge .", res.lexicon)
        disambiguate(graph, res.compilation, res.dictionary)
        noun = next(t for t in graph.tokens if t.lemma == "linge")
        assert noun.sense_id is None


class TestDump:
    def test_five_column_rows_and_skip_comments(self, res, couper_family_resources, tmp_path):
        path = tmp_path / "rules.tsv"
        dump_rules(res.compilation, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert all(len(l.split("\t")) == 5 for l in data)
        assert "coupure\t1\tPREPPH:de\t0\tcourant" in data

        path2 = tmp_path / "rules2.tsv"
        dump_rules(couper_family_resources.compilation, path2)
        lines2 = path2.read_text(encoding="utf-8").splitlines()
        assert lines2 and lines2[-1].startswith("# skipped couper/1:")
