import pytest

import oracles
from derivqa.lexica import CorpusLexicon, InflectionEntry, LexiconError, load_inflections
from derivqa.morphogen import (
    CandidateDerivative,
    EuphonicRule,
    SuffixModel,
    TooShortError,
    attested_candidates,
    euphonic_surfaces,
    learn_suffix_model,
    load_euphonic_rules,
    stem_candidates,
    syllable_count,
)
from derivqa.pipeline import packaged_data

# the mute-e rule: final e drops before a vowel-initial suffix
PACKAGED_EUPHONICS = load_euphonic_rules(packaged_data("euphonics.tsv"))


class TestSyllables:
    @pytest.mark.parametrize("word,count", [
        ("couper", 2),
        ("coupure", 3),
        ("formalisation", 5),
        ("rythme", 2),
        ("roi", 1),
        ("xyz", 1),
        ("strncmp", 0),
        ("ÉCHO", 2),
    ])
    def test_hand_counts(self, word, count):
        assert syllable_count(word) == count
        assert oracles.syllables(word) == count


def entry(form, lemma, tags="V"):
    return InflectionEntry(form, lemma, tags)


class TestLearning:
    def test_single_family(self):
        entries = [
            entry("coupa", "couper"),
            entry("coupe", "couper"),
            entry("coupé", "couper"),
            entry("couper", "couper"),
            entry("coupure", "coupure", "N:f:s"),
            entry("coupage", "coupage", "N:m:s"),
        ]
        model = learn_suffix_model(entries, threshold=1)
        stem_counts = {"a": 1, "e": 1, "é": 1, "er": 1, "ure": 1, "age": 1}
        assert oracles.suffix_inventory(entries, threshold=1) == stem_counts
        assert model.suffixes == tuple(sorted(stem_counts))

    def test_threshold_prunes_rare_endings(self):
        entries = [
            entry("coupa", "couper"),
            entry("coupe", "couper"),
            entry("lava", "laver"),
            entry("lavage", "lavage", "N:m:s"),
        ]
        model = learn_suffix_model(entries, threshold=2)
        # "a" and "er" are residuals of two distinct stems; "e" and "age" of one.
        assert oracles.suffix_inventory(entries, threshold=2) == {"a": 2, "er": 2}
        assert model.suffixes == ("a", "er")

    def test_identity_rows_do_not_create_stems(self):
        entries = [entry("coupure", "coupure", "N:f:s")]
        model = learn_suffix_model(entries, threshold=1)
        assert oracles.suffix_inventory(entries, threshold=1) == {}
        assert model.suffixes == ()

    def test_stem_floor_discards_short_prefixes(self):
        # common prefix "va" (from vais) is below the default stem floor of 3,
        # so only "valo" (from valons) becomes a stem
        entries = [entry("vais", "valoir"), entry("valons", "valoir")]
        model = learn_suffix_model(entries, threshold=1)
        assert oracles.suffix_inventory(entries, threshold=1) == {"ns": 1, "ir": 1}
        assert model.suffixes == ("ir", "ns")

    def test_residual_uses_longest_stem(self):
        # Both "coup" and "coupe" are stems; "coupes" must resolve over the
        # longer "coupe" (residual "s"), not over "coup" (residual "es").
        entries = [
            entry("coupa", "couper"),
            entry("coupes", "coupette"),
            entry("coupet", "coupette"),
        ]
        model = learn_suffix_model(entries, threshold=1)
        assert tuple(sorted(oracles.suffix_inventory(entries, threshold=1))) == model.suffixes
        assert "s" in model.suffixes

    def test_matches_oracle_on_benchmark(self, benchmark_resources):
        res = benchmark_resources
        expected = oracles.suffix_inventory(
            load_inflections(res.config.inflections),
            threshold=res.config.suffix_threshold,
            min_stem_len=res.config.min_stem_len,
        )
        assert res.model.suffixes == tuple(sorted(expected))
        assert set(res.model.suffixes) == {
            "a", "e", "é", "er", "ure", "age", "eur", "ant", "able",
            "ation", "ment", "s", "re", "it", "r",
        }


class TestStemCandidates:
    MODEL = SuffixModel(
        suffixes=("er", "re", "ure"),
        min_stem_len=3,
        max_stems_per_lemma=2,
        min_syllables=2,
    )

    def test_orders_shortest_first_and_caps(self):
        assert stem_candidates("coupure", self.MODEL) == ["coup", "coupu"]

    def test_lemma_itself_always_eligible(self):
        assert stem_candidates("lionceau", self.MODEL) == ["lionceau"]

    def test_min_stem_len_blocks_short_remainders(self):
        # "couper" - "er" leaves "coup" (ok); "cure" - "ure" leaves "c" (blocked)
        assert stem_candidates("couper", self.MODEL) == ["coup", "couper"]

    def test_syllable_floor(self):
        with pytest.raises(TooShortError, match="too short"):
            stem_candidates("rue", self.MODEL)

    def test_uncapped_includes_lemma(self):
        model = SuffixModel(suffixes=self.MODEL.suffixes, min_stem_len=3,
                            max_stems_per_lemma=5, min_syllables=2)
        assert stem_candidates("coupure", model) == ["coup", "coupu", "coupure"]


class TestEuphonics:
    def test_default_rule_drops_mute_e(self):
        assert euphonic_surfaces("coupe", "ure", PACKAGED_EUPHONICS) == ["coupeure", "coupure"]

    def test_rule_skipped_before_consonant(self):
        assert euphonic_surfaces("coupe", "ment", PACKAGED_EUPHONICS) == ["coupement"]

    def test_rewriting_rule(self):
        rules = (EuphonicRule("éd", "ess", "vowel"),)
        assert euphonic_surfaces("succéd", "eur", rules) == ["succédeur", "successeur"]

    def test_before_any_applies_to_consonant_suffixes(self):
        rules = (EuphonicRule("e", "", "any"),)
        assert euphonic_surfaces("coupe", "ment", rules) == ["coupement", "coupment"]

    def test_load_rules(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("# tail\trepl\tbefore\ne\t\tvowel\néd\tess\tvowel\n", encoding="utf-8")
        rules = load_euphonic_rules(path)
        assert rules == (EuphonicRule("e", "", "vowel"), EuphonicRule("éd", "ess", "vowel"))

    def test_load_rules_rejects_bad_before(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("e\t\tsometimes\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="before"):
            load_euphonic_rules(path)

    def test_load_rules_rejects_empty_tail(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("\tx\tvowel\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="empty"):
            load_euphonic_rules(path)


class TestGeneration:
    MODEL = SuffixModel(suffixes=("e", "ure"), min_stem_len=3,
                        max_stems_per_lemma=2, min_syllables=2)

    def test_bare_stems_and_dedupe(self):
        made = ["coup", "coupe", "coupure", "coupee", "coupeure"]
        corpus = CorpusLexicon(made)
        generated, candidates = attested_candidates("coupe", self.MODEL, PACKAGED_EUPHONICS,
                                                    corpus)
        assert generated == 5
        surfaces = [c.surface for c in candidates]
        assert surfaces == made
        # duplicate surfaces keep the first (shorter-stem) candidate
        by_surface = {c.surface: c for c in candidates}
        assert by_surface["coupe"].suffix == "e"

    def test_minimum_surface_length(self):
        model = SuffixModel(suffixes=(), min_stem_len=3,
                            max_stems_per_lemma=2, min_syllables=1)
        # bare stem "ami" has length min_stem_len, below the floor of one more
        corpus = CorpusLexicon({"ami"})
        assert attested_candidates("ami", model, PACKAGED_EUPHONICS, corpus) == (0, [])

    def test_rejects_short_lemma(self):
        with pytest.raises(TooShortError):
            attested_candidates("rue", self.MODEL, PACKAGED_EUPHONICS, CorpusLexicon(()))


class TestCorpusFilter:
    def test_keeps_only_attested(self):
        # one stem, "coup", so the surfaces made are coup, coupage, couper, coupure
        model = SuffixModel(suffixes=("age", "er", "ure"), min_stem_len=3,
                            max_stems_per_lemma=1, min_syllables=2)
        corpus = CorpusLexicon({"coupure"})
        generated, kept = attested_candidates("couper", model, PACKAGED_EUPHONICS, corpus)
        assert generated == 4
        assert kept == [CandidateDerivative("couper", "ure", "coupure")]
