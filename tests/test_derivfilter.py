import copy
from fractions import Fraction

import pytest

import oracles
from derivqa import lexica, pipeline
from derivqa.derivfilter import (
    DerivationalResource,
    DerivativeRecord,
    audit_precision,
    build_resource,
    filter_by_instructions,
    save_resource,
    symmetrize_instructions,
)
from derivqa.lexica import (
    ADJ,
    NOUN,
    VERB,
    DerivInstruction,
    Dictionary,
    SenseRecord,
    load_code_table,
    parse_derivation_codes,
)
from derivqa.morphogen import CandidateDerivative, SuffixModel, TooShortError, attested_candidates
from derivqa.pipeline import packaged_data

CODE_TABLE = load_code_table(packaged_data("code_table.tsv"))


def verb_sense(lemma, sense_id, codes, domain="GEN"):
    return SenseRecord(lemma=lemma, sense_id=sense_id, pos=VERB, domain_code=domain,
                       instructions=tuple(parse_derivation_codes(codes, CODE_TABLE)))


def attested_by_lemma(dictionary, model, corpus_lexicon, euphonics):
    """The corpus-attested candidates `build_resource` makes for each lemma
    (None below the syllable floor)."""
    attested = {}
    for lemma in dictionary.senses:
        try:
            attested[lemma] = attested_candidates(lemma, model, euphonics, corpus_lexicon)[1]
        except TooShortError:
            attested[lemma] = None
    return attested


class TestInstructionFilter:
    def test_exact_suffix_match_and_licensing(self):
        senses = [
            verb_sense("couper", 1, "-U-E-"),
            verb_sense("couper", 2, "-U-"),
        ]
        candidates = [
            CandidateDerivative("couper", "ure", "coupure"),
            CandidateDerivative("couper", "eur", "coupeur"),
            CandidateDerivative("couper", "age", "coupage"),
            CandidateDerivative("couper", "", "coup"),
        ]
        records = filter_by_instructions(candidates, senses)
        by_surface = {r.surface: r for r in records}
        assert set(by_surface) == {"coupure", "coupeur"}
        assert by_surface["coupure"].licensed_senses == frozenset({1, 2})
        assert by_surface["coupeur"].licensed_senses == frozenset({1})
        assert by_surface["coupure"].target_pos == NOUN

    def test_bare_stems_never_accepted(self):
        senses = [verb_sense("couper", 1, "-U-G-E-A-Q-L-D-B-")]
        candidates = [CandidateDerivative("couper", "", "coup")]
        assert filter_by_instructions(candidates, senses) == []

    def test_rejects_mixed_lemmas(self):
        senses = [verb_sense("couper", 1, "-U-"), verb_sense("laver", 1, "-G-")]
        with pytest.raises(ValueError, match="several lemmas"):
            filter_by_instructions([], senses)

    def test_matches_oracle(self):
        senses = [
            verb_sense("couper", 1, "-U-G-"),
            verb_sense("couper", 2, "-E-A-"),
            verb_sense("couper", 3, "-U-Q-"),
        ]
        candidates = [
            CandidateDerivative("couper", s, "coup" + s)
            for s in ("ure", "age", "eur", "ant", "é", "able", "ment", "")
        ]
        records = filter_by_instructions(candidates, senses)
        expected = oracles.instruction_filter(candidates, senses)
        assert {r.surface: set(r.licensed_senses) for r in records} == {
            surface: set(ids) for surface, ids in expected.items()
        }


class TestDerivativeSelection:
    RESOURCE = DerivationalResource(by_lemma={
        "formaliser": [
            DerivativeRecord("formalisation", NOUN, "ation", "formaliser",
                             frozenset({2})),
            DerivativeRecord("formalisé", "ADJ", "é", "formaliser",
                             frozenset({2})),
        ],
    })

    def test_licensed_sense_selects(self):
        records = self.RESOURCE.records_for("formaliser", 2)
        assert {r.surface for r in records} == {"formalisation", "formalisé"}

    def test_unlicensed_sense_selects_nothing(self):
        assert self.RESOURCE.records_for("formaliser", 1) == []

    def test_none_sense_keeps_everything(self):
        records = self.RESOURCE.records_for("formaliser", None)
        assert {r.surface for r in records} == {"formalisation", "formalisé"}

    def test_unknown_lemma(self):
        assert self.RESOURCE.records_for("absent", 1) == []


class TestBuildResource:
    def test_benchmark_statistics(self, benchmark_resources):
        stats = benchmark_resources.resource.stats
        assert stats.entries_processed == 18
        assert stats.derivatives_accepted == 23
        assert sum(map(len, benchmark_resources.resource.by_lemma.values())) == 23

    def test_records_sorted_and_deduped(self, benchmark_resources):
        resource = benchmark_resources.resource
        for lemma, records in resource.by_lemma.items():
            surfaces = [r.surface for r in records]
            assert surfaces == sorted(surfaces), lemma
            assert len(surfaces) == len(set(surfaces)), lemma

    def test_couper_family(self, benchmark_resources):
        records = benchmark_resources.resource.records_for("couper")
        assert {r.surface for r in records} == {
            "coupure", "coupage", "coupeur", "coupant", "coupé",
        }

    def test_too_short_entries_are_skipped(self, benchmark_resources, benchmark_filter_inputs):
        model = benchmark_resources.model
        dictionary = Dictionary([verb_sense("gir", 1, "-U-")])
        resource = build_resource(dictionary, model, *benchmark_filter_inputs)
        assert resource.by_lemma == {}
        assert resource.stats.entries_processed == 1
        assert resource.stats.candidates_generated == 0
        assert resource.stats.instructions_unmatched == 1

    def test_unmatched_counts_per_instruction(self, benchmark_resources, benchmark_filter_inputs):
        # laver licenses -G-E-Q-L- in the benchmark; "laveur", "lavage", "lavé"
        # and "lavable" are all attested, so every instruction matches.
        res = benchmark_resources
        dictionary = Dictionary([verb_sense("laver", 1, "-G-E-Q-L-")])
        resource = build_resource(dictionary, res.model, *benchmark_filter_inputs)
        assert resource.stats.instructions_total == 4
        assert resource.stats.instructions_unmatched == 0
        # balayer licenses only -G-; balayage is attested, nothing unmatched.
        dictionary = Dictionary([verb_sense("balayer", 1, "-G-U-")])
        resource = build_resource(dictionary, res.model, *benchmark_filter_inputs)
        assert resource.stats.instructions_unmatched == 1  # no "balayure"


class TestSymmetrize:
    @pytest.fixture()
    def base(self, benchmark_resources, benchmark_filter_inputs):
        """The benchmark dictionary, freshly loaded, and its attested candidates."""
        res = benchmark_resources
        dictionary = lexica.load_dictionary(res.config.dictionary, CODE_TABLE)
        return dictionary, attested_by_lemma(dictionary, res.model, *benchmark_filter_inputs)

    def test_adds_exactly_the_back_instructions(self, base):
        back = symmetrize_instructions(*base)
        assert back == {"coupure": {1: (DerivInstruction(VERB, "er"),)},
                        "formalisation": {1: (DerivInstruction(VERB, "er"),)}}

    def test_back_instruction_respects_domain(self, base):
        # formalisation is MAT: a GEN verb sense licensing it donates nothing
        dictionary, attested = base
        formalisation = dictionary.senses["formalisation"]
        for domain, expected in [("GEN", {}),
                                 ("MAT", {"formalisation": {1: (DerivInstruction(VERB, "er"),)}})]:
            verb = verb_sense("formaliser", 1, "-B-", domain=domain)
            assert symmetrize_instructions(Dictionary([verb, *formalisation]), attested) == expected

    def test_leaves_the_dictionary_untouched(self, base, benchmark_resources,
                                             benchmark_filter_inputs):
        dictionary, attested = base
        before = copy.deepcopy(list(dictionary))
        records = list(dictionary)
        symmetrize_instructions(dictionary, attested)
        resource = build_resource(dictionary, benchmark_resources.model,
                                  *benchmark_filter_inputs, symmetrize=True)
        assert resource == benchmark_resources.resource
        assert list(dictionary) == before
        assert all(a is b for a, b in zip(dictionary, records))

    def test_coded_instruction_does_not_hide_the_back_instruction(
            self, benchmark_resources, benchmark_filter_inputs):
        # coupure carries a coded VERB instruction equal to its back-instruction
        # to couper; back-instructions are deduplicated only among themselves.
        table = {**CODE_TABLE, "V": DerivInstruction(VERB, "er")}
        coded = tuple(parse_derivation_codes("-V-", table))
        dictionary = Dictionary([
            verb_sense("couper", 1, "-U-"),
            SenseRecord(lemma="coupure", sense_id=1, pos=NOUN, domain_code="GEN",
                        instructions=coded),
        ])
        model = benchmark_resources.model
        back = symmetrize_instructions(
            dictionary, attested_by_lemma(dictionary, model, *benchmark_filter_inputs))
        assert back == {"coupure": {1: coded}}
        resource = build_resource(dictionary, model, *benchmark_filter_inputs, symmetrize=True)
        assert resource.stats.instructions_total == 3

    def test_symmetrizing_again_gains_nothing(self, benchmark_resources, benchmark_filter_inputs):
        # the build adds nothing to the dictionary, so a second one is the same
        res = benchmark_resources
        again = build_resource(res.dictionary, res.model, *benchmark_filter_inputs,
                               symmetrize=True)
        assert again == res.resource

    def test_rebuilds_verb_after_second_pass(self, benchmark_resources):
        records = benchmark_resources.resource.records_for("coupure")
        assert [r.surface for r in records] == ["couper"]
        assert records[0].target_pos == VERB
        assert records[0].suffix == "er"


class TestBackDerivativeRule:
    """Under `symmetrize`, a derived noun gets a record back to a verb only
    when one of its own candidates carries the back-instruction's suffix:
    that suffix must be a learned one, and any attested candidate of the
    noun with it is accepted, not only the source verb. ROADMAP item 16
    (inverting the accepted records) would change both edges, and item 15
    builds on it; such a change has to change these pins on purpose."""

    def build(self, rows, suffixes, corpus):
        dictionary = Dictionary(
            SenseRecord(lemma=lemma, sense_id=sense_id, pos=pos, domain_code="GEN",
                        instructions=tuple(parse_derivation_codes(codes, CODE_TABLE)))
            for lemma, sense_id, pos, codes in rows)
        model = SuffixModel(suffixes=suffixes, min_stem_len=3, max_stems_per_lemma=2,
                            min_syllables=2)
        return build_resource(dictionary, model, lexica.CorpusLexicon(corpus), (),
                              symmetrize=True)

    def test_back_suffix_must_be_learned(self):
        # caceur's back-instruction to cacer has the suffix "r", which no
        # candidate of caceur carries: "r" is not a learned suffix.
        resource = self.build(
            [("cacer", 1, VERB, "--"), ("cacer", 2, VERB, "-E-"), ("caceur", 1, NOUN, "")],
            ("er", "eur"), {"cacer", "caceur"})
        assert resource.by_lemma == {"cacer": [
            DerivativeRecord("caceur", NOUN, "eur", "cacer", frozenset({2}))]}
        assert (resource.stats.instructions_total, resource.stats.instructions_unmatched) == (2, 1)

    def test_other_candidates_ending_like_the_verb_are_accepted(self):
        # cacure's back-instruction (VERB, "er") licenses cacer, its source
        # verb, and cacurer, made from its other stem cacur.
        resource = self.build(
            [("cacer", 1, VERB, "-U-"), ("cacure", 1, NOUN, "")],
            ("e", "er", "ure"), {"cacer", "cacure", "cacurer"})
        assert resource.records_for("cacure") == [
            DerivativeRecord("cacer", VERB, "er", "cacure", frozenset({1})),
            DerivativeRecord("cacurer", VERB, "er", "cacure", frozenset({1}))]


def test_load_resources_parses_each_code_string_once(benchmark_resources, monkeypatch):
    res = benchmark_resources
    parsed = []
    parse = lexica.parse_derivation_codes
    monkeypatch.setattr(lexica, "parse_derivation_codes",
                        lambda raw, table: parsed.append(raw) or parse(raw, table))
    again = pipeline.load_resources(res.config)
    assert again.resource == res.resource
    rows = res.config.dictionary.read_text(encoding="utf-8").split("\n")
    codes = [row.split("\t")[10] for row in rows if row and not row.startswith("#")]
    assert sorted(parsed) == sorted(set(codes))


class TestAudit:
    @pytest.fixture()
    def resource(self):
        by_lemma = {
            "couper": [
                DerivativeRecord("coupure", NOUN, "ure", "couper", frozenset({1})),
                DerivativeRecord("coupage", NOUN, "age", "couper", frozenset({1})),
            ],
            "laver": [DerivativeRecord("lavable", ADJ, "able", "laver", frozenset({1}))],
        }
        return DerivationalResource(by_lemma=by_lemma)

    def test_fraction_of_correct(self, resource):
        gold = {"coupure": True, "coupage": True, "lavable": False}
        assert audit_precision(resource, 3, gold, seed=5) == Fraction(2, 3)

    def test_clamps_oversize_sample(self, resource, caplog):
        gold = {"coupure": True, "coupage": True, "lavable": True}
        with caplog.at_level("WARNING"):
            result = audit_precision(resource, 10, gold, seed=5)
        assert result == Fraction(1, 1)
        assert any("clamped" in r.message for r in caplog.records)

    def test_missing_gold_is_an_error(self, resource):
        with pytest.raises(ValueError, match="missing"):
            audit_precision(resource, 3, {"coupure": True}, seed=5)

    def test_empty_resource_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            audit_precision(DerivationalResource(), 1, {})

    def test_deterministic_for_a_seed(self, resource):
        gold = {"coupure": True, "coupage": False, "lavable": False}
        runs = {audit_precision(resource, 2, gold, seed=17) for _ in range(5)}
        assert len(runs) == 1


class TestSerialization:
    def test_rows_carry_joined_sense_ids(self, tmp_path):
        resource = DerivationalResource(by_lemma={
            "couper": [DerivativeRecord("coupure", NOUN, "ure", "couper", frozenset({2, 1}))],
            "laver": [DerivativeRecord("lavable", ADJ, "able", "laver", frozenset({1}))],
        })
        path = tmp_path / "resource.tsv"
        save_resource(resource, path)
        assert path.read_text(encoding="utf-8") == (
            "couper\tcoupure\tNOUN\ture\t1,2\n"
            "laver\tlavable\tADJ\table\t1\n")
