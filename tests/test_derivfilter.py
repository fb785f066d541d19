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
    relicense,
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
from derivqa.morphogen import CandidateDerivative
from derivqa.pipeline import packaged_data

CODE_TABLE = load_code_table(packaged_data("code_table.tsv"))


def verb_sense(lemma, sense_id, codes, domain="GEN"):
    return SenseRecord(lemma=lemma, sense_id=sense_id, pos=VERB, domain_code=domain,
                       instructions=tuple(parse_derivation_codes(codes, CODE_TABLE)))


def back_instructions(sense):
    """The instructions symmetrize added: they have no code letter."""
    return [ins for ins in sense.instructions if ins.code_letter is None]


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
    def test_adds_exactly_the_back_instructions(self, benchmark_resources, benchmark_filter_inputs):
        res = benchmark_resources
        from derivqa import lexica
        base_dictionary = lexica.load_dictionary(res.config.dictionary, CODE_TABLE)
        first = build_resource(base_dictionary, res.model, *benchmark_filter_inputs)
        augmented = symmetrize_instructions(base_dictionary, first)
        added = {
            (s.lemma, ins.suffix)
            for s in augmented
            for ins in back_instructions(s)
        }
        assert added == {("coupure", "er"), ("formalisation", "er")}
        # the copy's own index holds the augmented records
        assert isinstance(augmented, Dictionary)
        assert {
            (lemma, ins.suffix)
            for lemma, senses in augmented.senses.items()
            for s in senses
            for ins in back_instructions(s)
        } == added
        # the originals were not touched
        assert all(not back_instructions(s) for s in base_dictionary)

    def test_back_instruction_respects_domain(self, benchmark_resources, benchmark_filter_inputs):
        # formalisation is MAT; only formaliser's MAT sense (2) donates, and
        # the GEN sense (1) does not create a second copy.
        res = benchmark_resources
        from derivqa import lexica
        base_dictionary = lexica.load_dictionary(res.config.dictionary, CODE_TABLE)
        first = build_resource(base_dictionary, res.model, *benchmark_filter_inputs)
        augmented = symmetrize_instructions(base_dictionary, first)
        formalisation = [s for s in augmented if s.lemma == "formalisation"]
        assert len(formalisation) == 1
        assert [ins.suffix for ins in back_instructions(formalisation[0])] == ["er"]

    def test_copies_only_the_senses_that_gain(self, benchmark_resources, benchmark_filter_inputs):
        res = benchmark_resources
        from derivqa import lexica
        base_dictionary = lexica.load_dictionary(res.config.dictionary, CODE_TABLE)
        before = copy.deepcopy(list(base_dictionary))
        records = list(base_dictionary)
        first = build_resource(base_dictionary, res.model, *benchmark_filter_inputs)
        augmented = symmetrize_instructions(base_dictionary, first)
        gained = [s.lemma for s in augmented if back_instructions(s)]
        assert gained == ["coupure", "formalisation"]
        assert len(augmented) == len(base_dictionary)
        for old, new in zip(base_dictionary, augmented):
            if new.lemma in gained:
                assert new is not old
                assert new.instructions[:len(old.instructions)] == old.instructions
            else:
                assert new is old
        # the input dictionary and its records are untouched
        assert list(base_dictionary) == before
        assert all(a is b for a, b in zip(base_dictionary, records))

    def test_coded_instruction_does_not_hide_the_back_instruction(
            self, benchmark_resources, benchmark_filter_inputs):
        # coupure carries a coded VERB instruction with the suffix of its
        # back-instruction to couper; the two differ only in code_letter.
        table = {**CODE_TABLE, "V": DerivInstruction(VERB, "er", code_letter="V")}
        coded = tuple(parse_derivation_codes("-V-", table))
        dictionary = Dictionary([
            verb_sense("couper", 1, "-U-"),
            SenseRecord(lemma="coupure", sense_id=1, pos=NOUN, domain_code="GEN",
                        instructions=coded),
        ])
        resource = build_resource(dictionary, benchmark_resources.model,
                                  *benchmark_filter_inputs)
        augmented = symmetrize_instructions(dictionary, resource)
        back = DerivInstruction(VERB, "er")
        assert augmented.senses["coupure"][0].instructions == coded + (back,)
        assert relicense(resource, augmented).stats.instructions_total == 3

    def test_symmetrizing_again_gains_nothing(self, benchmark_resources):
        res = benchmark_resources
        again = symmetrize_instructions(res.dictionary, res.resource)
        assert len(again) == len(res.dictionary)
        assert all(a is b for a, b in zip(again, res.dictionary))

    def test_rebuilds_verb_after_second_pass(self, benchmark_resources):
        records = benchmark_resources.resource.records_for("coupure")
        assert [r.surface for r in records] == ["couper"]
        assert records[0].target_pos == VERB
        assert records[0].suffix == "er"


class TestRelicense:
    def test_same_dictionary_gives_the_same_resource(self, benchmark_resources):
        res = benchmark_resources
        again = relicense(res.resource, res.dictionary)
        assert again == res.resource
        assert again.attested is res.resource.attested

    def test_rejects_other_lemmas(self, benchmark_resources, benchmark_filter_inputs):
        res = benchmark_resources
        resource = build_resource(Dictionary([verb_sense("laver", 1, "-G-")]), res.model,
                                  *benchmark_filter_inputs)
        with pytest.raises(ValueError, match="dictionary lemmas differ"):
            relicense(resource, Dictionary([verb_sense("couper", 1, "-G-")]))


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
