import dataclasses
import json

import pytest

from derivqa import derivfilter, lexica, qaengine, wsd
from derivqa.depgraph import BASE, DERIVATIONAL
from derivqa.pipeline import (
    MODES,
    ConfigError,
    PipelineConfig,
    build_bank,
    enrich_for_mode,
    load_config,
    load_question_resources,
    load_resources,
    load_sentences,
    packaged_data,
    parse_questions,
)

from conftest import FIXTURES


def write_config(tmp_path, overrides=None, drop=()):
    base = {
        "dictionary": "dictionary.tsv",
        "inflections": "inflections.tsv",
        "corpus_lexicon": "corpus_lexicon.tsv",
        "synonyms": "synonyms.tsv",
    }
    benchmark = FIXTURES / "benchmark"
    for filename in base.values():
        (tmp_path / filename).write_bytes((benchmark / filename).read_bytes())
    config = {k: v for k, v in base.items() if k not in drop}
    config.update(overrides or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestConfig:
    def test_loads_benchmark_config(self, benchmark_config):
        config = benchmark_config
        assert config.suffix_threshold == 2
        assert config.symmetrize is True
        assert config.mode == "deriv"
        assert config.dictionary.is_absolute()

    def test_missing_required_path(self, tmp_path):
        path = write_config(tmp_path, drop=("synonyms",))
        with pytest.raises(ConfigError, match="missing required path 'synonyms'"):
            load_config(path)

    def test_nonexistent_file(self, tmp_path):
        path = write_config(tmp_path, {"dictionary": "absent.tsv"})
        with pytest.raises(ConfigError, match="no such file"):
            load_config(path)

    @pytest.mark.parametrize("key", ["surprise", "seed"])
    def test_unknown_key(self, tmp_path, key):
        path = write_config(tmp_path, {key: 1})
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1]", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(path)

    def test_type_checks(self, tmp_path):
        path = write_config(tmp_path, {"symmetrize": "yes"})
        with pytest.raises(ConfigError, match="symmetrize must be a boolean"):
            load_config(path)
        path = write_config(tmp_path, {"k": "three"})
        with pytest.raises(ConfigError, match="k must be an integer"):
            load_config(path)

    def test_k_range(self, tmp_path):
        path = write_config(tmp_path, {"k": 6})
        with pytest.raises(ConfigError, match=r"k must be in \[1, 5\]"):
            load_config(path)

    def test_bad_mode(self, tmp_path):
        path = write_config(tmp_path, {"mode": "turbo"})
        with pytest.raises(ConfigError, match="mode must be one of"):
            load_config(path)

    def test_numeric_floors(self, tmp_path):
        path = write_config(tmp_path, {"min_stem_len": 0})
        with pytest.raises(ConfigError, match="min_stem_len must be >= 1"):
            load_config(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path)
        assert config.dictionary == (tmp_path / "dictionary.tsv").resolve()

    def test_packaged_fallbacks_exist(self):
        for name in ("code_table.tsv", "euphonics.tsv", "patterns.txt"):
            assert packaged_data(name).is_file(), name


class TestLoadResources:
    def test_optional_paths_fall_back_to_packaged_data(self, tmp_path):
        path = write_config(tmp_path, {"min_syllables": 2})
        res = load_resources(load_config(path))
        assert [p.pattern_id for p in res.patterns][:2] == ["v2n_eur_svo", "v2n_eur_subj"]
        assert any((ins.target_pos, ins.suffix) == (lexica.NOUN, "eur")
                   for s in res.dictionary for ins in s.instructions)
        # the packaged euphonics file carries only the mute-e rule, so the
        # éd->ess surface is absent without the benchmark's euphonics file
        assert res.resource.records_for("succéder") == []

    def test_symmetrize_off_means_no_back_derivatives(self, tmp_path):
        config = write_config(tmp_path, {
            "euphonics": str(FIXTURES / "benchmark" / "euphonics.tsv"),
            "min_syllables": 2,
        })
        res = load_resources(load_config(config))
        assert res.config.symmetrize is False
        assert res.resource.records_for("coupure") == []
        assert all(ins.target_pos != lexica.VERB for s in res.dictionary for ins in s.instructions)

    def test_symmetrize_on_rebuilds(self, benchmark_resources):
        assert [r.surface for r in benchmark_resources.resource.records_for("coupure")] == ["couper"]

    def test_symmetrize_generates_each_lemma_once(self, benchmark_config, monkeypatch):
        calls = []
        generate = derivfilter.attested_candidates
        monkeypatch.setattr(derivfilter, "attested_candidates",
                            lambda lemma, *args: calls.append(lemma) or generate(lemma, *args))
        res = load_resources(benchmark_config)
        assert res.config.symmetrize is True
        assert sorted(calls) == sorted(res.dictionary.senses)
        assert res.resource.stats.candidates_generated == 493

    @pytest.mark.parametrize("fixture", ["benchmark", "couper_family"])
    def test_symmetrize_leaves_the_sense_rules_as_they_are(self, fixture):
        config = dataclasses.replace(load_config(FIXTURES / fixture / "config.json"),
                                     symmetrize=True)
        question = load_question_resources(config)
        res = load_resources(config)
        assert wsd.compile_rules(res.dictionary, res.lexicon) == question.compilation
        assert res.compilation == question.compilation
        assert res.fingerprint == question.fingerprint
        # the dictionary is the loaded one, back-instructions and all
        assert res.dictionary == question.dictionary

    def test_unknown_code_letter_is_logged_once(self, benchmark_config, caplog):
        # the resource build and symmetrize read the one sense coded
        # '-Q- - - RB- - -' through its resolved instructions, never the table
        with caplog.at_level("WARNING", logger="derivqa"):
            load_resources(benchmark_config)
        unknown = [r.getMessage() for r in caplog.records
                   if r.getMessage().startswith("unknown derivation code")]
        assert unknown == ["unknown derivation code 'R' in '-Q- - - RB- - -'"]


RESOURCE_FILES = {"dictionary": "dictionary.tsv", "inflections": "inflections.tsv",
                  "corpus_lexicon": "corpus_lexicon.tsv", "synonyms": "synonyms.tsv",
                  "patterns": "patterns.txt", "euphonics": "euphonics.tsv",
                  "code_table": "code_table.tsv"}


def fingerprint_of(directory, edit=None, **overrides) -> str:
    """Resources.fingerprint of the couper_family setup, every resource file
    named and copied under `directory` (packaged ones included), with
    sentences and questions; `edit` names a file that gets one more byte, a
    blank line, and `overrides` replace config fields."""
    directory.mkdir(exist_ok=True)
    family = FIXTURES / "couper_family"
    raw = json.loads((family / "config.json").read_text(encoding="utf-8"))
    for name, filename in RESOURCE_FILES.items():
        source = family / filename if name in raw else packaged_data(filename)
        data = source.read_bytes() + (b"\n" if name == edit else b"")
        (directory / filename).write_bytes(data)
        raw[name] = filename
    benchmark = FIXTURES / "benchmark"
    for name in ("sentences", "questions"):
        (directory / f"{name}.tsv").write_bytes((benchmark / f"{name}.tsv").read_bytes())
        raw[name] = f"{name}.tsv"
    raw.update(overrides)
    (directory / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return load_resources(load_config(directory / "config.json")).fingerprint


class TestFingerprint:
    def test_benchmark_fixture_value(self, benchmark_config, benchmark_resources):
        # A bank carries this value, so a change to what is hashed or how
        # makes every bank built before it foreign.
        pinned = "7c70dd5f3d55b130bf5ce6098b11cb3bb2242fe303b9561b2f5b651d21d7ccdb"
        assert benchmark_resources.fingerprint == pinned
        assert load_question_resources(benchmark_config).fingerprint == pinned

    def test_every_resource_file_changes_it(self, tmp_path):
        reference = fingerprint_of(tmp_path / "reference")
        assert len(reference) == 64 and set(reference) <= set("0123456789abcdef")
        for name in RESOURCE_FILES:
            assert fingerprint_of(tmp_path / name, edit=name) != reference, name

    @pytest.mark.parametrize("field, value", [
        ("suffix_threshold", 2),
        ("min_stem_len", 4),
        ("max_stems_per_lemma", 3),
        ("min_syllables", 3),
        ("symmetrize", True),
    ])
    def test_every_bank_tunable_changes_it(self, tmp_path, field, value):
        assert fingerprint_of(tmp_path / "a") != fingerprint_of(tmp_path / "b", **{field: value})

    def test_what_shapes_no_bank_leaves_it(self, tmp_path):
        reference = fingerprint_of(tmp_path / "reference")
        assert fingerprint_of(tmp_path / "elsewhere") == reference
        (tmp_path / "other.tsv").write_text("q1\tquelle coupure ?\ts1\n", encoding="utf-8")
        assert fingerprint_of(tmp_path / "query", k=1, require_full_match=True, mode="base",
                              sentences="../other.tsv", questions="../other.tsv") == reference

    def test_packaged_defaults_hash_as_their_bytes(self, tmp_path):
        path = write_config(tmp_path)
        implicit = load_resources(load_config(path)).fingerprint
        raw = json.loads(path.read_text(encoding="utf-8"))
        for name in ("patterns", "euphonics", "code_table"):
            raw[name] = str(packaged_data(RESOURCE_FILES[name]))
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert load_resources(load_config(path)).fingerprint == implicit


class TestSentences:
    def test_load_sentences(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("# bank\ns1\tle courant rapide .\ns2\tla coupure du courant .\n",
                        encoding="utf-8")
        assert load_sentences(path) == [
            ("s1", "le courant rapide ."),
            ("s2", "la coupure du courant ."),
        ]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("s1\ta .\ns1\tb .\n", encoding="utf-8")
        from derivqa.lexica import LexiconError
        with pytest.raises(LexiconError, match="duplicate sentence id"):
            load_sentences(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("s1\n", encoding="utf-8")
        from derivqa.lexica import LexiconError
        with pytest.raises(LexiconError, match="expected 2 columns"):
            load_sentences(path)


class TestBankConstruction:
    def test_modes_disagree_on_enrichment(self, benchmark_resources):
        from derivqa.depgraph import toy_parse
        from derivqa.wsd import disambiguate
        res = benchmark_resources
        graph = toy_parse("l'ouvrier a coupé le courant .", res.lexicon, "s11")
        disambiguate(graph, res.compilation, res.dictionary)

        baseline = enrich_for_mode(graph, res, "baseline")
        assert baseline is graph

        base = enrich_for_mode(graph, res, "base")
        assert all(d.provenance == BASE for d in base.deps)
        assert any(t.alternates for t in base.tokens)

        deriv = enrich_for_mode(graph, res, "deriv")
        assert any(d.provenance == DERIVATIONAL for d in deriv.deps)

        everything = enrich_for_mode(graph, res, "all")
        deriv_count = sum(1 for d in deriv.deps if d.provenance == DERIVATIONAL)
        all_count = sum(1 for d in everything.deps if d.provenance == DERIVATIONAL)
        assert all_count >= deriv_count

    def test_unknown_mode_rejected(self, benchmark_resources):
        from derivqa.depgraph import toy_parse
        graph = toy_parse("la coupure du courant .", benchmark_resources.lexicon)
        with pytest.raises(ConfigError, match="mode must be one of"):
            enrich_for_mode(graph, benchmark_resources, "turbo")

    def test_build_bank_skips_unparsable(self, benchmark_resources, caplog):
        res = benchmark_resources
        rows = [
            ("s1", "l'ouvrier a coupé le courant ."),
            ("s2", "grmbl zzz ."),
            ("s3", "la coupure du courant ."),
        ]
        with caplog.at_level("WARNING"):
            bank = build_bank(res, "baseline", sentences=rows)
        assert [g.sentence_id for g in bank] == ["s1", "s3"]
        assert len(res.skipped_sentences) == 1
        assert res.skipped_sentences[0][0] == "s2"
        assert any("skipping s2" in r.message for r in caplog.records)

    def test_build_bank_requires_sentences(self, tmp_path):
        path = write_config(tmp_path, {"min_syllables": 2})
        res = load_resources(load_config(path))
        with pytest.raises(ConfigError, match="no sentences file"):
            build_bank(res, "baseline")

    def test_one_dictionary_builds_its_index_once(self, benchmark_config, monkeypatch):
        calls = []
        senses_by_lemma = lexica.senses_by_lemma
        monkeypatch.setattr(lexica, "senses_by_lemma",
                            lambda records: calls.append(len(records)) or senses_by_lemma(records))
        res = load_resources(benchmark_config)
        assert len(calls) == 1  # symmetrize on, and still the one dictionary
        calls.clear()
        bank = build_bank(res, "all")
        parse_questions(res, qaengine.load_questions(benchmark_config.questions))
        assert len(bank) == 55
        assert calls == []

    def test_benchmark_bank_parses_fully(self, benchmark_resources):
        bank = build_bank(benchmark_resources, "baseline")
        assert len(bank) == 55
        assert benchmark_resources.skipped_sentences == []

    def test_only_appended_tokens_carry_a_derivation(self, benchmark_resources):
        """A parsed token has neither a derivation pattern nor a source; a
        derivative token, appended after the parsed ones, has both."""
        parsed = {g.sentence_id: len(g.tokens) for g in build_bank(benchmark_resources, "baseline")}
        derivatives = {}
        for mode in MODES:
            derivatives[mode] = 0
            for graph in build_bank(benchmark_resources, mode):
                n = parsed[graph.sentence_id]
                assert all(t.deriv_pattern is None and t.deriv_source is None
                           for t in graph.tokens[:n])
                assert all(t.deriv_pattern is not None and t.deriv_source is not None
                           for t in graph.tokens[n:])
                derivatives[mode] += len(graph.tokens) - n
        assert derivatives["baseline"] == derivatives["base"] == 0
        assert derivatives["deriv"] > 0 and derivatives["all"] > 0

    def test_questions_are_disambiguated_but_never_enriched(self, benchmark_questions):
        parsed = benchmark_questions
        assert len(parsed) == 22
        for question, gold in parsed:
            assert all(d.provenance == BASE for d in question.graph.deps)
            assert all(not t.alternates for t in question.graph.tokens)
            assert all(t.deriv_pattern is None for t in question.graph.tokens)
        formalise = next(q for q, _ in parsed if q.question_id == "QA3")
        verb = next(t for t in formalise.graph.tokens if t.lemma == "formaliser")
        assert verb.sense_id == 2
