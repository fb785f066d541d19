import pytest

from derivqa.depgraph import (
    ATTRIBUTE,
    BASE,
    DET,
    DIROBJ,
    DERIVATIONAL,
    MODIFIER,
    NOUN,
    OTHER,
    PREPPH,
    PRON,
    SUBJECT,
    SYNONYM,
    DepbankError,
    Dependency,
    DependencyBank,
    DependencyGraph,
    TokenNode,
    ToyParseError,
    UnknownTokenError,
    copy_graph,
    dep_signature,
    graph_equal,
    load_depbank,
    save_depbank,
    toy_parse,
)


@pytest.fixture(scope="module")
def lexicon(benchmark_resources):
    return benchmark_resources.lexicon


def sigs(graph, with_provenance=False):
    return {dep_signature(graph, d, with_provenance) for d in graph.deps}


class TestDependencyValidation:
    def test_prepph_needs_preposition(self):
        with pytest.raises(ValueError, match="preposition"):
            Dependency(PREPPH, (0, 1))

    def test_core_labels_reject_prep(self):
        with pytest.raises(ValueError, match="no preposition"):
            Dependency(SUBJECT, (0, 1), prep="de")

    def test_core_labels_need_two_args(self):
        with pytest.raises(ValueError):
            Dependency(DIROBJ, (0, 1, 2))

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError, match="provenance"):
            Dependency(SUBJECT, (0, 1), provenance="GUESS")

    def test_unknown_labels_pass_through(self):
        dep = Dependency("FOREIGN", (0,))
        assert dep.arity() == 1

    def test_prepph_arity_counts_preposition(self):
        assert Dependency(PREPPH, (0, 1), prep="de").arity() == 3
        assert Dependency(SUBJECT, (0, 1)).arity() == 2

    def test_add_dep_checks_range_and_dedupes(self):
        graph = DependencyGraph("s", "t", [TokenNode(0, "a", "a", NOUN)])
        with pytest.raises(ValueError, match="out of range"):
            graph.add_dep(Dependency(MODIFIER, (0, 1)))
        dep = Dependency(MODIFIER, (0, 0))
        graph.add_dep(dep)
        graph.add_dep(dep)
        assert graph.deps == [dep]


class TestToyParser:
    def test_simple_past_svo(self, lexicon):
        graph = toy_parse("l'ouvrier coupa le courant .", lexicon)
        assert sigs(graph) == {
            (SUBJECT, ("couper", "ouvrier"), None),
            (DIROBJ, ("couper", "courant"), None),
        }
        assert all(d.provenance == BASE for d in graph.deps)

    def test_compound_past_svo(self, lexicon):
        graph = toy_parse("l'ouvrier a coupé le courant .", lexicon)
        assert sigs(graph) == {
            (SUBJECT, ("couper", "ouvrier"), None),
            (DIROBJ, ("couper", "courant"), None),
        }
        aux = next(t for t in graph.tokens if t.surface == "a")
        assert aux.pos == OTHER

    def test_copula_attribute_with_pp(self, lexicon):
        graph = toy_parse("Domitien est le successeur de l'empereur .", lexicon)
        assert sigs(graph) == {
            (ATTRIBUTE, ("Domitien", "successeur"), None),
            (PREPPH, ("successeur", "empereur"), "de"),
        }
        proper = graph.tokens[0]
        assert proper.pos == NOUN
        assert proper.features == {"proper": "true"}

    def test_noun_phrase_fragment(self, lexicon):
        graph = toy_parse("la coupure du courant .", lexicon)
        assert sigs(graph) == {(PREPPH, ("coupure", "courant"), "de")}

    def test_par_attaches_to_top_head(self, lexicon):
        graph = toy_parse("la coupure du courant par l'ouvrier .", lexicon)
        assert sigs(graph) == {
            (PREPPH, ("coupure", "courant"), "de"),
            (PREPPH, ("coupure", "ouvrier"), "par"),
        }

    def test_chained_de_attaches_to_latest(self, lexicon):
        graph = toy_parse("le compartiment du navire du marchand .", lexicon)
        assert sigs(graph) == {
            (PREPPH, ("compartiment", "navire"), "de"),
            (PREPPH, ("navire", "marchand"), "de"),
        }

    def test_postnominal_adjective(self, lexicon):
        graph = toy_parse("le courant rapide .", lexicon)
        assert sigs(graph) == {(MODIFIER, ("courant", "rapide"), None)}

    def test_proper_apposition_and_case_marker(self, lexicon):
        graph = toy_parse("Domitien succéda à l'empereur Titus .", lexicon)
        assert sigs(graph) == {
            (SUBJECT, ("succéder", "Domitien"), None),
            (DIROBJ, ("succéder", "empereur"), None),
            (ATTRIBUTE, ("empereur", "Titus"), None),
        }

    def test_pronoun_subject(self, lexicon):
        graph = toy_parse("il prend le livre .", lexicon)
        assert sigs(graph) == {
            (SUBJECT, ("prendre", "il"), None),
            (DIROBJ, ("prendre", "livre"), None),
        }
        assert graph.tokens[0].pos == PRON

    def test_clitic_inversion_question(self, lexicon):
        graph = toy_parse("l'ouvrier coupa-t-il le courant ?", lexicon)
        assert sigs(graph) == {
            (SUBJECT, ("couper", "ouvrier"), None),
            (DIROBJ, ("couper", "courant"), None),
        }

    def test_fronted_interrogative(self, lexicon):
        graph = toy_parse("De quel empereur Domitien est-il le successeur ?", lexicon)
        assert sigs(graph) == {
            (ATTRIBUTE, ("Domitien", "successeur"), None),
            (PREPPH, ("successeur", "empereur"), "de"),
        }

    def test_infinitive_fragment(self, lexicon):
        graph = toy_parse("couper le courant .", lexicon)
        assert sigs(graph) == {(DIROBJ, ("couper", "courant"), None)}

    def test_unknown_token(self, lexicon):
        with pytest.raises(UnknownTokenError, match="xyzzy"):
            toy_parse("le xyzzy dort .", lexicon)

    def test_trailing_material_fails(self, lexicon):
        with pytest.raises(ToyParseError, match="trailing"):
            toy_parse("l'ouvrier coupa le courant le linge .", lexicon)

    def test_avoir_without_participle_fails(self, lexicon):
        with pytest.raises(ToyParseError, match="participle"):
            toy_parse("l'ouvrier a le courant .", lexicon)

    def test_missing_verb_fails(self, lexicon):
        with pytest.raises(ToyParseError, match="expected a verb"):
            toy_parse("l'ouvrier le courant .", lexicon)

    def test_sentence_ids_are_kept(self, lexicon):
        graph = toy_parse("la coupure du courant .", lexicon, sentence_id="s42")
        assert graph.sentence_id == "s42"
        assert graph.text == "la coupure du courant ."


class TestGraphComparison:
    def test_graph_equal_ignores_token_order(self, lexicon):
        a = toy_parse("l'ouvrier coupa le courant .", lexicon)
        b = toy_parse("l'ouvrier a coupé le courant .", lexicon)
        assert graph_equal(a, b)

    def test_graph_equal_sees_provenance(self, lexicon):
        a = toy_parse("la coupure du courant .", lexicon)
        b = copy_graph(a)
        b.deps = [Dependency(d.label, d.args, d.prep, SYNONYM) for d in b.deps]
        assert not graph_equal(a, b)
        assert graph_equal(a, b, ignore_provenance=True)

    def test_copy_graph_is_deep_enough(self, lexicon):
        a = toy_parse("la coupure du courant .", lexicon)
        b = copy_graph(a)
        b.tokens[1].alternates.add("interruption")
        b.deps.append(Dependency(MODIFIER, (1, 1), provenance=DERIVATIONAL))
        assert a.tokens[1].alternates == set()
        assert len(a.deps) == 1


class TestBankSerialization:
    def test_round_trip(self, tmp_path, lexicon):
        graphs = [
            toy_parse("l'ouvrier coupa le courant .", lexicon, "s1"),
            toy_parse("Domitien est le successeur de l'empereur .", lexicon, "s2"),
        ]
        graphs[0].tokens[1].alternates.add("artisan")
        graphs[0].tokens[1].sense_id = 1
        path = tmp_path / "bank.jsonl"
        save_depbank(graphs, path)
        loaded = load_depbank(path)
        assert [g.sentence_id for g in loaded] == ["s1", "s2"]
        for original, reread in zip(graphs, loaded):
            assert graph_equal(original, reread)
            assert [
                (t.surface, t.lemma, t.pos, t.features, t.sense_id, t.alternates)
                for t in original.tokens
            ] == [
                (t.surface, t.lemma, t.pos, t.features, t.sense_id, t.alternates)
                for t in reread.tokens
            ]

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(DepbankError, match="not valid JSON"):
            load_depbank(path)

    def test_rejects_gapped_token_indices(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(
            '{"id":"s1","text":"x","tokens":[{"i":1,"surface":"a","lemma":"a",'
            '"pos":"NOUN"}],"deps":[]}\n', encoding="utf-8")
        with pytest.raises(DepbankError, match="contiguous"):
            load_depbank(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"id":"s1","text":"x"}\n', encoding="utf-8")
        with pytest.raises(DepbankError, match="missing field"):
            load_depbank(path)

    def test_rejects_out_of_range_dep(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(
            '{"id":"s1","text":"x","tokens":[{"i":0,"surface":"a","lemma":"a",'
            '"pos":"NOUN"}],"deps":[{"label":"SUBJECT","args":[0,3]}]}\n',
            encoding="utf-8")
        with pytest.raises(DepbankError, match="out of range"):
            load_depbank(path)

    def test_rejects_bad_provenance(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(
            '{"id":"s1","text":"x","tokens":[{"i":0,"surface":"a","lemma":"a",'
            '"pos":"NOUN"}],"deps":[{"label":"MODIFIER","args":[0,0],'
            '"provenance":"GUESS"}]}\n', encoding="utf-8")
        with pytest.raises(DepbankError, match="bad dependency"):
            load_depbank(path)

    def test_banks_are_read_only_sequences(self, tmp_path, benchmark_resources):
        from collections.abc import Sequence

        from derivqa.pipeline import build_bank

        built = build_bank(benchmark_resources, "deriv", sentences=[
            ("s1", "l'ouvrier a coupé le courant ."),
            ("s2", "le domestique lave le linge ."),
        ])
        path = tmp_path / "bank.jsonl"
        save_depbank(built, path)
        loaded = load_depbank(path)
        for bank in (built, loaded):
            assert isinstance(bank, DependencyBank) and isinstance(bank, Sequence)
            first, second = bank
            assert [g.sentence_id for g in bank] == ["s1", "s2"]
            assert len(bank) == 2 and bank[0] is first and bank[-1] is second
            with pytest.raises(TypeError):
                bank[0] = second
            assert not hasattr(bank, "append")
        for original, reread in zip(built, loaded):
            assert graph_equal(original, reread)
        save_depbank(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


GOOD_TOKEN = {"i": 0, "surface": "chef", "lemma": "chef", "pos": "NOUN",
              "features": {}, "sense": None, "alternates": []}


def write_record(path, **fields):
    import json

    record = {"id": "s1", "text": "x", "tokens": [GOOD_TOKEN], "deps": []}
    record.update(fields)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


class TestBankFieldTypes:
    def test_good_record_loads(self, tmp_path):
        write_record(tmp_path / "bank.jsonl", tokens=[dict(GOOD_TOKEN, sense=2,
                                                           alternates=["patron"])])
        (graph,) = load_depbank(tmp_path / "bank.jsonl")
        assert graph.tokens[0].sense_id == 2
        assert graph.tokens[0].alternates == {"patron"}

    @pytest.mark.parametrize("field, value", [
        ("alternates", "chef"),
        ("alternates", [1]),
        ("surface", 5),
        ("lemma", None),
        ("pos", ["NOUN"]),
        ("features", ["proper"]),
        ("sense", "two"),
        ("sense", True),
    ])
    def test_rejects_bad_token_field(self, tmp_path, field, value):
        write_record(tmp_path / "bank.jsonl", tokens=[dict(GOOD_TOKEN, **{field: value})])
        with pytest.raises(DepbankError, match=rf"{field}\b[^:]*must be"):
            load_depbank(tmp_path / "bank.jsonl")

    @pytest.mark.parametrize("field, value", [
        ("id", 5),
        ("text", None),
        ("tokens", 5),
        ("deps", {"label": "SUBJECT"}),
    ])
    def test_rejects_bad_record_field(self, tmp_path, field, value):
        write_record(tmp_path / "bank.jsonl", **{field: value})
        with pytest.raises(DepbankError, match=rf"{field}\b[^:]*must be"):
            load_depbank(tmp_path / "bank.jsonl")

    @pytest.mark.parametrize("dep", [
        {"label": 5, "args": [0, 0]},
        {"label": "PREPPH", "args": [0, 0], "prep": ["de"]},
    ])
    def test_rejects_bad_dependency_field(self, tmp_path, dep):
        write_record(tmp_path / "bank.jsonl", deps=[dep])
        with pytest.raises(DepbankError, match="label and prep"):
            load_depbank(tmp_path / "bank.jsonl")
