import gc
import json

import pytest

from derivqa import depgraph, pipeline
from derivqa.depgraph import (
    ATTRIBUTE,
    BASE,
    DIROBJ,
    DERIVATIONAL,
    MODIFIER,
    NOUN,
    OTHER,
    PREPPH,
    PRON,
    SUBJECT,
    DepbankError,
    Dependency,
    DependencyBank,
    DependencyGraph,
    TokenNode,
    ToyParseError,
    UnknownTokenError,
    copy_graph,
    load_depbank,
    save_depbank,
    toy_parse,
)
from oracles import dep_signature, graph_equal


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

    def test_unknown_labels_rejected(self):
        with pytest.raises(ValueError, match="unknown dependency label 'FOREIGN'"):
            Dependency("FOREIGN", (0, 1))

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
        assert all(t.features == {} for t in graph.tokens)

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
        assert [(t.surface, t.lemma) for t in graph.tokens if t.pos == PRON] == [("-il", "il")]

    def test_fronted_interrogative(self, lexicon):
        graph = toy_parse("De quel empereur Domitien est-il le successeur ?", lexicon)
        assert sigs(graph) == {
            (ATTRIBUTE, ("Domitien", "successeur"), None),
            (PREPPH, ("successeur", "empereur"), "de"),
        }
        assert [(t.surface, t.lemma) for t in graph.tokens if t.pos == PRON] == [("-il", "il")]

    @pytest.mark.parametrize("sentence, piece", [
        ("Domitien visita -qq le palais", "-qq"),
        ("Domitien est -qq le empereur", "-qq"),
        ("l'ouvrier coupa -il le courant ?", "-il"),
        ("la coupure d'-qq .", "-qq"),
        ("l'ouvrier coupa - le courant ?", "-"),
    ])
    def test_free_standing_hyphen_word_is_unknown(self, lexicon, sentence, piece):
        # Only a clitic split off a verb is a pronoun; a word that merely
        # starts with "-" is outside the lexicon.
        with pytest.raises(UnknownTokenError) as info:
            toy_parse(sentence, lexicon)
        assert str(info.value) == f"token outside lexicon: {piece!r}"

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

    def test_closed_class_sets_are_disjoint(self):
        # so one lookup in `_CLOSED` classifies a word as the old chain of
        # set tests did, in whatever order
        sets = [depgraph._DETS, set(depgraph._FUSED), depgraph._PREPS, depgraph._PRONS,
                depgraph._AUX_AVOIR, depgraph._COPULA]
        assert sum(map(len, sets)) == len(set().union(*sets)) == len(depgraph._CLOSED)

    def test_sentence_ids_are_kept(self, lexicon):
        graph = toy_parse("la coupure du courant .", lexicon, sentence_id="s42")
        assert graph.sentence_id == "s42"
        assert graph.text == "la coupure du courant ."


def lemma_sigs(graph):
    """(label, prep, head lemma, dependent lemma) of each dependency."""
    return {(d.label, d.prep, *(graph.tokens[i].lemma for i in d.args)) for d in graph.deps}


class TestGrammarPins:
    """One sentence per construction of the `depgraph` module docstring, and
    one per failure the grammar can reach, each with what it must give."""

    @pytest.mark.parametrize("sentence, expected", [
        pytest.param("l'ouvrier coupa le courant .", {
            (SUBJECT, None, "couper", "ouvrier"),
            (DIROBJ, None, "couper", "courant")}, id="svo-simple-past"),
        pytest.param("le domestique lave le linge .", {
            (SUBJECT, None, "laver", "domestique"),
            (DIROBJ, None, "laver", "linge")}, id="svo-present"),
        pytest.param("l'ouvrier a coupé le courant .", {
            (SUBJECT, None, "couper", "ouvrier"),
            (DIROBJ, None, "couper", "courant")}, id="svo-avoir-participle"),
        pytest.param("Domitien est le successeur de l'empereur .", {
            (ATTRIBUTE, None, "Domitien", "successeur"),
            (PREPPH, "de", "successeur", "empereur")}, id="copular-attribute"),
        pytest.param("la coupure du courant par l'ouvrier .", {
            (PREPPH, "de", "coupure", "courant"),
            (PREPPH, "par", "coupure", "ouvrier")}, id="de-par-complements"),
        pytest.param("le compartiment du navire du marchand .", {
            (PREPPH, "de", "compartiment", "navire"),
            (PREPPH, "de", "navire", "marchand")}, id="chained-de"),
        pytest.param("Domitien succéda à l'empereur Titus .", {
            (SUBJECT, None, "succéder", "Domitien"),
            (DIROBJ, None, "succéder", "empereur"),
            (ATTRIBUTE, None, "empereur", "Titus")}, id="proper-apposition"),
        pytest.param("le courant rapide .", {
            (MODIFIER, None, "courant", "rapide")}, id="postnominal-adjective"),
        pytest.param("l'ouvrier coupa-t-il le courant ?", {
            (SUBJECT, None, "couper", "ouvrier"),
            (DIROBJ, None, "couper", "courant")}, id="clitic-inversion"),
        pytest.param("De quel empereur Domitien est-il le successeur ?", {
            (ATTRIBUTE, None, "Domitien", "successeur"),
            (PREPPH, "de", "successeur", "empereur")}, id="fronted-interrogative"),
        pytest.param("couper le courant par l'ouvrier .", {
            (DIROBJ, None, "couper", "courant"),
            (PREPPH, "par", "couper", "ouvrier")}, id="infinitive-fragment"),
        pytest.param("la coupure du courant .", {
            (PREPPH, "de", "coupure", "courant")}, id="noun-phrase-fragment"),
    ])
    def test_construction(self, lexicon, sentence, expected):
        assert lemma_sigs(toy_parse(sentence, lexicon)) == expected

    # The twelve `fail` messages and the unknown token. The unattached-word
    # check in `toy_parse` guards against a wrong graph; no sentence reaches it.
    @pytest.mark.parametrize("sentence, error, message", [
        (" . ", ToyParseError, "unparsable: empty sentence"),
        ("l'ouvrier coupa le courant de", ToyParseError,
         "unparsable: expected a noun phrase"),
        ("l'ouvrier coupa le", ToyParseError, "unparsable: dangling determiner"),
        ("le rapide coupa le courant .", ToyParseError,
         "unparsable: expected a noun, got 'rapide'"),
        ("dans le courant .", ToyParseError, "unparsable: expected a noun phrase at 'dans'"),
        ("l'ouvrier coupa le courant le linge .", ToyParseError,
         "unparsable: trailing material from 'le'"),
        ("De quel rapide Domitien est-il le successeur ?", ToyParseError,
         "unparsable: fronted interrogative needs a noun after 'quel'"),
        ("De quel empereur ?", ToyParseError, "unparsable: expected a subject"),
        ("De quel empereur Domitien succéda à Titus ?", ToyParseError,
         "unparsable: fronted interrogative needs a copula"),
        ("l'ouvrier a le courant .", ToyParseError,
         "unparsable: avoir needs a past participle"),
        ("l'ouvrier le courant .", ToyParseError, "unparsable: expected a verb, got 'le'"),
        ("Domitien succéda à", ToyParseError, "unparsable: dangling preposition"),
        ("le xyzzy dort .", UnknownTokenError, "token outside lexicon: 'xyzzy'"),
    ])
    def test_failure(self, lexicon, sentence, error, message):
        with pytest.raises(ToyParseError) as info:
            toy_parse(sentence, lexicon)
        assert type(info.value) is error
        assert str(info.value) == message


class TestGraphComparison:
    def test_graph_equal_ignores_token_order(self, lexicon):
        a = toy_parse("l'ouvrier coupa le courant .", lexicon)
        b = toy_parse("l'ouvrier a coupé le courant .", lexicon)
        assert graph_equal(a, b)

    def test_graph_equal_sees_provenance(self, lexicon):
        a = toy_parse("la coupure du courant .", lexicon)
        b = copy_graph(a)
        b.deps = [Dependency(d.label, d.args, d.prep, DERIVATIONAL) for d in b.deps]
        assert not graph_equal(a, b)
        assert graph_equal(a, b, ignore_provenance=True)

    def test_copy_graph_is_deep_enough(self, lexicon):
        a = toy_parse("la coupure du courant .", lexicon)
        b = copy_graph(a)
        b.tokens[1].features["proper"] = "true"
        b.tokens[1].alternates = frozenset({"interruption"})
        b.deps.append(Dependency(MODIFIER, (1, 1), provenance=DERIVATIONAL))
        assert a.tokens[1].features == {}
        assert a.tokens[1].alternates == frozenset()
        assert len(a.deps) == 1


NULL_HEADER = '{"derivqa_bank":2,"mode":null,"fingerprint":null}'
GOOD_TOKEN = ["chef", "chef", "NOUN", {}, None, []]
TOKEN_FIELDS = ("surface", "lemma", "pos", "features", "sense", "alternates")


def token(**fields):
    """GOOD_TOKEN with the named fields replaced."""
    return [fields.get(name, value) for name, value in zip(TOKEN_FIELDS, GOOD_TOKEN)]


def write_bank(path, *lines, header=NULL_HEADER):
    """Write `header`, then one line per row: a string as it is, anything
    else as JSON."""
    lines = [header, *(row if isinstance(row, str) else json.dumps(row) for row in lines)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_record(path, **fields):
    record = {"id": "s1", "text": "x", "tokens": [GOOD_TOKEN], "deps": []}
    record.update(fields)
    write_bank(path, list(record.values()))


class TestBankSerialization:
    def test_round_trip(self, tmp_path, lexicon):
        graphs = [
            toy_parse("l'ouvrier coupa le courant .", lexicon, "s1"),
            toy_parse("Domitien est le successeur de l'empereur .", lexicon, "s2"),
        ]
        graphs[0].tokens[1].alternates = frozenset({"artisan"})
        graphs[0].tokens[1].sense_id = 1
        path = tmp_path / "bank.jsonl"
        save_depbank(DependencyBank(graphs, "deriv", "f00d"), path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == (
            '{"derivqa_bank":2,"mode":"deriv","fingerprint":"f00d"}')
        loaded = load_depbank(path)
        assert (loaded.mode, loaded.fingerprint) == ("deriv", "f00d")
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

    def test_plain_list_saves_a_null_header(self, tmp_path, lexicon):
        path = tmp_path / "bank.jsonl"
        save_depbank([toy_parse("l'ouvrier coupa le courant .", lexicon, "s1")], path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == NULL_HEADER
        loaded = load_depbank(path)
        assert (len(loaded), loaded.mode, loaded.fingerprint) == (1, None, None)

    def test_empty_bank_is_a_header_and_round_trips(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        save_depbank(DependencyBank((), "base", "f00d"), path)
        assert path.read_text(encoding="utf-8") == (
            '{"derivqa_bank":2,"mode":"base","fingerprint":"f00d"}\n')
        loaded = load_depbank(path)
        assert (len(loaded), loaded.mode, loaded.fingerprint) == (0, "base", "f00d")
        save_depbank(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_line_separators_stay_inside_the_text(self, tmp_path, lexicon):
        graph = toy_parse("l'ouvrier coupa le courant .", lexicon, "s1")
        graph.text = "l'ouvrier\u2028coupa\u0085le courant ."
        path = tmp_path / "bank.jsonl"
        save_depbank([graph], path)
        (reread,) = load_depbank(path)
        assert reread.text == graph.text

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(DepbankError, match="not valid JSON"):
            load_depbank(path)

    @pytest.mark.parametrize("text, message", [
        ('{"id":"s1","text":"x","tokens":[],"deps":[]}\n',
         "bank.jsonl:1: not a derivqa_bank 2 header; rerun preprocess"),
        ('\n["s1","x",[],[]]\n', "bank.jsonl:2: not a derivqa_bank 2 header; rerun preprocess"),
        ('{"derivqa_bank":1,"mode":null,"fingerprint":null}\n',
         "bank.jsonl:1: not a derivqa_bank 2 header"),
        ('{"derivqa_bank":true,"mode":null,"fingerprint":null}\n',
         "bank.jsonl:1: not a derivqa_bank 2 header"),
        ('{"derivqa_bank":2,"mode":3,"fingerprint":null}\n',
         "bank.jsonl:1: not a derivqa_bank 2 header"),
        ('{"derivqa_bank":2,"mode":null}\n', "bank.jsonl:1: not a derivqa_bank 2 header"),
        ("", "bank.jsonl: no derivqa_bank 2 header; rerun preprocess"),
        (NULL_HEADER + '\n["s1","x",[],[]]\n'
         '{"derivqa_bank":2,"mode":"deriv","fingerprint":null}\n',
         r"bank.jsonl:3: bank header differs from the first one \(mode=deriv fingerprint=None "
         r"against mode=None fingerprint=None\); rerun preprocess"),
    ], ids=["v1-record", "no-header", "format-1", "format-true", "mode-int", "short-header",
            "empty-file", "second-header-differs"])
    def test_rejects_a_missing_or_foreign_header(self, tmp_path, text, message):
        path = tmp_path / "bank.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DepbankError, match=message):
            load_depbank(path)

    def test_repeated_identical_header_is_skipped(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        write_bank(path, ["s1", "x", [GOOD_TOKEN], []], NULL_HEADER, ["s2", "y", [], []])
        assert [g.sentence_id for g in load_depbank(path)] == ["s1", "s2"]

    @pytest.mark.parametrize("row, message", [
        (["s1", "x", [GOOD_TOKEN]], r"graph row must be a list \[id, text, tokens, deps\]"),
        ({"id": "s1", "text": "x", "tokens": [], "deps": []}, "graph row must be a list"),
        (["s1", "x", [GOOD_TOKEN[:5]], []], "token 0 must be a list"),
        (["s1", "x", [GOOD_TOKEN + [0]], []], "token 0 must be a list"),
        (["s1", "x", [{"surface": "chef"}], []], "token 0 must be a list"),
        (["s1", "x", [GOOD_TOKEN], [["SUBJECT", 0, 0, None]]], "dependency must be a list"),
        (["s1", "x", [GOOD_TOKEN], [{"label": "SUBJECT", "args": [0, 0]}]],
         "dependency must be a list"),
    ], ids=["record-short", "record-object", "token-short", "token-long", "token-object",
            "dependency-short", "dependency-object"])
    def test_rejects_rows_of_the_wrong_shape(self, tmp_path, row, message):
        path = tmp_path / "bank.jsonl"
        write_bank(path, row)
        with pytest.raises(DepbankError, match=message):
            load_depbank(path)

    def test_rejects_out_of_range_dep(self, tmp_path):
        write_record(tmp_path / "bank.jsonl", deps=[["SUBJECT", 0, 3, None, "BASE"]])
        with pytest.raises(DepbankError, match="out of range"):
            load_depbank(tmp_path / "bank.jsonl")

    def test_rejects_bad_provenance(self, tmp_path):
        write_record(tmp_path / "bank.jsonl", deps=[["MODIFIER", 0, 0, None, "GUESS"]])
        with pytest.raises(DepbankError, match="bad dependency record: unknown provenance"):
            load_depbank(tmp_path / "bank.jsonl")

    def test_rejects_repeated_sentence_id(self, tmp_path, lexicon):
        graphs = [toy_parse("l'ouvrier a coupé le courant .", lexicon, "x"),
                  toy_parse("le domestique lave le linge .", lexicon, "x")]
        path = tmp_path / "bank.jsonl"
        save_depbank(graphs, path)
        with pytest.raises(DepbankError, match=r"bank.jsonl:3: duplicate sentence id 'x'"):
            load_depbank(path)

    def test_banks_are_read_only_sequences(self, tmp_path, benchmark_resources):
        from collections.abc import Sequence

        from derivqa.pipeline import build_bank

        built = build_bank(benchmark_resources, "base", sentences=[
            ("s1", "l'ouvrier a coupé le courant ."),
            ("s2", "le domestique lave le linge ."),
        ])
        assert (built.mode, built.fingerprint) == ("base", benchmark_resources.fingerprint)
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
            assert (bank.mode, bank.fingerprint) == (built.mode, built.fingerprint)
        for original, reread in zip(built, loaded):
            assert graph_equal(original, reread)
        save_depbank(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


class TestBankFieldTypes:
    def test_good_record_loads(self, tmp_path):
        write_record(tmp_path / "bank.jsonl",
                     tokens=[token(sense=2, alternates=["patron"], features={"proper": "true"})])
        (graph,) = load_depbank(tmp_path / "bank.jsonl")
        assert graph.tokens[0] == TokenNode(0, "chef", "chef", "NOUN", {"proper": "true"},
                                            2, {"patron"})

    @pytest.mark.parametrize("field, value", [
        ("alternates", "chef"),
        ("alternates", [1]),
        ("alternates", None),
        ("surface", 5),
        ("lemma", None),
        ("pos", ["NOUN"]),
        ("features", ["proper"]),
        ("features", None),
        ("features", {"deriv_pattern": 0}),
        ("features", {"proper": ["x"]}),
        ("sense", "two"),
        ("sense", True),
        ("sense", 1.0),
    ])
    def test_rejects_bad_token_field(self, tmp_path, field, value):
        write_record(tmp_path / "bank.jsonl", tokens=[token(**{field: value})])
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

    @pytest.mark.parametrize("dep, message", [
        ([5, 0, 0, None, "BASE"], "unknown dependency label 5"),
        (["FOREIGN", 0, 0, None, "BASE"], "unknown dependency label 'FOREIGN'"),
        (["PREPPH", 0, 0, ["de"], "BASE"], "PREPPH takes two token args and a preposition string"),
        (["PREPPH", 0, 0, None, "BASE"], "PREPPH takes two token args and a preposition string"),
        (["SUBJECT", 0, 0, "de", "BASE"], "SUBJECT takes exactly two token args and no prep"),
        (["SUBJECT", 0, 0, None, ["BASE"]], "unhashable type: 'list'"),
        (["SUBJECT", 0, 0, None, "SYNONYM"], "unknown provenance 'SYNONYM'"),
    ], ids=["label-int", "label-foreign", "prep-list", "prep-missing", "prep-extra",
            "provenance-list", "provenance-synonym"])
    def test_rejects_bad_dependency_field(self, tmp_path, dep, message):
        write_record(tmp_path / "bank.jsonl", deps=[dep])
        with pytest.raises(DepbankError, match=f"bad dependency record: {message}"):
            load_depbank(tmp_path / "bank.jsonl")

    def test_repeated_dependency_loads_once(self, tmp_path, monkeypatch):
        dep = ["SUBJECT", 0, 1, None, "BASE"]
        other = ["SUBJECT", 0, 1, None, "DERIVATIONAL"]
        write_record(tmp_path / "bank.jsonl", tokens=[GOOD_TOKEN, GOOD_TOKEN],
                     deps=[dep, other, dep, other])
        # the loader tells repeats apart by their rows, comparing no Dependency
        compared = []
        monkeypatch.setattr(Dependency, "__eq__",
                            lambda self, other: compared.append(self) or NotImplemented)
        (graph,) = load_depbank(tmp_path / "bank.jsonl")
        assert compared == []
        monkeypatch.undo()
        assert graph.deps == [Dependency(SUBJECT, (0, 1)),
                              Dependency(SUBJECT, (0, 1), provenance=DERIVATIONAL)]

    @pytest.mark.parametrize("args", [[True, False], [0, 1.0], [0, "1"], [0, -1]])
    def test_rejects_non_integer_dependency_args(self, tmp_path, args):
        write_record(tmp_path / "bank.jsonl", tokens=[GOOD_TOKEN, GOOD_TOKEN],
                     deps=[["SUBJECT", *args, None, "BASE"]])
        with pytest.raises(DepbankError, match="args not integers or out of range"):
            load_depbank(tmp_path / "bank.jsonl")

    def test_equal_dependencies_of_a_bank_are_one_object(self, tmp_path):
        dep = ["SUBJECT", 0, 0, None, "BASE"]
        derived = ["SUBJECT", 0, 0, None, "DERIVATIONAL"]
        write_bank(tmp_path / "bank.jsonl", ["s1", "x", [GOOD_TOKEN], [dep]],
                   ["s2", "y", [GOOD_TOKEN], [dep, derived]])
        first, second = load_depbank(tmp_path / "bank.jsonl")
        assert first.deps[0] is second.deps[0]
        assert second.deps == [Dependency(SUBJECT, (0, 0)),
                               Dependency(SUBJECT, (0, 0), provenance=DERIVATIONAL)]


class TestLoadedBankFootprint:
    """A loaded bank allocates few objects for the garbage collector to walk:
    slotted tokens, one shared empty alternates, shared dependencies."""

    def test_load_tracks_one_object_per_token_and_three_per_graph(self, tmp_path,
                                                                  benchmark_resources):
        path = tmp_path / "bank.jsonl"
        save_depbank(pipeline.build_bank(benchmark_resources, "all"), path)
        gc.collect()
        before = len(gc.get_objects())
        bank = load_depbank(path)
        gc.collect()
        new = len(gc.get_objects()) - before

        tokens = [t for graph in bank for t in graph.tokens]
        with_alternates = sum(1 for t in tokens if t.alternates)
        dependencies = len({id(d) for graph in bank for d in graph.deps})
        assert 0 < with_alternates < len(tokens)
        # Per graph: the graph, its token list and its dependency list; then
        # each non-empty alternates set and each distinct dependency.
        assert new <= len(tokens) + 3 * len(bank) + with_alternates + dependencies + 8
        empty = {id(t.alternates) for t in tokens if not t.alternates}
        assert empty == {id(TokenNode(0, "x", "x", NOUN).alternates)}
        assert not any(hasattr(t, "__dict__") for t in tokens)
