import dataclasses
import gc

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
from derivqa.lexica import ADJ, VERB, InflectionEntry, InflectionLexicon
import oracles
from oracles import dep_signature, graph_equal


@pytest.fixture(scope="module")
def lexicon(benchmark_resources):
    return benchmark_resources.lexicon


def token_cells(t) -> tuple:
    """A token's position and its fields, as the bank writes them."""
    return (t.index, t.surface, t.lemma, t.pos, t.sense_id, t.alternates, t.deriv_pattern,
            t.deriv_source)


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
        with pytest.raises(ValueError, match=r"in \[0, 1\), not \(0, 1\)"):
            graph.add_dep(Dependency(MODIFIER, (0, 1)))
        dep = Dependency(MODIFIER, (0, 0))
        graph.add_dep(dep)
        graph.add_dep(dep)
        assert graph.deps == [dep]

    @pytest.mark.parametrize("args", [(2, 0), (0, -1), (True, 0), (0, False), [0, 1],
                                      ("0", "1"), (0, 1.0)],
                             ids=["out-of-range", "negative", "bool-head", "bool-dependent",
                                  "list", "strings", "float"])
    def test_add_dep_refuses_args_the_bank_writer_refuses(self, args):
        graph = DependencyGraph("s", "t", [TokenNode(0, "a", "a", NOUN),
                                           TokenNode(1, "b", "b", NOUN)])
        message = f"dependency args must be a tuple of two integers in [0, 2), not {args!r}"
        with pytest.raises(ValueError) as exc:
            graph.add_dep(Dependency(MODIFIER, args))
        assert str(exc.value) == message
        assert graph.deps == []


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
        assert all(t.deriv_pattern is None and t.deriv_source is None for t in graph.tokens)

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


class TestReadingChoice:
    """The parser's reading choice over the tags `InflectionLexicon` splits
    once is the old choice that split them on every call."""

    # every (pos, subtags) query the parser makes
    QUERIES = [(NOUN, None), (ADJ, None), (VERB, {"inf"}), (VERB, {"pp"}),
               (VERB, depgraph._FINITE)]
    EDGE_TAGS = ["ADV", "V:", "X:pp", "V:pp:m:s"]

    def test_pre_split_tags_choose_as_split_per_call(self, lexicon):
        edges = [InflectionEntry(form, "edge", tags)
                 for form in ("coupé", "Edge") for tags in self.EDGE_TAGS]
        edges += [InflectionEntry("edge2", "edge", tags) for tags in reversed(self.EDGE_TAGS)]
        entries = [*lexicon.entries, *edges]
        groups = {}  # normalized form -> its entries in file order
        for e in entries:
            groups.setdefault(e.surface_form.lower(), []).append(e)
        by_form = InflectionLexicon(entries).by_form
        assert by_form.keys() == groups.keys()
        for form, group in groups.items():
            item = depgraph._Item(form, "WORD", readings=by_form[form])
            for pos, subtags in self.QUERIES:
                assert (depgraph._reading(item, pos, subtags)
                        is oracles.reading(group, pos, subtags)), (form, pos, subtags)


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
        graph = toy_parse(sentence, lexicon)
        assert lemma_sigs(graph) == expected
        assert len(graph.deps) == len(expected)  # no dependency twice

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
        b.tokens[1].deriv_pattern, b.tokens[1].deriv_source = "v2n_ure_obj", "couper"
        b.tokens[1].alternates = frozenset({"interruption"})
        b.deps.append(Dependency(MODIFIER, (1, 1), provenance=DERIVATIONAL))
        assert (a.tokens[1].deriv_pattern, a.tokens[1].deriv_source) == (None, None)
        assert a.tokens[1].alternates == frozenset()
        assert len(a.deps) == 1


NULL_HEADER = "derivqa_bank\t3\t\t"
GOOD_TOKEN = ["chef", "chef", "NOUN", "", "", "", ""]
TOKEN_CELLS = ("surface", "lemma", "pos", "sense", "alternates", "pattern", "source")
# A graph line written the way format 2 wrote it: one JSON array.
FORMAT_2_ROW = '["s1","x",[["chef","chef","NOUN",{},null,[]]],[]]'


def token(**cells):
    """GOOD_TOKEN with the named cells replaced."""
    return [cells.get(name, value) for name, value in zip(TOKEN_CELLS, GOOD_TOKEN)]


def graph_line(sid="s1", text="x", tokens=(GOOD_TOKEN,), deps=(), count=None):
    """A format-3 graph line: id, text, token count, then the token and
    dependency cells as given."""
    cells = [sid, text, str(len(tokens)) if count is None else count]
    for cell_group in (*tokens, *deps):
        cells += cell_group
    return "\t".join(cells)


def write_bank(path, *lines, header=NULL_HEADER):
    path.write_text("".join(line + "\n" for line in [header, *lines]), encoding="utf-8")


def write_record(path, **fields):
    write_bank(path, graph_line(**fields))


def load_error(path) -> str:
    """The message `load_depbank(path)` fails with, less the path before it."""
    with pytest.raises(DepbankError) as excinfo:
        load_depbank(path)
    message = str(excinfo.value)
    assert message.startswith(str(path))
    return message[len(str(path)):]


def save_error(graphs, path) -> str:
    """The message `save_depbank(graphs, path)` fails with, less the path
    before it; it writes nothing."""
    with pytest.raises(DepbankError) as excinfo:
        save_depbank(graphs, path)
    assert not path.exists()
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ")
    return message[len(f"{path}: "):]


def derivative_graph(lexicon):
    """A parsed graph with alternates, a sense and one derivative token."""
    graph = toy_parse("l'ouvrier coupa le courant .", lexicon, "s1")
    graph.tokens[1].alternates = frozenset({"artisan", "travailleur"})
    graph.tokens[1].sense_id = 1
    graph.tokens.append(TokenNode(len(graph.tokens), "coupure", "coupure", NOUN,
                                  deriv_pattern="v2n_ure_obj", deriv_source="couper"))
    graph.add_dep(Dependency(PREPPH, (5, 4), prep="de", provenance=DERIVATIONAL))
    return graph


class TestBankSerialization:
    def test_round_trip(self, tmp_path, lexicon):
        graphs = [
            derivative_graph(lexicon),
            toy_parse("Domitien est le successeur de l'empereur .", lexicon, "s2"),
        ]
        path = tmp_path / "bank.jsonl"
        save_depbank(DependencyBank(graphs, "deriv", "f00d"), path)
        header, first = path.read_text(encoding="utf-8").splitlines()[:2]
        assert header == "derivqa_bank\t3\tderiv\tf00d"
        assert first.split("\t")[:3] == ["s1", "l'ouvrier coupa le courant .", "6"]
        assert first.split("\t")[3 + 7:3 + 14] == [
            "ouvrier", "ouvrier", "NOUN", "1", "artisan;travailleur", "", ""]
        assert first.split("\t")[3 + 35:3 + 42] == [
            "coupure", "coupure", "NOUN", "", "", "v2n_ure_obj", "couper"]
        assert first.split("\t")[-5:] == ["PREPPH", "5", "4", "de", "DERIVATIONAL"]
        loaded = load_depbank(path)
        assert (loaded.mode, loaded.fingerprint) == ("deriv", "f00d")
        assert [g.sentence_id for g in loaded] == ["s1", "s2"]
        assert [(t.deriv_pattern, t.deriv_source) for t in loaded[0].tokens] == [
            (None, None)] * 5 + [("v2n_ure_obj", "couper")]
        for original, reread in zip(graphs, loaded):
            assert graph_equal(original, reread)
            assert reread.tokens == original.tokens
            assert reread.deps == original.deps

    def test_plain_list_saves_a_null_header(self, tmp_path, lexicon):
        path = tmp_path / "bank.jsonl"
        save_depbank([toy_parse("l'ouvrier coupa le courant .", lexicon, "s1")], path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == NULL_HEADER
        loaded = load_depbank(path)
        assert (len(loaded), loaded.mode, loaded.fingerprint) == (1, None, None)

    def test_empty_bank_is_a_header_and_round_trips(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        save_depbank(DependencyBank((), "base", "f00d"), path)
        assert path.read_text(encoding="utf-8") == "derivqa_bank\t3\tbase\tf00d\n"
        loaded = load_depbank(path)
        assert (len(loaded), loaded.mode, loaded.fingerprint) == (0, "base", "f00d")
        save_depbank(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_line_separators_stay_inside_the_text(self, tmp_path, lexicon):
        graph = toy_parse("l'ouvrier coupa le courant .", lexicon, "s1")
        graph.text = "l'ouvrier coupa\u0085le\rcourant .\r"
        path = tmp_path / "bank.jsonl"
        save_depbank([graph], path)
        (reread,) = load_depbank(path)
        assert reread.text == graph.text

    def test_rejects_invalid_json(self, tmp_path):
        """A line of broken JSON, like any line of an earlier format, is no
        format-3 header."""
        path = tmp_path / "bank.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        assert load_error(path) == ":1: not a derivqa_bank 3 header; rerun preprocess"

    @pytest.mark.parametrize("text, message", [
        # banks of earlier formats, one JSON value per line
        ('{"id":"s1","text":"x","tokens":[],"deps":[]}\n',
         ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ('\n["s1","x",[],[]]\n', ":2: not a derivqa_bank 3 header; rerun preprocess"),
        ('{"derivqa_bank":1,"mode":null,"fingerprint":null}\n',
         ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ('{"derivqa_bank":true,"mode":null,"fingerprint":null}\n',
         ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ('{"derivqa_bank":2,"mode":3,"fingerprint":null}\n',
         ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ('{"derivqa_bank":2,"mode":null}\n', ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("", ": no derivqa_bank 3 header; rerun preprocess"),
        (NULL_HEADER + "\n" + graph_line() + "\nderivqa_bank\t3\tderiv\t\n",
         ":3: bank header differs from the first one (mode=deriv fingerprint=None "
         "against mode=None fingerprint=None); rerun preprocess"),
        ('{"derivqa_bank":2,"mode":"deriv","fingerprint":"f00d"}\n' + FORMAT_2_ROW + "\n",
         ":1: not a derivqa_bank 3 header; rerun preprocess"),
        # format-3 counterparts
        (graph_line() + "\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("\n" + graph_line() + "\n", ":2: not a derivqa_bank 3 header; rerun preprocess"),
        ("derivqa_bank\t1\t\t\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("derivqa_bank\ttrue\t\t\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("derivqa_bank\t03\t\t\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("derivqa_bank\t3\t\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("derivqa_bank\t3\t\t\t\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        ("derivqa_bank\n", ":1: not a derivqa_bank 3 header; rerun preprocess"),
        (NULL_HEADER + "\nderivqa_bank\t2\t\t\n",
         ":2: not a derivqa_bank 3 header; rerun preprocess"),
        (NULL_HEADER + "\nderivqa_bank\t3\t\tf00d\n",
         ":2: bank header differs from the first one (mode=None fingerprint=f00d "
         "against mode=None fingerprint=None); rerun preprocess"),
    ], ids=["v1-record", "no-header", "format-1", "format-true", "mode-int", "short-header",
            "empty-file", "second-header-differs", "format-2",
            "v3-record", "v3-no-header", "v3-format-1", "v3-format-true", "v3-format-03",
            "v3-short-header", "v3-long-header", "v3-tag-alone", "v3-later-format-2",
            "v3-second-fingerprint"])
    def test_rejects_a_missing_or_foreign_header(self, tmp_path, text, message):
        path = tmp_path / "bank.jsonl"
        path.write_text(text, encoding="utf-8")
        assert load_error(path) == message

    def test_repeated_identical_header_is_skipped(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        write_bank(path, graph_line("s1"), NULL_HEADER, graph_line("s2", "y", tokens=()))
        assert [g.sentence_id for g in load_depbank(path)] == ["s1", "s2"]

    @pytest.mark.parametrize("line, message", [
        ("s1\tx", ":2: a graph line must start with id, text and token count"),
        ('{"id": "s1", "text": "x", "tokens": [], "deps": []}',
         ":2: a graph line must start with id, text and token count"),
        (graph_line(tokens=[GOOD_TOKEN[:6]], count="1"),
         ":2: id='s1': 6 cells follow a token count of 1; a graph line holds 7 per token, "
         "then 5 per dependency"),
        (graph_line(tokens=[GOOD_TOKEN + [""]], count="1"),
         ":2: id='s1': 8 cells follow a token count of 1; a graph line holds 7 per token, "
         "then 5 per dependency"),
        (graph_line(tokens=[['{"surface": "chef"}']], count="1"),
         ":2: id='s1': 1 cells follow a token count of 1; a graph line holds 7 per token, "
         "then 5 per dependency"),
        (graph_line(deps=[["SUBJECT", "0", "0", ""]]),
         ":2: id='s1': 11 cells follow a token count of 1; a graph line holds 7 per token, "
         "then 5 per dependency"),
        (graph_line(deps=[['{"label": "SUBJECT", "args": [0, 0]}']]),
         ":2: id='s1': 8 cells follow a token count of 1; a graph line holds 7 per token, "
         "then 5 per dependency"),
    ], ids=["record-short", "record-object", "token-short", "token-long", "token-object",
            "dependency-short", "dependency-object"])
    def test_rejects_rows_of_the_wrong_shape(self, tmp_path, line, message):
        path = tmp_path / "bank.jsonl"
        write_bank(path, line)
        assert load_error(path) == message

    def test_rejects_out_of_range_dep(self, tmp_path):
        write_record(tmp_path / "bank.jsonl", deps=[["SUBJECT", "0", "3", "", "BASE"]])
        assert load_error(tmp_path / "bank.jsonl") == (
            ":2: id='s1': dependency args out of range: [0, 3]")

    def test_rejects_an_arg_in_range_of_an_earlier_graph_only(self, tmp_path):
        dep = ["SUBJECT", "0", "1", "", "BASE"]
        write_bank(tmp_path / "bank.jsonl", graph_line("s1", tokens=[GOOD_TOKEN] * 2, deps=[dep]),
                   graph_line("s2", deps=[dep]))
        assert load_error(tmp_path / "bank.jsonl") == (
            ":3: id='s2': dependency args out of range: [0, 1]")

    def test_rejects_bad_provenance(self, tmp_path):
        write_record(tmp_path / "bank.jsonl", deps=[["MODIFIER", "0", "0", "", "GUESS"]])
        assert load_error(tmp_path / "bank.jsonl") == (
            ":2: id='s1': bad dependency record: unknown provenance 'GUESS'")

    def test_rejects_repeated_sentence_id(self, tmp_path, lexicon):
        """Two banks saved apart, then concatenated: the writer refuses a
        repeated id within one bank (TestBankWriter)."""
        texts = ["l'ouvrier a coupé le courant .", "le domestique lave le linge ."]
        for name, text in zip(("a", "b"), texts):
            save_depbank([toy_parse(text, lexicon, "x")], tmp_path / name)
        path = tmp_path / "bank.jsonl"
        path.write_bytes((tmp_path / "a").read_bytes() + (tmp_path / "b").read_bytes())
        assert load_error(path) == ":4: duplicate sentence id 'x'"

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


def set_text(graph, value):
    graph.text = value


def set_surface(graph, value):
    graph.tokens[0].surface = value


def set_derivation(graph, value):
    graph.tokens[0].deriv_pattern, graph.tokens[0].deriv_source = value


def set_alternates(graph, value):
    graph.tokens[0].alternates = value


def set_last_source(graph, value):
    """The source of a derivative token whose cells end the line."""
    graph.tokens[0].deriv_pattern, graph.tokens[0].deriv_source = "p", value
    graph.deps = []


def set_prep(graph, value):
    graph.deps[0] = Dependency(PREPPH, (0, 0), prep=value)


def set_args(graph, value):
    """The args of the dependency of a two-token graph."""
    graph.tokens.append(TokenNode(1, "chef", "chef", NOUN))
    graph.deps[0] = Dependency(SUBJECT, value)


def add_dependency(graph, value):
    graph.deps.append(value)


CELL_FAULT = ("every cell must be a string with no tab or newline, the line's last not "
              "ending in a carriage return")
ARGS_FAULT = "dependency args must be a tuple of two integers in [0, 2)"
DERIVATION_FAULT = ("deriv_pattern and deriv_source must both be None, or both non-empty "
                    "strings")


class TestBankWriter:
    """`save_depbank` refuses a bank `load_depbank` would not give back as it
    is, and writes nothing."""

    @pytest.mark.parametrize("edit, value, message", [
        (set_text, "a\tb", CELL_FAULT),
        (set_text, "a\nb", CELL_FAULT),
        (set_surface, "a\tb", CELL_FAULT),
        (set_prep, "de\n", CELL_FAULT),
        (set_last_source, "x\r", CELL_FAULT),
        (set_alternates, frozenset({"a", ""}),
         "token 0: alternates must be a set of non-empty strings without ';'"),
        (set_alternates, frozenset({"a;b"}),
         "token 0: alternates must be a set of non-empty strings without ';'"),
        (set_derivation, ("p", None), f"token 0: {DERIVATION_FAULT}"),
        (set_derivation, (None, "x"), f"token 0: {DERIVATION_FAULT}"),
        (set_derivation, ("p", ""), f"token 0: {DERIVATION_FAULT}"),
        (set_derivation, ("", "x"), f"token 0: {DERIVATION_FAULT}"),
        (set_args, (1, 5), f"{ARGS_FAULT}, not (1, 5)"),
        (set_args, (1, -1), f"{ARGS_FAULT}, not (1, -1)"),
        (set_args, (True, 0), f"{ARGS_FAULT}, not (True, 0)"),
        (set_args, ("1", "0"), f"{ARGS_FAULT}, not ('1', '0')"),
        (set_args, [1, 0], f"{ARGS_FAULT}, not [1, 0]"),
        (add_dependency, Dependency(SUBJECT, (0, 0)), "a dependency repeats"),
    ], ids=["tab-in-text", "newline-in-text", "tab-in-surface", "newline-in-prep",
            "final-carriage-return", "empty-alternate", "alternate-with-semicolon",
            "pattern-alone", "source-alone", "empty-source", "empty-pattern",
            "arg-out-of-range", "arg-negative", "arg-bool", "arg-string", "args-list",
            "repeated-dependency"])
    def test_refuses_a_cell_that_would_not_read_back(self, tmp_path, edit, value, message):
        graph = DependencyGraph("s1", "x", [TokenNode(0, "chef", "chef", NOUN)],
                                [Dependency(SUBJECT, (0, 0))])
        edit(graph, value)
        assert save_error([graph], tmp_path / "bank.jsonl") == f"id='s1': {message}"

    def test_refuses_the_header_tag_as_an_id(self, tmp_path):
        graph = DependencyGraph("derivqa_bank", "x", [TokenNode(0, "chef", "chef", NOUN)])
        assert save_error([graph], tmp_path / "bank.jsonl") == (
            "id='derivqa_bank': an id must not be the bank header tag")

    def test_refuses_a_repeated_id(self, tmp_path):
        graphs = [DependencyGraph(sid, text, [TokenNode(0, "chef", "chef", NOUN)])
                  for sid, text in [("s1", "x"), ("s2", "y"), ("s1", "z")]]
        assert save_error(graphs, tmp_path / "bank.jsonl") == "id='s1': duplicate sentence id"

    @pytest.mark.parametrize("mode, fingerprint", [
        ("", None), ("deriv", ""), ("de\triv", None), ("deriv", "f00d\r"), ("deriv", 3),
    ], ids=["empty-mode", "empty-fingerprint", "tab-in-mode", "final-carriage-return",
            "fingerprint-int"])
    def test_refuses_a_header_that_would_not_read_back(self, tmp_path, mode, fingerprint):
        bank = DependencyBank((), mode, fingerprint)
        assert save_error(bank, tmp_path / "bank.jsonl") == (
            "bank header: mode and fingerprint must be None or a string with no tab or "
            "newline, the line's last not ending in a carriage return, and not empty")


def _as_dependency(cells):
    label, arg0, arg1, prep, provenance = cells
    return Dependency(label, (int(arg0), int(arg1)), prep or None, provenance)


class TestBankFieldTypes:
    def test_good_record_loads(self, tmp_path):
        write_record(tmp_path / "bank.jsonl",
                     tokens=[token(sense="2", alternates="patron;responsable",
                                   pattern="v2n_ure_obj", source="couper")])
        (graph,) = load_depbank(tmp_path / "bank.jsonl")
        assert graph.tokens[0] == TokenNode(0, "chef", "chef", "NOUN", 2, {"patron", "responsable"},
                                            "v2n_ure_obj", "couper")

    @pytest.mark.parametrize("field, value", [
        ("alternates", "chef"),
        ("alternates", [1]),
        ("alternates", None),
        ("surface", 5),
        ("lemma", None),
        ("pos", ["NOUN"]),
        ("deriv_pattern", 0),
        ("deriv_pattern", ["v2n_ure_obj"]),
        ("deriv_source", 0),
        ("deriv_source", ["couper"]),
        ("sense", "two"),
        ("sense", True),
        ("sense", 1.0),
    ])
    def test_rejects_bad_token_field(self, tmp_path, field, value):
        """Every format-3 cell reads as a string, so a token field of the
        wrong type is refused when the bank is written."""
        messages = {
            "alternates": "token 0: alternates must be a set of non-empty strings without ';'",
            "surface": CELL_FAULT,
            "lemma": CELL_FAULT,
            "pos": CELL_FAULT,
            "deriv_pattern": f"token 0: {DERIVATION_FAULT}",
            "deriv_source": f"token 0: {DERIVATION_FAULT}",
            "sense": "token 0: sense must be an integer or None",
        }
        # the other derivation field well-typed, so that only `value` is wrong
        node = TokenNode(0, "chef", "chef", NOUN, deriv_pattern="v2n_ure_obj",
                         deriv_source="couper")
        if not field.startswith("deriv_"):
            node.deriv_pattern = node.deriv_source = None
        setattr(node, "sense_id" if field == "sense" else field, value)
        graph = DependencyGraph("s1", "x", [node])
        assert save_error([graph], tmp_path / "bank.jsonl") == f"id='s1': {messages[field]}"

    @pytest.mark.parametrize("cells, message", [
        (token(sense="two"), "id='s1': token 0 sense is not an integer: 'two'"),
        (token(sense="True"), "id='s1': token 0 sense is not an integer: 'True'"),
        (token(sense="1.0"), "id='s1': token 0 sense is not an integer: '1.0'"),
        (token(sense=" 3"), "id='s1': token 0 sense is not an integer: ' 3'"),
        (token(sense="9" * 5_000),
         "id='s1': token 0 sense is not an integer: 5000 digits is too many"),
        (token(alternates=";"), "id='s1': token 0: an alternate is empty: ';'"),
        (token(alternates="patron;;responsable"),
         "id='s1': token 0: an alternate is empty: 'patron;;responsable'"),
        (token(pattern="v2n_ure_obj"),
         "id='s1': token 0: a pattern needs a source, and a source a pattern"),
        (token(source="couper"),
         "id='s1': token 0: a pattern needs a source, and a source a pattern"),
    ], ids=["sense-two", "sense-True", "sense-1.0", "sense-space", "sense-long",
            "alternates-semicolon", "alternates-double-semicolon", "pattern-alone",
            "source-alone"])
    def test_rejects_bad_token_cell(self, tmp_path, cells, message):
        write_record(tmp_path / "bank.jsonl", tokens=[cells])
        assert load_error(tmp_path / "bank.jsonl") == f":2: {message}"

    @pytest.mark.parametrize("field, value", [
        ("id", 5),
        ("text", None),
        ("tokens", 5),
        ("deps", {"label": "SUBJECT"}),
    ])
    def test_rejects_bad_record_field(self, tmp_path, field, value):
        """As a token field, a graph field of the wrong type is refused when
        the bank is written."""
        graph = DependencyGraph("s1", "x", [TokenNode(0, "chef", "chef", NOUN)])
        setattr(graph, "sentence_id" if field == "id" else field, value)
        message = ("tokens and deps must be lists" if field in ("tokens", "deps")
                   else CELL_FAULT)
        assert save_error([graph], tmp_path / "bank.jsonl") == (
            f"id={graph.sentence_id!r}: {message}")

    @pytest.mark.parametrize("count, message", [
        ("x", "id='s1': token count is not an integer: 'x'"),
        ("", "id='s1': token count is not an integer: ''"),
        ("1.0", "id='s1': token count is not an integer: '1.0'"),
        ("9" * 5_000, "id='s1': token count is not an integer: 5000 digits is too many"),
        ("-1", "id='s1': 7 cells follow a token count of -1; a graph line holds 7 per token, "
               "then 5 per dependency"),
        ("2", "id='s1': 7 cells follow a token count of 2; a graph line holds 7 per token, "
              "then 5 per dependency"),
        ("0", "id='s1': 7 cells follow a token count of 0; a graph line holds 7 per token, "
              "then 5 per dependency"),
    ], ids=["word", "empty", "float", "long", "negative", "too-many", "too-few"])
    def test_rejects_bad_token_count(self, tmp_path, count, message):
        write_record(tmp_path / "bank.jsonl", count=count)
        assert load_error(tmp_path / "bank.jsonl") == f":2: {message}"

    @pytest.mark.parametrize("dep, message", [
        (["5", "0", "0", "", "BASE"], "unknown dependency label '5'"),
        (["FOREIGN", "0", "0", "", "BASE"], "unknown dependency label 'FOREIGN'"),
        (["PREPPH", "0", "0", "", "BASE"], "PREPPH takes two token args and a preposition string"),
        (["SUBJECT", "0", "0", "de", "BASE"],
         "SUBJECT takes exactly two token args and no preposition"),
        (["SUBJECT", "0", "0", "", '["BASE"]'], "unknown provenance '[\"BASE\"]'"),
        (["SUBJECT", "0", "0", "", "SYNONYM"], "unknown provenance 'SYNONYM'"),
        (["SUBJECT", "0", "0", "", ""], "unknown provenance ''"),
    ], ids=["label-int", "label-foreign", "prep-missing", "prep-extra",
            "provenance-list", "provenance-synonym", "provenance-empty"])
    def test_rejects_bad_dependency_field(self, tmp_path, dep, message):
        write_record(tmp_path / "bank.jsonl", deps=[dep])
        assert load_error(tmp_path / "bank.jsonl") == (
            f":2: id='s1': bad dependency record: {message}")

    def test_repeated_dependency_loads_once(self, tmp_path, monkeypatch):
        dep = ["SUBJECT", "0", "1", "", "BASE"]
        other = ["SUBJECT", "0", "1", "", "DERIVATIONAL"]
        write_record(tmp_path / "bank.jsonl", tokens=[GOOD_TOKEN, GOOD_TOKEN],
                     deps=[dep, other, dep, other])
        # the loader tells repeats apart by their cells, comparing no Dependency
        compared = []
        monkeypatch.setattr(Dependency, "__eq__",
                            lambda self, other: compared.append(self) or NotImplemented)
        (graph,) = load_depbank(tmp_path / "bank.jsonl")
        assert compared == []
        monkeypatch.undo()
        assert graph.deps == [Dependency(SUBJECT, (0, 1)),
                              Dependency(SUBJECT, (0, 1), provenance=DERIVATIONAL)]

    @pytest.mark.parametrize("args", [["True", "False"], ["0", "1.0"], ["0", " 1"], ["0", "-1"],
                                      ["9" * 5_000, "0"], ["0", ""]])
    def test_rejects_non_integer_dependency_args(self, tmp_path, args):
        write_record(tmp_path / "bank.jsonl", tokens=[GOOD_TOKEN, GOOD_TOKEN],
                     deps=[["SUBJECT", *args, "", "BASE"]])
        messages = {
            ("True", "False"): "dependency arg0 is not an integer: 'True'",
            ("0", "1.0"): "dependency arg1 is not an integer: '1.0'",
            ("0", " 1"): "dependency arg1 is not an integer: ' 1'",
            ("0", "-1"): "dependency args out of range: [0, -1]",
            ("9" * 5_000, "0"): "dependency arg0 is not an integer: 5000 digits is too many",
            ("0", ""): "dependency arg1 is not an integer: ''",
        }
        assert load_error(tmp_path / "bank.jsonl") == f":2: id='s1': {messages[tuple(args)]}"

    @pytest.mark.parametrize("good, bad, message", [
        (token(sense="2"), token(sense="x"), "token 1 sense is not an integer: 'x'"),
        (token(pattern="v2n_ure_obj", source="couper"), token(pattern="v2n_ure_obj"),
         "token 1: a pattern needs a source, and a source a pattern"),
    ], ids=["sense", "pattern-alone"])
    def test_rejects_a_bad_token_a_cell_away_from_a_good_one(self, tmp_path, good, bad, message):
        """Equal token cells are checked once; a group one cell away from a
        good one read before is checked, and named by its own line and index."""
        write_bank(tmp_path / "bank.jsonl", graph_line("s1", tokens=[good]),
                   graph_line("s2", "y", tokens=[good, bad]))
        assert load_error(tmp_path / "bank.jsonl") == f":3: id='s2': {message}"

    def test_equal_dependencies_of_a_bank_are_one_object(self, tmp_path):
        """Also when a hand-edited cell spells an arg otherwise: such a
        repeat in one graph is dropped, as a repeat of the same cells is."""
        dep = ["SUBJECT", "0", "0", "", "BASE"]
        derived = ["SUBJECT", "0", "0", "", "DERIVATIONAL"]
        respelled = ["SUBJECT", "00", "-0", "", "BASE"]
        write_bank(tmp_path / "bank.jsonl", graph_line("s1", deps=[respelled]),
                   graph_line("s2", "y", deps=[dep, derived, respelled]))
        first, second = load_depbank(tmp_path / "bank.jsonl")
        assert first.deps[0] is second.deps[0]
        assert second.deps == [_as_dependency(dep), _as_dependency(derived)]


class TestLoadedBankFootprint:
    """A loaded bank allocates few objects for the garbage collector to walk:
    one read-only token per distinct (position, cells), one shared empty
    alternates, shared dependencies."""

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
        distinct = {token_cells(t) for t in tokens}
        with_alternates = sum(1 for cells in distinct if cells[5])
        dependencies = len({id(d) for graph in bank for d in graph.deps})
        assert 0 < with_alternates < len(distinct) < len(tokens)
        # Per graph: the graph, its token list and its dependency list; then
        # each distinct (position, cells) token, each non-empty alternates set
        # and each distinct dependency.
        assert new <= len(distinct) + 3 * len(bank) + with_alternates + dependencies + 8
        empty = {id(t.alternates) for t in tokens if not t.alternates}
        assert empty == {id(TokenNode(0, "x", "x", NOUN).alternates)}
        assert not any(hasattr(t, "__dict__") for t in tokens)
        assert not any(hasattr(graph, "__dict__") for graph in bank)
        assert not any(hasattr(d, "__dict__") for graph in bank for d in graph.deps)

    def test_equal_cells_at_a_position_are_one_read_only_token(self, tmp_path,
                                                                benchmark_resources):
        path = tmp_path / "bank.tsv"
        save_depbank(pipeline.build_bank(benchmark_resources, "all"), path)
        bank = load_depbank(path)
        tokens = [t for graph in bank for t in graph.tokens]
        derivatives = [t for t in tokens if t.deriv_pattern is not None]
        fields = {
            "surface": [t.surface for t in tokens],
            "lemma": [t.lemma for t in tokens],
            "pos": [t.pos for t in tokens],
            "pattern": [t.deriv_pattern for t in derivatives],
            "source": [t.deriv_source for t in derivatives],
        }
        for name, values in fields.items():
            assert len(set(values)) < len(values), name
            assert len({id(value) for value in values}) == len(set(values)), name
        assert all(t.deriv_source is None for t in tokens if t.deriv_pattern is None)
        for graph in bank:
            assert [t.index for t in graph.tokens] == list(range(len(graph.tokens)))

        # Tokens of equal position and cells are one object, and no other is.
        by_cells = {}
        for t in tokens:
            by_cells.setdefault(token_cells(t), set()).add(id(t))
        assert all(len(ids) == 1 for ids in by_cells.values())
        assert len(by_cells) < len(tokens)
        twin = next(t for t in derivatives if sum(1 for u in tokens if u is t) > 1)

        # No field of a loaded token can be set, and no graph changes.
        before = [[token_cells(t) for t in graph.tokens] for graph in bank]
        values = {"index": 7, "surface": "autre", "lemma": "autre", "pos": VERB, "sense_id": 99,
                  "alternates": frozenset({"autre"}), "deriv_pattern": "v2a_e_obj",
                  "deriv_source": "autre"}
        assert set(values) == {f.name for f in dataclasses.fields(TokenNode)}
        for name, value in values.items():
            with pytest.raises(AttributeError, match="copy_graph"):
                setattr(twin, name, value)
            with pytest.raises(AttributeError, match="copy_graph"):
                delattr(twin, name)
        assert [[token_cells(t) for t in graph.tokens] for graph in bank] == before

        # A copy_graph copy is editable, token by token, and the bank stays.
        graph = next(g for g in bank if twin in g.tokens)
        copied = copy_graph(graph)
        assert copied == graph and graph == copied
        for t in copied.tokens:
            assert type(t) is TokenNode
            for name, value in values.items():
                setattr(t, name, value)
            assert token_cells(t) == tuple(values.values())
        assert [[token_cells(t) for t in graph.tokens] for graph in bank] == before
