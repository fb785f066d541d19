import pytest

import oracles
from conftest import FIXTURES
from oracles import dep_signature, graph_equal
from derivqa.depgraph import (
    BASE,
    DERIVATIONAL,
    PREPPH,
    SUBJECT,
    Dependency,
    copy_graph,
    toy_parse,
)
from derivqa.derivfilter import DerivationalResource, DerivativeRecord
from derivqa.lexica import NOUN, VERB, Dictionary
from derivqa.pipeline import (
    MODES,
    enrich_for_mode,
    load_config,
    load_resources,
    load_sentences,
    packaged_data,
)
from derivqa import rephrase
from derivqa.rephrase import (
    DepTemplate,
    _enumerate_bindings,
    PatternError,
    apply_pattern,
    enrich,
    enrich_synonyms,
    match_pattern,
    parse_patterns,
)
from derivqa.wsd import disambiguate

PACKAGED_IDS = [
    "v2n_eur_svo", "v2n_eur_subj", "v2n_ure_obj", "v2n_ure_svo",
    "v2n_age_obj", "v2n_age_svo", "v2n_ation_obj", "v2n_ation_svo",
    "v2a_ant_subj", "v2a_e_obj", "n2v_er_de",
]


@pytest.fixture(scope="module")
def res(benchmark_resources):
    return benchmark_resources


@pytest.fixture(scope="module")
def patterns(res):
    return {p.pattern_id: p for p in res.patterns}


def parsed(res, text):
    graph = toy_parse(text, res.lexicon)
    return disambiguate(graph, res.compilation, res.dictionary)


def deriv_sigs(graph):
    return {
        dep_signature(graph, d, with_provenance=False)
        for d in graph.deps if d.provenance == DERIVATIONAL
    }


class TestParsePatterns:
    def test_packaged_file(self, res):
        assert [p.pattern_id for p in res.patterns] == PACKAGED_IDS

    def test_templates_and_constr(self, patterns):
        svo = patterns["v2n_eur_svo"]
        assert svo.pivot_pos == VERB
        assert (svo.deriv_pos, svo.deriv_suffix) == (NOUN, "eur")
        assert svo.inputs == (
            DepTemplate("SUBJECT", ("P", "X")),
            DepTemplate("DIROBJ", ("P", "Y")),
        )
        assert svo.outputs == (
            DepTemplate("ATTRIBUTE", ("X", "D")),
            DepTemplate("PREPPH", ("D", "Y"), "de"),
        )
        assert svo.construction == "T"
        assert patterns["v2n_eur_subj"].construction is None

    def test_dash_means_empty_suffix(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "PATTERN bare\nPIVOT VERB\nDERIV NOUN -\n"
            "IN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND\n", encoding="utf-8")
        (pattern,) = parse_patterns(path)
        assert pattern.deriv_suffix == ""

    @pytest.mark.parametrize("body,message", [
        ("PIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "outside a pattern block"),
        ("PATTERN a\nPIVOT VERB\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "missing DERIV"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\n",
         "unterminated"),
        ("PATTERN a\nPIVOT XYZ\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "bad pivot pos"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "DERIV takes"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(X,Y)\nOUT ATTRIBUTE(X,D)\nEND",
         "pivot variable P unused"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,D)\nOUT ATTRIBUTE(P,D)\nEND",
         "reserved"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(Z,D)\nEND",
         "unbound"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(P,X)\nEND",
         "no output template mentions D"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN BADLABEL(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "unknown dependency label"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN PREPPH(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "head,prep,dependent"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN PREPPH(P,Z,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "literal string"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,xx)\nOUT ATTRIBUTE(D,D)\nEND",
         "single-letter"),
        ("PATTERN a\nPIVOT VERB\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "duplicate PIVOT"),
        ("PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND\n"
         "PATTERN a\nPIVOT VERB\nDERIV NOUN eur\nIN SUBJECT(P,X)\nOUT ATTRIBUTE(X,D)\nEND",
         "duplicate pattern id"),
        ("END", "END outside"),
    ])
    def test_rejections(self, tmp_path, body, message):
        path = tmp_path / "p.txt"
        path.write_text(body + "\n", encoding="utf-8")
        with pytest.raises(PatternError, match=message):
            parse_patterns(path)


class TestSynonymEnrichment:
    def test_attaches_alternates(self, res):
        graph = parsed(res, "Domitien succéda à l'empereur Titus .")
        out = enrich_synonyms(graph, res.synonyms)
        emperor = next(t for t in out.tokens if t.lemma == "empereur")
        assert emperor.alternates == {"chef"}
        verb = next(t for t in out.tokens if t.lemma == "succéder")
        assert verb.alternates == {"remplacer"}
        # the original graph is untouched
        assert all(not t.alternates for t in graph.tokens)

    def test_non_content_tokens_skipped(self, res):
        graph = parsed(res, "il prend le livre .")
        out = enrich_synonyms(graph, res.synonyms)
        pron = out.tokens[0]
        assert pron.alternates == set()

    def test_base_deps_untouched(self, res):
        graph = parsed(res, "Domitien succéda à l'empereur Titus .")
        out = enrich_synonyms(graph, res.synonyms)
        assert out.deps == graph.deps


class TestMatchPattern:
    def test_svo_match_bindings(self, res, patterns):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        pivot = next(t.index for t in graph.tokens if t.lemma == "couper")
        matches = match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                res.resource, res.dictionary)
        assert len(matches) == 1
        match = matches[0]
        assert match.derivative.surface == "coupeur"
        subj = next(t.index for t in graph.tokens if t.lemma == "ouvrier")
        obj = next(t.index for t in graph.tokens if t.lemma == "courant")
        assert match.bindings == {"P": pivot, "X": subj, "Y": obj}

    def test_pos_gate(self, res, patterns):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        noun = next(t.index for t in graph.tokens if t.lemma == "courant")
        assert match_pattern(graph, patterns["v2n_eur_svo"], noun,
                             res.resource, res.dictionary) == []

    def test_matches_agree_with_exhaustive_enumeration(self, res, patterns):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        base = [d for d in graph.deps if d.provenance == BASE]
        for pattern in patterns.values():
            for pivot in range(len(graph.tokens)):
                expected = oracles.enumerate_bindings(pattern, base, pivot)
                matches = match_pattern(graph, pattern, pivot,
                                        res.resource, res.dictionary)
                got = {frozenset(m.bindings.items()) for m in matches}
                assert got <= expected
                if graph.tokens[pivot].pos == pattern.pivot_pos and matches:
                    surfaces = {m.derivative.surface for m in matches}
                    assert all(s for s in surfaces)

    def test_construction_gate_blocks_intransitive(self, res, patterns):
        # succéder is coded Ti, whose prefix "T" satisfies CONSTR T; make a
        # strictly intransitive clone to verify the gate actually rejects.
        # The clone is a Dictionary with a copy of its index, or a new
        # Dictionary of copied records that builds its own.
        graph = parsed(res, "Domitien succéda à l'empereur Titus .")
        pivot = next(t.index for t in graph.tokens if t.lemma == "succéder")
        with_dict = match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                  res.resource, res.dictionary)
        assert [m.derivative.surface for m in with_dict] == ["successeur"]

        import copy
        for intrans in (copy.deepcopy(res.dictionary),
                        Dictionary(copy.deepcopy(list(res.dictionary)))):
            for sense in intrans:
                if sense.lemma == "succéder":
                    sense.construction_codes = ("I",)
            assert match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                 res.resource, intrans) == []

    def test_construction_gate_waived_without_codes(self, res, patterns):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        pivot = next(t.index for t in graph.tokens if t.lemma == "couper")
        # an empty dictionary: the CONSTR line cannot be checked, match anyway
        matches = match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                res.resource, Dictionary())
        assert [m.derivative.surface for m in matches] == ["coupeur"]

    def test_alternate_pivot_lemmas(self, res, patterns):
        # "trancher" has no -ure derivative, but its synonym "couper" does
        graph = parsed(res, "le boucher trancha la viande .")
        graph = enrich_synonyms(graph, res.synonyms)
        pivot = next(t.index for t in graph.tokens if t.lemma == "trancher")
        without = match_pattern(graph, patterns["v2n_ure_obj"], pivot,
                                res.resource, res.dictionary)
        assert without == []
        with_alt = match_pattern(graph, patterns["v2n_ure_obj"], pivot,
                                 res.resource, res.dictionary, use_alternates=True)
        assert [m.derivative.surface for m in with_alt] == ["coupure"]

    def test_own_lemma_names_a_derivative_its_alternate_shares(self, res, patterns):
        # "trancher" and its synonym "couper" both derive "coupure" here: the
        # pivot's own record comes first, so the token names "trancher"
        graph = parsed(res, "le boucher trancha la viande .")
        resource = DerivationalResource({
            lemma: [DerivativeRecord("coupure", NOUN, "ure", lemma, frozenset({1}))]
            for lemma in ("trancher", "couper")})
        out = enrich(graph, res.synonyms, [patterns["v2n_ure_obj"]], resource,
                     res.dictionary, compose=True)
        assert [(t.lemma, t.deriv_pattern, t.deriv_source)
                for t in out.tokens[len(graph.tokens):]] == [
            ("coupure", "v2n_ure_obj", "trancher")]

    def test_repeated_dependencies_bind_once(self, res, patterns):
        # every dependency twice: four ways to choose, one binding
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        graph.deps += graph.deps
        pivot = next(t.index for t in graph.tokens if t.lemma == "couper")
        matches = match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                res.resource, res.dictionary)
        assert [m.derivative.surface for m in matches] == ["coupeur"]

    def test_unlicensed_sense_blocks_derivative(self, res, patterns):
        graph = parsed(res, "la conduite formalise Pierre .")
        pivot = next(t.index for t in graph.tokens if t.lemma == "formaliser")
        token = graph.tokens[pivot]
        assert token.sense_id == 1
        assert match_pattern(graph, patterns["v2n_ation_svo"], pivot,
                             res.resource, res.dictionary) == []


class TestEnumerateBindings:
    def test_templates_sharing_a_variable(self):
        # SUBJ(P,X) then PREPPH(X,de,Y) at pivot 0: X is bound by the first
        # template, so the second keeps only dependencies headed by that X
        templates = (DepTemplate(SUBJECT, ("P", "X")), DepTemplate(PREPPH, ("X", "Y"), "de"))
        deps = [
            Dependency(SUBJECT, (0, 1)),
            Dependency(SUBJECT, (3, 1)),          # P is 0, not 3
            Dependency(SUBJECT, (0, 2)),
            Dependency(PREPPH, (1, 4), prep="de"),
            Dependency(PREPPH, (2, 5), prep="de"),
            Dependency(PREPPH, (1, 8), prep="à"),  # another preposition
            Dependency(PREPPH, (1, 9), prep="de"),
        ]
        assert _enumerate_bindings(templates, deps, 0) == [
            {"P": 0, "X": 1, "Y": 4},
            {"P": 0, "X": 1, "Y": 9},
            {"P": 0, "X": 2, "Y": 5},
        ]

    def test_no_consistent_choice(self):
        templates = (DepTemplate(SUBJECT, ("P", "X")), DepTemplate(PREPPH, ("X", "P"), "de"))
        deps = [Dependency(SUBJECT, (0, 1)), Dependency(PREPPH, (1, 2), prep="de")]
        assert _enumerate_bindings(templates, deps, 0) == []


class TestApplyPattern:
    def test_adds_derivative_token_and_deps(self, res, patterns):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        pivot = next(t.index for t in graph.tokens if t.lemma == "couper")
        (match,) = match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                 res.resource, res.dictionary)
        out = copy_graph(graph)
        deriv = apply_pattern(out, match)
        assert len(out.tokens) == len(graph.tokens) + 1
        assert deriv is out.tokens[-1]
        assert deriv.lemma == "coupeur"
        assert (deriv.deriv_pattern, deriv.deriv_source) == ("v2n_eur_svo", "couper")
        assert deriv_sigs(out) == {
            ("ATTRIBUTE", ("ouvrier", "coupeur"), None),
            ("PREPPH", ("coupeur", "courant"), "de"),
        }
        # BASE deps preserved, in order
        assert [d for d in out.deps if d.provenance == BASE] == graph.deps

    def test_idempotent_per_match(self, res, patterns):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        pivot = next(t.index for t in graph.tokens if t.lemma == "couper")
        (match,) = match_pattern(graph, patterns["v2n_eur_svo"], pivot,
                                 res.resource, res.dictionary)
        first = apply_pattern(graph, match)
        tokens, deps = list(graph.tokens), list(graph.deps)
        again = apply_pattern(graph, match)
        assert again is first
        assert graph.tokens == tokens
        assert graph.deps == deps

    def test_enrich_is_deterministic(self, res):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        a = enrich(graph, res.synonyms, res.patterns, res.resource, res.dictionary,
                   compose=True)
        b = enrich(graph, res.synonyms, res.patterns, res.resource, res.dictionary,
                   compose=True)
        assert graph_equal(a, b)
        assert [(t.lemma, t.alternates) for t in a.tokens] == \
            [(t.lemma, t.alternates) for t in b.tokens]
        # the input is untouched
        assert len(graph.tokens) == 6
        assert {d.provenance for d in graph.deps} == {BASE}
        assert all(not t.alternates for t in graph.tokens)


@pytest.fixture(scope="module", params=["benchmark", "rescue", "couper_family"])
def fixture_graphs(request):
    """One fixture's resources and its corpus sentences, parsed and
    sense-tagged. couper_family has no corpus, and its lexicon cannot parse
    its one sense example, so it gets two sentences in its own vocabulary."""
    res = load_resources(load_config(FIXTURES / request.param / "config.json"))
    if res.config.sentences:
        texts = [text for _, text in load_sentences(res.config.sentences)]
    else:
        texts = ["Jean a coupé le coupon .", "le coupeur coupe le coupon ."]
    return res, [parsed(res, text) for text in texts]


def token_of(graph, lemma):
    return next(t for t in graph.tokens if t.lemma == lemma)


class TestEnrichmentModes:
    def test_base_deps_preserved_by_every_mode(self, res):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        base = {dep_signature(graph, d) for d in graph.deps}
        for mode in MODES:
            out = enrich_for_mode(graph, res, mode)
            kept = {dep_signature(out, d) for d in out.deps
                    if d.provenance == BASE}
            assert kept == base, mode
            assert [t.lemma for t in out.tokens[:len(graph.tokens)]] == \
                [t.lemma for t in graph.tokens], mode

    def test_base_adds_no_deps(self, res):
        graph = parsed(res, "Domitien succéda à l'empereur Titus .")
        out = enrich_for_mode(graph, res, "base")
        assert out.deps == graph.deps
        assert any(t.alternates for t in out.tokens)

    def test_deriv_ignores_alternates(self, res):
        # "trancher" has no -ure derivative; only its synonym "couper" has
        graph = parsed(res, "le boucher trancha la viande .")
        out = enrich_for_mode(graph, res, "deriv")
        assert token_of(out, "trancher").alternates == {"couper"}
        assert deriv_sigs(out) == set()
        assert all(t.lemma != "coupure" for t in out.tokens)

    def test_all_composes(self, res):
        graph = parsed(res, "le boucher trancha la viande .")
        out = enrich_for_mode(graph, res, "all")
        assert ("PREPPH", ("coupure", "viande"), "de") in deriv_sigs(out)
        assert token_of(out, "viande").alternates == {"chair"}

    def test_all_gives_derivatives_of_own_lemmas_synonyms(self, res):
        graph = parsed(res, "l'ouvrier a coupé le courant .")
        out = enrich_for_mode(graph, res, "all")
        assert token_of(out, "coupure").alternates == {"interruption"}

    def test_derivative_reached_through_an_alternate_gets_no_synonyms(self, res):
        # "coupure" has the synonym "interruption", but here it is reached
        # only through "couper", the synonym of "trancher"
        assert res.synonyms.lookup("coupure", None) == {"interruption"}
        graph = parsed(res, "le boucher trancha la viande .")
        out = enrich_for_mode(graph, res, "all")
        coupure = token_of(out, "coupure")
        assert coupure.deriv_source == "couper"
        assert coupure.alternates == set()

    @pytest.mark.parametrize("mode", ["deriv", "all"])
    def test_enrich_matches_plain_enrichment(self, fixture_graphs, mode):
        res, graphs = fixture_graphs
        for graph in graphs:
            args = (graph, res.synonyms, res.patterns, res.resource, res.dictionary)
            got = enrich(*args, compose=mode == "all")
            want = oracles.plain_enrich(*args, compose=mode == "all")
            assert (got.tokens, got.deps) == (want.tokens, want.deps), graph.sentence_id

    def test_all_extends_deriv_on_every_fixture_sentence(self, res):
        sentences = load_sentences(res.config.sentences)
        with_synonyms = through_alternates = 0
        for sid, text in sentences:
            graph = parsed(res, text)
            deriv = enrich_for_mode(graph, res, "deriv")
            full = enrich_for_mode(graph, res, "all")
            sigs = {dep_signature(full, d) for d in full.deps}
            assert {dep_signature(deriv, d) for d in deriv.deps} <= sigs, sid
            n = len(graph.tokens)
            assert [t.alternates for t in deriv.tokens[:n]] == \
                [t.alternates for t in full.tokens[:n]], sid
            own = {(t.deriv_pattern, t.lemma) for t in deriv.tokens[n:]}
            for token in full.tokens[n:]:
                if (token.deriv_pattern, token.lemma) in own:
                    want = res.synonyms.lookup(token.lemma, None) - {token.lemma}
                    with_synonyms += bool(want)
                else:
                    want = set()
                    through_alternates += 1
                assert token.alternates == want, (sid, token.lemma)
        assert with_synonyms and through_alternates


# --- where enrich tries a pattern -----------------------------------------------

def _record(surface, suffix, source):
    return DerivativeRecord(surface, NOUN, suffix, source, frozenset({1}))


TRANCHAGE = _record("tranchage", "age", "trancher")
COUPURE = _record("coupure", "ure", "couper")

# sentence, lemma -> alternates set on its parsed token, the resource's
# by_lemma, and the derivative lemmas enrich adds without and with compose
GROUPING_CASES = {
    # the pivot's own lemma has an -age record only, so no -ure pattern runs
    "own_lemma_other_suffix_only": (
        "le boucher trancha la viande .", {}, {"trancher": [TRANCHAGE]},
        (["tranchage"] * 2, ["tranchage"] * 2)),
    # only the alternate "couper" holds an -ure record
    "alternate_alone_holds_the_kind": (
        "le boucher trancha la viande .", {}, {"couper": [COUPURE]},
        ([], ["coupure"] * 2)),
    # one lemma maps to no record, another lists its record twice
    "empty_and_repeated_records": (
        "le boucher trancha la viande .", {}, {"trancher": [], "couper": [COUPURE] * 2},
        ([], ["coupure"] * 2)),
    # "couper" has no synonyms, so its own lemma stays among its alternates
    # and under compose the same record comes through both pivot lemmas
    "own_lemma_among_alternates": (
        "l'ouvrier a coupé le courant .", {"couper": frozenset({"couper"})},
        {"couper": [COUPURE]},
        (["coupure"] * 2, ["coupure"] * 2)),
}


def _match_key(match):
    return match.derivative.surface, sorted(match.bindings.items())


class TestEnrichGrouping:
    @pytest.mark.parametrize("compose", [False, True], ids=["deriv", "all"])
    @pytest.mark.parametrize("case", sorted(GROUPING_CASES))
    def test_agrees_with_plain_enrichment(self, res, case, compose):
        text, alternates, by_lemma, derivatives = GROUPING_CASES[case]
        graph = parsed(res, text)
        for token in graph.tokens:
            token.alternates = alternates.get(token.lemma, token.alternates)
        resource = DerivationalResource(by_lemma)
        args = (graph, res.synonyms, res.patterns, resource, res.dictionary)
        got = enrich(*args, compose=compose)
        want = oracles.plain_enrich(*args, compose=compose)
        assert (got.tokens, got.deps) == (want.tokens, want.deps)
        assert [t.lemma for t in got.tokens[len(graph.tokens):]] == derivatives[compose]
        # each (binding, record) is matched once, however often the record repeats
        synonymized = enrich_synonyms(graph, res.synonyms)
        for pattern in res.patterns:
            for pivot in range(len(graph.tokens)):
                matches = match_pattern(synonymized, pattern, pivot, resource,
                                        res.dictionary, use_alternates=compose)
                plain = oracles.plain_matches(synonymized, pattern, pivot, resource,
                                              res.dictionary, compose)
                assert sorted(matches, key=_match_key) == sorted(plain, key=_match_key)

    @pytest.mark.parametrize("mode", ["deriv", "all"])
    def test_matching_is_tried_only_where_a_pivot_lemma_holds_the_kind(
            self, res, monkeypatch, mode):
        compose = mode == "all"
        calls = []

        def counting(graph, pattern, pivot, *args, **kwargs):
            token = graph.tokens[pivot]
            lemmas = [(token.lemma, token.sense_id)]
            if kwargs["use_alternates"]:
                lemmas += [(alt, None) for alt in token.alternates]
            calls.append((pattern.pattern_id, pivot, lemmas))
            return match_pattern(graph, pattern, pivot, *args, **kwargs)

        monkeypatch.setattr(rephrase, "match_pattern", counting)
        tried = False
        for _, text in load_sentences(res.config.sentences):
            graph = parsed(res, text)
            calls.clear()
            enrich(graph, res.synonyms, res.patterns, res.resource, res.dictionary,
                   compose=compose)
            patterns = {p.pattern_id: p for p in res.patterns}
            for pattern_id, _, lemmas in calls:
                pattern = patterns[pattern_id]
                assert any(r.target_pos == pattern.deriv_pos
                           and r.suffix == pattern.deriv_suffix
                           for lemma, sense_id in lemmas
                           for r in res.resource.records_for(lemma, sense_id)), (text, pattern_id)
            called = {(pattern_id, pivot) for pattern_id, pivot, _ in calls}
            tried |= bool(called)
            synonymized = enrich_synonyms(graph, res.synonyms)
            for pattern in res.patterns:
                for pivot in range(len(graph.tokens)):
                    if oracles.plain_matches(synonymized, pattern, pivot, res.resource,
                                             res.dictionary, compose):
                        assert (pattern.pattern_id, pivot) in called, (text, pattern.pattern_id)
        assert tried
