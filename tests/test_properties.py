"""Randomized cross-checks of the fast implementations against the
brute-force references in oracles.py, plus structural invariants."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from derivqa.depgraph import (
    ATTRIBUTE,
    BASE,
    DERIVATIONAL,
    DIROBJ,
    MODIFIER,
    PREPPH,
    SUBJECT,
    Dependency,
    DependencyGraph,
    TokenNode,
    dep_signature,
    graph_equal,
    load_depbank,
    save_depbank,
)
from derivqa.lexica import ADJ, NOUN, VERB, CorpusLexicon
from derivqa.morphogen import CandidateDerivative, corpus_filter, syllable_count
from derivqa.qaengine import (
    QuestionStructure,
    answer,
    dep_match,
)
from derivqa.rephrase import DepTemplate, DerivationPattern, match_pattern

# --- shared strategies ------------------------------------------------------

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyzéèêàûç-'", min_size=1, max_size=14)
LEMMAS = st.sampled_from(
    ["couper", "laver", "courant", "linge", "ouvrier", "domestique",
     "coupure", "lavage", "empereur", "rapide", "glissant"])
POSES = st.sampled_from([NOUN, VERB, ADJ])
LABELS2 = st.sampled_from([SUBJECT, DIROBJ, ATTRIBUTE, MODIFIER])
PREPS = st.sampled_from(["de", "par"])


@st.composite
def graphs(draw, max_tokens=8, max_deps=6, with_alternates=False, mixed=False,
           lemmas=LEMMAS, min_deps=0):
    """Random graphs; `mixed` also draws DERIVATIONAL dependencies and
    dependencies with an unknown label."""
    n = draw(st.integers(min_value=1, max_value=max_tokens))
    tokens = []
    for i in range(n):
        lemma = draw(lemmas)
        alternates = set()
        if with_alternates:
            alternates = set(draw(st.lists(lemmas, max_size=2)))
            alternates.discard(lemma)
        tokens.append(TokenNode(i, lemma, lemma, draw(POSES),
                                alternates=alternates))
    graph = DependencyGraph(draw(st.uuids()).hex[:6], "text", tokens)
    for _ in range(draw(st.integers(min_value=min_deps, max_value=max_deps))):
        head = draw(st.integers(min_value=0, max_value=n - 1))
        dependent = draw(st.integers(min_value=0, max_value=n - 1))
        provenance = draw(st.sampled_from([BASE, DERIVATIONAL])) if mixed else BASE
        if mixed and draw(st.integers(min_value=0, max_value=4)) == 0:
            dep = Dependency("FOREIGN", (head, dependent), provenance=provenance)
        elif draw(st.booleans()):
            dep = Dependency(PREPPH, (head, dependent), prep=draw(PREPS),
                             provenance=provenance)
        else:
            dep = Dependency(draw(LABELS2), (head, dependent), provenance=provenance)
        if dep not in graph.deps:
            graph.deps.append(dep)
    return graph


# --- syllables --------------------------------------------------------------

@given(WORDS)
def test_syllable_count_matches_regex_oracle(word):
    assert syllable_count(word) == oracles.syllables(word)


# --- corpus filter ----------------------------------------------------------

@given(st.lists(st.tuples(WORDS, WORDS), max_size=20), st.sets(WORDS, max_size=10))
def test_corpus_filter_is_idempotent_and_sound(pairs, attested):
    corpus = CorpusLexicon({w: 1 for w in attested})
    candidates = [CandidateDerivative("lemma", stem, "", surface)
                  for stem, surface in pairs]
    once = corpus_filter(candidates, corpus)
    assert corpus_filter(once, corpus) == once
    assert all(c.surface in corpus for c in once)
    assert [c for c in candidates if c.surface in corpus] == once


# --- depbank round-trip -----------------------------------------------------

@settings(max_examples=60)
@given(graphs(with_alternates=True))
def test_depbank_round_trip(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("bank") / "bank.jsonl"
    save_depbank([graph], path)
    (loaded,) = load_depbank(path)
    assert loaded.sentence_id == graph.sentence_id
    assert graph_equal(loaded, graph)
    assert [
        (t.surface, t.lemma, t.pos, t.features, t.sense_id, t.alternates)
        for t in loaded.tokens
    ] == [
        (t.surface, t.lemma, t.pos, t.features, t.sense_id, t.alternates)
        for t in graph.tokens
    ]
    assert loaded.deps == graph.deps


# --- pattern matcher vs exhaustive binding enumeration -----------------------

PATTERNS = [
    DerivationPattern(
        "p_svo", VERB, NOUN, "eur",
        (DepTemplate(SUBJECT, ("P", "X")), DepTemplate(DIROBJ, ("P", "Y"))),
        (DepTemplate(ATTRIBUTE, ("X", "D")),)),
    DerivationPattern(
        "p_obj", VERB, NOUN, "ure",
        (DepTemplate(DIROBJ, ("P", "Y")),),
        (DepTemplate(PREPPH, ("D", "Y"), "de"),)),
    DerivationPattern(
        "p_de", NOUN, VERB, "er",
        (DepTemplate(PREPPH, ("P", "Y"), "de"),),
        (DepTemplate(DIROBJ, ("D", "Y")),)),
]


@settings(max_examples=80)
@given(graphs(), st.sampled_from(PATTERNS))
def test_matcher_bindings_match_exhaustive_enumeration(benchmark_resources, graph, pattern):
    resource = benchmark_resources.resource
    base = [d for d in graph.deps if d.provenance == BASE]
    for pivot in range(len(graph.tokens)):
        matches = match_pattern(graph, pattern, pivot, resource)
        got = {frozenset(m.bindings.items()) for m in matches}
        expected = oracles.enumerate_bindings(pattern, base, pivot)
        if graph.tokens[pivot].pos != pattern.pivot_pos:
            assert got == set()
            continue
        # every reported binding is a genuine exhaustive binding
        assert got <= expected
        # and when the pivot has an eligible derivative, nothing is missed
        eligible = [
            r for r in resource.records_for(graph.tokens[pivot].lemma)
            if r.target_pos == pattern.deriv_pos and r.suffix == pattern.deriv_suffix
        ]
        if eligible:
            assert got == expected


# --- answer coverage vs exhaustive matching ---------------------------------

@settings(max_examples=60)
@given(graphs(max_tokens=6, max_deps=4), graphs(max_tokens=8, max_deps=6,
                                                with_alternates=True))
def test_answer_coverage_matches_exhaustive_pairing(qgraph, tgraph):
    question = QuestionStructure("q", "text", qgraph)
    best = oracles.max_coverage_pairs(qgraph, tgraph, dep_match)
    candidates = answer(question, [tgraph], k=1)
    if not qgraph.deps:
        assert candidates == []
        return
    expected = Fraction(best, len(qgraph.deps))
    if expected == 0:
        assert candidates == []
    else:
        assert len(candidates) == 1
        assert candidates[0].coverage == expected


# few lemmas, so that most banks hold several matching graphs
FEW_LEMMAS = st.sampled_from(["couper", "courant", "ouvrier"])


@settings(max_examples=150)
@given(graphs(max_tokens=4, max_deps=3, mixed=True, lemmas=FEW_LEMMAS, min_deps=1),
       st.lists(graphs(max_tokens=5, max_deps=4, with_alternates=True, mixed=True,
                       lemmas=FEW_LEMMAS, min_deps=1),
                min_size=1, max_size=10),
       st.booleans())
def test_answer_ranking_matches_exhaustive_scan(qgraph, bank, full):
    for position, graph in enumerate(bank):
        graph.sentence_id = f"s{position}"
    question = QuestionStructure("q", "text", qgraph)
    got = answer(question, bank, k=len(bank), require_full_match=full)
    scored = []
    for position, graph in enumerate(bank):
        if not qgraph.deps:
            break
        best = oracles.max_coverage_pairs(qgraph, graph, dep_match)
        coverage = Fraction(best, len(qgraph.deps))
        if coverage and (coverage == 1 or not full):
            scored.append((-coverage, position))
    assert [(c.sentence_id, c.coverage) for c in got] == [
        (f"s{position}", -neg) for neg, position in sorted(scored)]


# --- enrichment additivity ---------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from([
    "l'ouvrier a coupé le courant .",
    "le domestique lave le linge .",
    "la coupure du courant .",
    "Domitien succéda à l'empereur Titus .",
    "le mathématicien formalise une théorie .",
    "le serpent glissant .",
]), st.sampled_from(["base", "deriv", "all"]))
def test_enrichment_is_additive(benchmark_resources, text, mode):
    from derivqa.depgraph import toy_parse
    from derivqa.pipeline import enrich_for_mode
    from derivqa.wsd import disambiguate

    res = benchmark_resources
    graph = toy_parse(text, res.lexicon)
    disambiguate(graph, res.compilation, res.dictionary)
    before = {dep_signature(graph, d) for d in graph.deps}
    out = enrich_for_mode(graph, res, mode)
    after_base = {dep_signature(out, d) for d in out.deps if d.provenance == BASE}
    assert after_base == before
    assert [t.lemma for t in out.tokens[:len(graph.tokens)]] == \
        [t.lemma for t in graph.tokens]
    for token in out.tokens[len(graph.tokens):]:
        assert token.features.get("deriv_pattern")
