"""Randomized cross-checks of the fast implementations against the
brute-force references in oracles.py, plus structural invariants."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import filter_inputs
from oracles import dep_signature, graph_equal
from derivqa import pipeline
from derivqa.depgraph import (
    ATTRIBUTE,
    BASE,
    DERIVATIONAL,
    DET,
    DIROBJ,
    MODIFIER,
    OTHER,
    PREP,
    PREPPH,
    SUBJECT,
    Dependency,
    DependencyBank,
    DependencyGraph,
    DepbankError,
    TokenNode,
    load_depbank,
    save_depbank,
)
from derivqa.lexica import (
    ADJ,
    ADV,
    NOUN,
    VERB,
    CorpusLexicon,
    Dictionary,
    InflectionEntry,
    load_code_table,
    load_dictionary,
)
from derivqa.morphogen import (
    EuphonicRule,
    SuffixModel,
    TooShortError,
    attested_candidates,
    learn_suffix_model,
    syllable_count,
)
from derivqa.qaengine import (
    QuestionStructure,
    answer,
    answer_baseline,
)
from derivqa.rephrase import DepTemplate, DerivationPattern, enrich, match_pattern

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
    """Random graphs; `mixed` also draws DERIVATIONAL dependencies."""
    n = draw(st.integers(min_value=1, max_value=max_tokens))
    tokens = []
    for i in range(n):
        lemma = draw(lemmas)
        alternates = frozenset()
        if with_alternates:
            alternates = frozenset(draw(st.lists(lemmas, max_size=2))) - {lemma}
        tokens.append(TokenNode(i, lemma, lemma, draw(POSES),
                                alternates=alternates))
    graph = DependencyGraph(draw(st.uuids()).hex[:6], "text", tokens)
    for _ in range(draw(st.integers(min_value=min_deps, max_value=max_deps))):
        head = draw(st.integers(min_value=0, max_value=n - 1))
        dependent = draw(st.integers(min_value=0, max_value=n - 1))
        provenance = draw(st.sampled_from([BASE, DERIVATIONAL])) if mixed else BASE
        if draw(st.booleans()):
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


# --- tokenizer --------------------------------------------------------------

# Chunk parts: words, clitics and `-t-`, elisions and apostrophes, hyphens
# and the punctuation the tokenizer strips.
CHUNK_PARTS = st.sampled_from(
    ["coupa", "Titus", "courant", "est", "a", "il", "elle", "on", "IL", "t", "-", "-t", "-t-",
     "-il", "-elle", "-on", "-ils", "-elles", "'", "l'", "L'", "d'", "qu'", "aujourd'hui",
     ".", ",", "!", "?", ";", ":", "«", "»", "(", ")", '"'])
TOKENIZER_INPUTS = st.lists(st.lists(CHUNK_PARTS, min_size=1, max_size=5).map("".join),
                            max_size=6).map(" ".join)


@given(TOKENIZER_INPUTS)
@example("l'ouvrier coupa-t-il le courant ?")
@example("est-il -il il-il on-t-on")
@example("aujourd'hui qu'elle-t-elle")
def test_tokenize_matches_regex_on_every_chunk_oracle(sentence):
    from derivqa.depgraph import UnknownTokenError, _tokenize

    try:
        want = oracles.tokenize(sentence)
    except UnknownTokenError as exc:
        with pytest.raises(UnknownTokenError) as info:
            _tokenize(sentence)
        assert str(info.value) == str(exc)
    else:
        assert _tokenize(sentence) == want


# --- suffix learning --------------------------------------------------------

# A three-letter alphabet (plus a capital, which both learners fold) makes
# stems share prefixes, stems of one length abound and words equal a stem.
STEM_TEXT = st.text(alphabet="abéA", min_size=1, max_size=5)
ENDING_TEXT = st.text(alphabet="abéA", max_size=3)


@st.composite
def inflection_entries(draw):
    """Entries whose form and lemma extend one drawn stem."""
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        stem = draw(STEM_TEXT)
        form, lemma = stem + draw(ENDING_TEXT), stem + draw(ENDING_TEXT)
        entries.append(InflectionEntry(form, lemma, ""))
    return entries


@settings(max_examples=200)
@given(inflection_entries(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_suffix_model_matches_brute_force_inventory(entries, threshold, min_stem_len):
    model = learn_suffix_model(entries, threshold, min_stem_len=min_stem_len)
    assert model.suffixes == tuple(sorted(oracles.suffix_inventory(entries, threshold,
                                                                  min_stem_len)))


# --- generation and corpus filter -------------------------------------------

# Endings over a small alphabet, so suffixes often equal attested endings.
ENDINGS = st.text(alphabet="aeé-", max_size=3)


@given(WORDS, st.lists(ENDINGS, max_size=6), st.sets(ENDINGS, max_size=6))
def test_corpus_filter_is_idempotent_and_sound(lemma, suffixes, attested):
    model = SuffixModel(suffixes=tuple(sorted(set(suffixes))), min_stem_len=1,
                        max_stems_per_lemma=2, min_syllables=0)
    corpus = CorpusLexicon({lemma + ending for ending in attested})
    _, once = attested_candidates(lemma, model, (), corpus)
    again = CorpusLexicon(c.surface for c in once)
    assert attested_candidates(lemma, model, (), again)[1] == once
    assert all(c.surface in corpus for c in once)
    made = oracles.generate_candidates(lemma, model, ())
    assert [c for c in made if c.surface in corpus] == once


# A few letters, two of them vowels, so euphonic tails overlap, rules fire
# before vowel and consonant suffixes alike, and a rewritten surface often
# equals the surface of another (stem, suffix) pair already made.
GEN_LETTERS = "ceéu"
EUPHONIC_RULES = st.lists(st.builds(
    EuphonicRule,
    st.text(alphabet=GEN_LETTERS, min_size=1, max_size=2),
    st.text(alphabet=GEN_LETTERS, max_size=2),
    st.sampled_from(["vowel", "any"])), max_size=4).map(tuple)
# Per generated surface, in turn: left out of the corpus, or put in it in
# lower or upper case (corpus membership folds case).
CORPUS_MARKS = st.lists(st.sampled_from([None, "lower", "upper"]), min_size=1, max_size=6)
COUPE_MODEL = SuffixModel(suffixes=("e", "ment", "ure"), min_stem_len=3,
                          max_stems_per_lemma=3, min_syllables=2)


@st.composite
def generation_inputs(draw):
    """A lemma (possibly with a capital), a suffix model and euphonic rules."""
    lemma = draw(st.text(alphabet=GEN_LETTERS + "bC", min_size=1, max_size=8))
    model = SuffixModel(
        suffixes=tuple(sorted(draw(st.sets(st.text(alphabet=GEN_LETTERS + "b", min_size=1,
                                                   max_size=3), max_size=6)))),
        min_stem_len=draw(st.integers(min_value=1, max_value=3)),
        max_stems_per_lemma=draw(st.integers(min_value=1, max_value=3)),
        min_syllables=draw(st.integers(min_value=0, max_value=3)))
    return lemma, model, draw(EUPHONIC_RULES)


@settings(max_examples=300)
@given(generation_inputs(), CORPUS_MARKS, st.sets(WORDS, max_size=4))
# coupe + ure -> coupure, which coup + ure already made; "pe" overlaps "e",
# and both rewrite coupe + ment to a new surface
@example(("coupe", COUPE_MODEL, (EuphonicRule("e", "", "vowel"), EuphonicRule("pe", "pp", "any"),
                                 EuphonicRule("e", "é", "any"))),
         ["lower", "upper", "lower", None], set())
@example(("rue", COUPE_MODEL, ()), [None], set())
def test_attested_candidates_match_the_reference_pair(inputs, marks, extra):
    lemma, model, rules = inputs
    try:
        made = oracles.generate_candidates(lemma, model, rules)
    except TooShortError:
        with pytest.raises(TooShortError):
            attested_candidates(lemma, model, rules, CorpusLexicon(()))
        return
    forms = set(extra)
    for i, cand in enumerate(made):
        mark = marks[i % len(marks)]
        if mark:
            forms.add(cand.surface.upper() if mark == "upper" else cand.surface)
    corpus = CorpusLexicon(forms)
    assert attested_candidates(lemma, model, rules, corpus) == (
        len(made), oracles.corpus_filter(made, corpus))


# --- symmetrized resource build ---------------------------------------------

# Stems end in a consonant, so verbs (stem + "er") and the nouns derived from
# them (stem + a suffix of the packaged code table) never collide.
SYLLABLES = st.sampled_from(["ba", "ca", "do", "li", "mo", "pa", "ri", "to"])
STEMS = st.builds(lambda parts, end: "".join(parts) + end,
                  st.lists(SYLLABLES, min_size=1, max_size=2), st.sampled_from("cdlmnrt"))
NOUN_SUFFIXES = {"U": "ure", "G": "age", "E": "eur", "B": "ation"}
DOMAINS = st.sampled_from(["GEN", "MAT"])


@st.composite
def stem_lexicons(draw):
    """Dictionary rows, inflection rows and an attested wordlist: verbs and
    nouns derived from them, sharing stems, with senses over mixed domains.
    Dictionary words are attested but for at most one per stem."""
    rows, inflections, attested = {}, [], set()
    for stem in draw(st.lists(STEMS, min_size=1, max_size=5, unique=True)):
        verb = stem + "er"
        family = [verb] + [stem + suffix for suffix in NOUN_SUFFIXES.values()]
        inflections += [(stem + ending, verb) for ending in ("a", "e", "é")]
        for sense_id in range(1, draw(st.integers(min_value=0, max_value=2)) + 1):
            codes = "-".join(draw(st.lists(st.sampled_from(sorted(NOUN_SUFFIXES)), max_size=3)))
            rows[verb, sense_id] = ("VERB", draw(DOMAINS), "1", f"-{codes}-")
        for noun in draw(st.lists(st.sampled_from(family[1:]), max_size=3, unique=True)):
            inflections.append((noun + "s", noun))
            for sense_id in range(1, draw(st.integers(min_value=0, max_value=2)) + 1):
                rows[noun, sense_id] = ("NOUN", draw(DOMAINS), "", "")
        unattested = draw(st.lists(st.sampled_from(family), max_size=1))
        attested.update(w for w in family if (w, 1) in rows and w not in unattested)
        attested.update(draw(st.lists(st.sampled_from(family), max_size=2)))
    return rows, inflections, attested


@settings(max_examples=100, deadline=None)
@given(stem_lexicons(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=2, max_value=3))
def test_symmetrized_build_matches_plain_double_build(tmp_path_factory, lexicon, threshold,
                                                      min_syllables):
    rows, inflections, attested = lexicon
    tmp = tmp_path_factory.mktemp("lexicon")
    (tmp / "dictionary.tsv").write_text("".join(
        f"{lemma}\t{sense_id}\t{pos}\t{domain}\t\t\t\t\t{conjugation}\t\t{codes}\t\n"
        for (lemma, sense_id), (pos, domain, conjugation, codes) in rows.items()),
        encoding="utf-8")
    (tmp / "inflections.tsv").write_text(
        "".join(f"{form}\t{lemma}\t\n" for form, lemma in inflections), encoding="utf-8")
    (tmp / "corpus_lexicon.tsv").write_text(
        "".join(f"{word}\t1\n" for word in sorted(attested)), encoding="utf-8")
    (tmp / "synonyms.tsv").write_text("", encoding="utf-8")
    config = {"dictionary": "dictionary.tsv", "inflections": "inflections.tsv",
              "corpus_lexicon": "corpus_lexicon.tsv", "synonyms": "synonyms.tsv",
              "suffix_threshold": threshold, "min_syllables": min_syllables,
              "symmetrize": True}
    (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")

    res = pipeline.load_resources(pipeline.load_config(tmp / "config.json"))
    by_lemma, stats = oracles.double_build(
        load_dictionary(tmp / "dictionary.tsv",
                        load_code_table(pipeline.packaged_data("code_table.tsv"))),
        res.model, *filter_inputs(res.config))
    assert res.resource.by_lemma == by_lemma
    assert res.resource.stats == stats


# --- depbank round-trip -----------------------------------------------------

# Texts with the characters a line- or cell-based reader could trip on; a
# tab or a newline is refused by the writer (test_depgraph.TestBankWriter).
TEXTS = st.text(alphabet="ab é'\"\\;\r\u0085\u2028", max_size=12)
# Pattern/source pairs mostly from a small pool, so that derivative tokens of
# equal cells recur and the loader's sharing is exercised on them too.
DERIVATIONS = [("v2n_ure_obj", "couper"), ("v2n_age_obj", "laver"), ("v2n_eur_svo", "couper")]
DERIVATION_FIELDS = st.just((None, None)) | st.sampled_from(DERIVATIONS) | st.tuples(WORDS, WORDS)
HEADERS = st.tuples(st.none() | st.sampled_from(pipeline.MODES),
                    st.none() | st.text(alphabet="0123456789abcdef", min_size=1, max_size=64))


@st.composite
def banks(draw):
    """Up to four graphs with distinct ids, drawn texts, senses and derivations:
    a plain list, or a DependencyBank carrying a drawn mode and fingerprint."""
    drawn = draw(st.lists(graphs(with_alternates=True, mixed=True), max_size=4,
                          unique_by=lambda g: g.sentence_id))
    for graph in drawn:
        graph.text = draw(TEXTS)
        for token in graph.tokens:
            token.sense_id = draw(st.none() | st.integers(-2, 40))
            token.deriv_pattern, token.deriv_source = draw(DERIVATION_FIELDS)
    if draw(st.booleans()):
        return drawn
    return DependencyBank(drawn, *draw(HEADERS))


def header_of(bank) -> tuple:
    return getattr(bank, "mode", None), getattr(bank, "fingerprint", None)


def token_fields(graph) -> list:
    return [(t.index, t.surface, t.lemma, t.pos, t.sense_id, t.alternates, t.deriv_pattern,
             t.deriv_source) for t in graph.tokens]


@settings(max_examples=60)
@given(banks(), banks())
def test_depbank_round_trip(tmp_path_factory, bank, other):
    directory = tmp_path_factory.mktemp("bank")
    path = directory / "bank.jsonl"
    save_depbank(bank, path)
    loaded = load_depbank(path)
    assert (loaded.mode, loaded.fingerprint) == header_of(bank)
    assert len(loaded) == len(bank)
    for graph, reread in zip(bank, loaded):
        assert (reread.sentence_id, reread.text) == (graph.sentence_id, graph.text)
        assert graph_equal(reread, graph)
        assert token_fields(reread) == token_fields(graph)
        assert reread.deps == graph.deps
    # Equal strings load as one object, derivation patterns and sources too.
    tokens = [t for graph in loaded for t in graph.tokens]
    derivatives = [t for t in tokens if t.deriv_pattern is not None]
    for values in ([t.surface for t in tokens], [t.lemma for t in tokens],
                   [t.pos for t in tokens], [t.deriv_pattern for t in derivatives],
                   [t.deriv_source for t in derivatives]):
        assert len({id(value) for value in values}) == len(set(values))
    save_depbank(loaded, directory / "again.jsonl")
    assert (directory / "again.jsonl").read_bytes() == path.read_bytes()

    # Saves under one header concatenate into one bank; under two, they are refused.
    taken = {g.sentence_id for g in bank}
    rest = [g for g in other if g.sentence_id not in taken]
    joined = directory / "joined.jsonl"
    save_depbank(DependencyBank(rest, *header_of(bank)), directory / "rest.jsonl")
    joined.write_bytes(path.read_bytes() + (directory / "rest.jsonl").read_bytes())
    both = load_depbank(joined)
    assert (both.mode, both.fingerprint) == header_of(bank)
    assert [token_fields(g) for g in both] == [token_fields(g) for g in [*bank, *rest]]
    if header_of(other) != header_of(bank):
        save_depbank(DependencyBank(rest, *header_of(other)), directory / "rest.jsonl")
        joined.write_bytes(path.read_bytes() + (directory / "rest.jsonl").read_bytes())
        with pytest.raises(DepbankError, match="bank header differs from the first one"):
            load_depbank(joined)


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


# "laver" has no -ure derivative; its alternate "couper" has "coupure"
ALTERNATE_ONLY = DependencyGraph("alt", "text", [
    TokenNode(0, "laver", "laver", VERB, alternates=frozenset({"couper"})),
    TokenNode(1, "linge", "linge", NOUN)], [Dependency(DIROBJ, (0, 1))])

# "laver" has records of other suffixes (-age, -eur, ...), none of -ure
OWN_LEMMA_OTHER_SUFFIXES = DependencyGraph("own", "text", [
    TokenNode(0, "laver", "laver", VERB),
    TokenNode(1, "linge", "linge", NOUN)], [Dependency(DIROBJ, (0, 1))])

# "couper" has no synonyms, so its own lemma stays among its alternates and
# under compose its records come through both pivot lemmas
OWN_LEMMA_AMONG_ALTERNATES = DependencyGraph("self", "text", [
    TokenNode(0, "couper", "couper", VERB, alternates=frozenset({"couper"})),
    TokenNode(1, "linge", "linge", NOUN)], [Dependency(DIROBJ, (0, 1))])


@settings(max_examples=80)
@given(graphs(with_alternates=True), st.sampled_from(PATTERNS), st.booleans())
@example(ALTERNATE_ONLY, PATTERNS[1], True)
def test_matcher_bindings_match_exhaustive_enumeration(benchmark_resources, graph, pattern,
                                                       use_alternates):
    resource = benchmark_resources.resource
    base = [d for d in graph.deps if d.provenance == BASE]
    for pivot in range(len(graph.tokens)):
        token = graph.tokens[pivot]
        matches = match_pattern(graph, pattern, pivot, resource, Dictionary(),
                                use_alternates=use_alternates)
        got = {frozenset(m.bindings.items()) for m in matches}
        if token.pos != pattern.pivot_pos:
            assert got == set()
            continue
        # every exhaustive binding is reported exactly when the pivot, or
        # under `use_alternates` one of its alternates, has an eligible
        # derivative; an alternate's sense is unknown, so all its records count
        lemmas = [token.lemma] + (sorted(token.alternates) if use_alternates else [])
        eligible = [
            r for lemma in lemmas for r in resource.records_for(lemma)
            if r.target_pos == pattern.deriv_pos and r.suffix == pattern.deriv_suffix
        ]
        expected = oracles.enumerate_bindings(pattern, base, pivot)
        assert got == (expected if eligible else set())


@settings(max_examples=80, deadline=None)
@given(graphs(with_alternates=True, mixed=True), st.booleans())
@example(ALTERNATE_ONLY, True)
@example(OWN_LEMMA_OTHER_SUFFIXES, False)
@example(OWN_LEMMA_OTHER_SUFFIXES, True)
@example(OWN_LEMMA_AMONG_ALTERNATES, True)
def test_enrich_matches_plain_enrichment(benchmark_resources, graph, compose):
    res = benchmark_resources
    args = (graph, res.synonyms, res.patterns + PATTERNS, res.resource, res.dictionary)
    got = enrich(*args, compose=compose)
    want = oracles.plain_enrich(*args, compose=compose)
    assert (got.tokens, got.deps) == (want.tokens, want.deps)


# --- answer coverage vs exhaustive matching ---------------------------------

@settings(max_examples=60)
@given(graphs(max_tokens=6, max_deps=4), graphs(max_tokens=8, max_deps=6,
                                                with_alternates=True))
def test_answer_coverage_matches_exhaustive_pairing(qgraph, tgraph):
    question = QuestionStructure("q", "text", qgraph)
    best = oracles.max_coverage_pairs(qgraph, tgraph, oracles.dep_match)
    candidates = answer(question, DependencyBank([tgraph]), k=1)
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
    got = answer(question, DependencyBank(bank), k=len(bank), require_full_match=full)
    scored = []
    for position, graph in enumerate(bank):
        if not qgraph.deps:
            break
        best = oracles.max_coverage_pairs(qgraph, graph, oracles.dep_match)
        coverage = Fraction(best, len(qgraph.deps))
        if coverage and (coverage == 1 or not full):
            scored.append((-coverage, position))
    assert [(c.sentence_id, c.coverage) for c in got] == [
        (f"s{position}", -neg) for neg, position in sorted(scored)]
    # each candidate's evidence is a one-to-one matching of the reported size
    for candidate in got:
        graph = bank[int(candidate.sentence_id[1:])]
        q_side = [qi for qi, _ in candidate.matched]
        t_side = [ti for _, ti in candidate.matched]
        assert len(candidate.matched) == candidate.coverage * len(qgraph.deps)
        assert len(set(q_side)) == len(set(t_side)) == len(candidate.matched)
        assert all(oracles.dep_match(qgraph, qgraph.deps[qi], graph, graph.deps[ti])
                   for qi, ti in candidate.matched)


def _tokens(*words):
    """Tokens of (lemma, pos[, alternates]) triples."""
    return [TokenNode(i, w[0], w[0], w[1], alternates=frozenset(w[2:]))
            for i, w in enumerate(words)]


# The question's two SUBJECT dependencies share one key. The first graph
# holds two dependencies under that key, the second through an alternate on
# the sentence side only, and PREPPH dependencies under "de" and "par"; a
# token lists its own lemma among its alternates, so one dependency yields
# one key twice.
SHARED_KEYS = (
    DependencyGraph("q", "text", _tokens(("couper", VERB), ("ouvrier", NOUN),
                                         ("ouvrier", NOUN)),
                    [Dependency(SUBJECT, (0, 1)), Dependency(SUBJECT, (0, 2)),
                     Dependency(PREPPH, (1, 2), prep="de")]),
    [DependencyGraph("s0", "text", _tokens(("couper", VERB), ("ouvrier", NOUN, "ouvrier"),
                                           ("courant", NOUN, "ouvrier")),
                     [Dependency(PREPPH, (1, 2), prep="par"), Dependency(SUBJECT, (0, 1)),
                      Dependency(SUBJECT, (0, 2), provenance=DERIVATIONAL),
                      Dependency(PREPPH, (1, 2), prep="de")]),
     DependencyGraph("s1", "text", _tokens(("couper", VERB), ("ouvrier", NOUN)),
                     [Dependency(PREPPH, (1, 1), prep="par"), Dependency(SUBJECT, (0, 1))])],
)


@settings(max_examples=200)
@given(graphs(max_tokens=4, max_deps=3, mixed=True, lemmas=FEW_LEMMAS),
       st.lists(graphs(max_tokens=5, max_deps=5, with_alternates=True, mixed=True,
                       lemmas=FEW_LEMMAS, min_deps=1),
                min_size=1, max_size=8),
       st.sampled_from([1, 5, None]), st.booleans())
@example(*SHARED_KEYS, None, False)
@example(*SHARED_KEYS, 1, True)
@example(*SHARED_KEYS, 5, False)
def test_answer_matches_plain_answer(qgraph, graphs_, k, full):
    """`k` None stands for the bank's size."""
    for position, graph in enumerate(graphs_):
        graph.sentence_id = f"s{position}"
        graph.text = f"text {position}"
    bank = DependencyBank(graphs_)
    k = len(bank) if k is None else k
    question = QuestionStructure("q", "text", qgraph)
    assert answer(question, bank, k=k, require_full_match=full) == \
        oracles.plain_answer(question, bank, k=k, require_full_match=full)
    # each key's postings: its (position, dependency index) pairs, ascending
    # and once each, as one flat list of ints
    keys = {}
    for position, graph in enumerate(bank):
        for index, dep in enumerate(graph.deps):
            head, dependent = (graph.tokens[i] for i in dep.args)
            for x in {head.lemma} | head.alternates:
                for y in {dependent.lemma} | dependent.alternates:
                    keys.setdefault((dep.label, dep.prep, x, y), []).extend((position, index))
    assert all(type(run) is list and all(type(value) is int for value in run)
               for run in bank.postings.values())
    assert bank.postings == keys


# content and non-content parts of speech, for the bag engine
BAG_POSES = st.sampled_from([NOUN, VERB, ADJ, ADV, DET, PREP, OTHER])


@st.composite
def bag_graphs(draw, max_tokens=5):
    """Random token lists; some tokens are derivative-tagged, which the bag
    engine must not see."""
    lemmas = draw(st.lists(FEW_LEMMAS, min_size=1, max_size=max_tokens))
    tokens = [
        TokenNode(i, lemma, lemma, draw(BAG_POSES),
                  deriv_pattern="p" if draw(st.booleans()) else None)
        for i, lemma in enumerate(lemmas)
    ]
    return DependencyGraph("q", "text", tokens)


@settings(max_examples=150)
@given(bag_graphs(), st.lists(bag_graphs(), min_size=1, max_size=10),
       st.integers(min_value=1, max_value=12))
def test_bag_ranking_matches_exhaustive_scan(qgraph, bank, k):
    for position, graph in enumerate(bank):
        graph.sentence_id = f"s{position}"
        graph.text = f"text {position}"
    question = QuestionStructure("q", "text", qgraph)
    got = answer_baseline(question, DependencyBank(bank), k=k)
    assert [(c.sentence_id, c.coverage, c.matched) for c in got] == \
        oracles.bag_ranking(qgraph, bank, k)
    assert all(c.text == f"text {c.sentence_id[1:]}" for c in got)


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
        assert token.deriv_pattern is not None and token.deriv_source is not None
