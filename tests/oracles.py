"""Brute-force reference implementations used to cross-check the package.

Everything here trades efficiency for obviousness: exhaustive enumeration
instead of indexing, itertools instead of hand-rolled recursion. Tests
compare the fast implementations against these on small inputs.
"""

import copy
import itertools
import os
import re

VOWELS = "aeiouyàâäéèêëíîïóôöùûüÿ"
_VOWEL_GROUP = re.compile(f"[{VOWELS}]+")


def syllables(word: str) -> int:
    """Count maximal vowel groups with a regex."""
    return len(_VOWEL_GROUP.findall(word.lower()))


def suffix_inventory(entries, threshold: int, min_stem_len: int = 3) -> dict:
    """Reference suffix learner: per-lemma shortest common prefix, then
    residuals of every vocabulary word over its longest stem prefix."""
    prefixes_per_lemma = {}
    for entry in entries:
        form = entry.surface_form.lower()
        lemma = entry.lemma.lower()
        if form == lemma:
            continue
        shared = ""
        for a, b in zip(form, lemma):
            if a != b:
                break
            shared += a
        if len(shared) >= min_stem_len:
            prefixes_per_lemma.setdefault(lemma, []).append(shared)
    stems = {min(prefixes, key=len) for prefixes in prefixes_per_lemma.values()}

    vocabulary = {e.surface_form.lower() for e in entries}
    vocabulary |= {e.lemma.lower() for e in entries}
    counts = {}
    for word in vocabulary:
        matching = [s for s in stems if word.startswith(s) and word != s]
        if not matching:
            continue
        stem = max(matching, key=len)
        counts.setdefault(word[len(stem):], set()).add(stem)
    return {suffix: len(s) for suffix, s in counts.items() if len(s) >= threshold}


def instruction_filter(candidates, senses) -> dict:
    """Reference instruction filter: surface -> set of licensing sense ids."""
    licensed = {}
    for cand in candidates:
        for sense in senses:
            for instruction in sense.instructions:
                if instruction.suffix == cand.suffix:
                    licensed.setdefault(cand.surface, set()).add(sense.sense_id)
    return licensed


def generate_candidates(lemma, model, euphonics) -> list:
    """Reference generation: cross candidate stems with "" and the sorted
    suffix inventory, one candidate per new surface that reaches the
    length floor."""
    from derivqa.morphogen import CandidateDerivative, euphonic_surfaces, stem_candidates

    candidates = []
    seen = set()
    for stem in stem_candidates(lemma, model):
        for suffix in [""] + sorted(model.suffixes):
            for surface in euphonic_surfaces(stem, suffix, euphonics):
                if len(surface) < model.min_stem_len + 1 or surface in seen:
                    continue
                seen.add(surface)
                candidates.append(CandidateDerivative(lemma, suffix, surface))
    return candidates


def corpus_filter(candidates, corpus_lexicon) -> list:
    """Reference corpus filter: the candidates whose surface is attested."""
    return [c for c in candidates if c.surface in corpus_lexicon]


def plain_build(records, model, corpus_lexicon, euphonics):
    """Reference resource build: per lemma, generate -> corpus filter ->
    instruction filter, scanning every record. Returns (by_lemma, stats)."""
    from derivqa.derivfilter import DerivativeRecord, ResourceStats
    from derivqa.morphogen import TooShortError

    stats = ResourceStats()
    by_lemma = {}
    for lemma in sorted({r.lemma for r in records}):
        senses = sorted((r for r in records if r.lemma == lemma), key=lambda r: r.sense_id)
        instructions = [(s, ins) for s in senses for ins in s.instructions]
        stats.entries_processed += len(senses)
        stats.instructions_total += len(instructions)
        try:
            candidates = generate_candidates(lemma, model, euphonics)
        except TooShortError:
            stats.instructions_unmatched += len(instructions)
            continue
        stats.candidates_generated += len(candidates)
        accepted = {}
        for cand in corpus_filter(candidates, corpus_lexicon):
            licensing = [(s, ins) for s, ins in instructions if ins.suffix == cand.suffix]
            if licensing and cand.surface not in accepted:
                accepted[cand.surface] = DerivativeRecord(
                    cand.surface, licensing[0][1].target_pos, cand.suffix, lemma,
                    frozenset(s.sense_id for s, _ in licensing))
        if accepted:
            by_lemma[lemma] = [accepted[surface] for surface in sorted(accepted)]
        stats.derivatives_accepted += len(accepted)
        suffixes = {r.suffix for r in accepted.values()}
        stats.instructions_unmatched += sum(1 for _, ins in instructions
                                            if ins.suffix not in suffixes)
    return by_lemma, stats


def deep_symmetrize(records, by_lemma) -> list:
    """Reference symmetrize on a deep copy of every record: each same-domain
    non-verb sense of a verb's licensed derivative gains a VERB
    instruction for the verb's ending after the common prefix, once: a
    back-instruction is compared only with those added before it."""
    from derivqa.lexica import VERB, DerivInstruction

    augmented = copy.deepcopy(list(records))
    added = set()  # (id of a target, back-instruction)
    for sense in [r for r in augmented if r.pos == VERB]:
        for ins in sense.instructions:
            for record in sorted(by_lemma.get(sense.lemma, []), key=lambda r: r.surface):
                licensed = not record.licensed_senses or sense.sense_id in record.licensed_senses
                if not licensed or record.suffix != ins.suffix:
                    continue
                ending = sense.lemma[len(os.path.commonprefix([record.surface, sense.lemma])):]
                for target in augmented:
                    if (target.lemma != record.surface or target.pos == VERB
                            or target.domain_code != sense.domain_code or not ending):
                        continue
                    back = DerivInstruction(VERB, ending)
                    if (id(target), back) not in added:
                        added.add((id(target), back))
                        target.instructions += (back,)
    return augmented


def double_build(records, model, corpus_lexicon, euphonics):
    """Reference symmetrized build: build, deep-copying symmetrize, build
    again. Returns (by_lemma, stats)."""
    by_lemma, _ = plain_build(records, model, corpus_lexicon, euphonics)
    return plain_build(deep_symmetrize(records, by_lemma), model, corpus_lexicon, euphonics)


def template_matches_dep(template, dep) -> bool:
    return (dep.label == template.label and dep.prep == template.prep
            and len(dep.args) == len(template.args))


def enumerate_bindings(pattern, deps, pivot: int) -> set:
    """All consistent variable bindings, by exhaustive template-to-dep product.

    Returns a set of frozensets of (variable, token index) pairs.
    """
    results = set()
    for assignment in itertools.product(deps, repeat=len(pattern.inputs)):
        binding = {"P": pivot}
        ok = True
        for template, dep in zip(pattern.inputs, assignment):
            if not template_matches_dep(template, dep):
                ok = False
                break
            for var, index in zip(template.args, dep.args):
                if binding.setdefault(var, index) != index:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            results.add(frozenset(binding.items()))
    return results


def plain_matches(graph, pattern, pivot: int, resource, dictionary, use_alternates: bool) -> list:
    """Reference matcher: every exhaustive binding, in sorted order, and for
    each one the pivot lemmas' derivatives filtered anew."""
    from derivqa.depgraph import BASE
    from derivqa.rephrase import PatternMatch, _construction_ok

    token = graph.tokens[pivot]
    if token.pos != pattern.pivot_pos:
        return []
    base = [d for d in graph.deps if d.provenance == BASE]
    pivot_lemmas = [(token.lemma, token.sense_id)]
    if use_alternates:
        pivot_lemmas += [(alt, None) for alt in sorted(token.alternates)]
    matches = []
    for binding in sorted(enumerate_bindings(pattern, base, pivot), key=sorted):
        for lemma, sense_id in pivot_lemmas:
            if not _construction_ok(pattern, dictionary.senses.get(lemma, []), sense_id):
                continue
            for record in resource.records_for(lemma, sense_id):
                match = PatternMatch(pattern, dict(binding), record)
                if (record.target_pos == pattern.deriv_pos
                        and record.suffix == pattern.deriv_suffix and match not in matches):
                    matches.append(match)
    return matches


def plain_enrich(graph, synonyms, patterns, resource, dictionary, compose: bool = False):
    """Reference enrichment: every pattern at every token, matched by
    `plain_matches`, applied in the order `rephrase.enrich` sorts them."""
    from derivqa.rephrase import apply_pattern, enrich_synonyms

    out = enrich_synonyms(graph, synonyms)
    for pattern in patterns:
        for pivot in range(len(graph.tokens)):
            lemma = out.tokens[pivot].lemma
            matches = plain_matches(out, pattern, pivot, resource, dictionary, compose)
            matches.sort(key=lambda m: (m.derivative.surface, sorted(m.bindings.items())))
            for match in matches:
                token = apply_pattern(out, match)
                if compose and match.derivative.source_lemma == lemma:
                    token.alternates |= synonyms.lookup(token.lemma, None) - {token.lemma}
    return out


def arg_matches(q_token, t_token) -> bool:
    return q_token.lemma == t_token.lemma or q_token.lemma in t_token.alternates


def dep_match(qgraph, qdep, tgraph, tdep) -> bool:
    """Whether a question dependency is satisfied by a sentence dependency.

    Labels must be equal; prepositions must agree literally; each question
    argument must equal the sentence argument's lemma or appear among its
    alternates. Provenance plays no role.
    """
    if qdep.label != tdep.label or qdep.prep != tdep.prep:
        return False
    return all(
        arg_matches(qgraph.tokens[qi], tgraph.tokens[ti])
        for qi, ti in zip(qdep.args, tdep.args)
    )


def plain_max_matching(qgraph, tgraph) -> list:
    """Kuhn's augmenting-path matching over edges found by `dep_match` on
    every (question dep, sentence dep) pair; the (question index, sentence
    index) pairs, sorted."""
    edges = [
        [ti for ti, tdep in enumerate(tgraph.deps) if dep_match(qgraph, qdep, tgraph, tdep)]
        for qdep in qgraph.deps
    ]
    owner = {}

    def try_assign(qi, visited) -> bool:
        for ti in edges[qi]:
            if ti in visited:
                continue
            visited.add(ti)
            if ti not in owner or try_assign(owner[ti], visited):
                owner[ti] = qi
                return True
        return False

    for qi in range(len(qgraph.deps)):
        try_assign(qi, set())
    return sorted((qi, ti) for ti, qi in owner.items())


def plain_answer(question, graphs, k: int = 5, require_full_match: bool = False) -> list:
    """Reference structural engine: every graph matched pair by pair, no
    index; candidates with nonzero coverage sorted by matching size, then
    bank position, the top k returned."""
    from fractions import Fraction

    from derivqa.qaengine import AnswerCandidate

    total = len(question.graph.deps)
    scored = []
    for position, graph in enumerate(graphs):
        pairs = plain_max_matching(question.graph, graph)
        if pairs and not (require_full_match and len(pairs) != total):
            scored.append((-len(pairs), position, pairs))
    scored.sort()
    return [AnswerCandidate(graphs[position].sentence_id, Fraction(len(pairs), total),
                            pairs, graphs[position].text)
            for _, position, pairs in scored[:k]]


def max_coverage_pairs(qgraph, tgraph, match_fn) -> int:
    """Size of the largest one-to-one question-to-sentence dep pairing,
    by trying every injective assignment."""
    q_deps = list(range(len(qgraph.deps)))
    t_deps = list(range(len(tgraph.deps)))
    edges = {
        qi: [ti for ti in t_deps if match_fn(qgraph, qgraph.deps[qi], tgraph, tgraph.deps[ti])]
        for qi in q_deps
    }

    best = 0
    def extend(qi, used, size):
        nonlocal best
        best = max(best, size)
        if qi == len(q_deps):
            return
        extend(qi + 1, used, size)  # leave this question dep unmatched
        for ti in edges[qi]:
            if ti not in used:
                extend(qi + 1, used | {ti}, size + 1)

    extend(0, frozenset(), 0)
    return best


def bag_overlap(q_lemmas, t_lemmas) -> int:
    return len(set(q_lemmas) & set(t_lemmas))


def significant_lemmas(graph) -> list:
    """Lemmas of the graph's content words, derivative tokens left out,
    in token order and with repeats."""
    from derivqa.lexica import CONTENT_POS

    return [t.lemma for t in graph.tokens
            if t.pos in CONTENT_POS and t.deriv_pattern is None]


def bag_ranking(qgraph, graphs, k: int) -> list:
    """Reference bag engine: (sentence id, coverage, sorted shared lemmas)
    of the top k graphs, scoring every graph by shared content lemmas
    (derivative tokens left out), then sorting by score and bank position."""
    from fractions import Fraction

    q_lemmas = significant_lemmas(qgraph)
    scored = []
    for position, graph in enumerate(graphs):
        shared = bag_overlap(q_lemmas, significant_lemmas(graph))
        if shared:
            scored.append((-shared, position))
    scored.sort()
    return [(graphs[position].sentence_id, Fraction(-neg, len(set(q_lemmas))),
             sorted(set(q_lemmas) & set(significant_lemmas(graphs[position]))))
            for neg, position in scored[:k]]


def dep_signature(graph, dep, with_provenance: bool = True):
    """Lemma-level view of a dependency, the unit of graph comparison."""
    lemmas = tuple(graph.tokens[i].lemma for i in dep.args)
    head = (dep.label, lemmas, dep.prep)
    return head + ((dep.provenance,) if with_provenance else ())


def graph_equal(a, b, ignore_provenance: bool = False) -> bool:
    """Structural equality at lemma level; token order does not matter."""
    keep = not ignore_provenance
    sig_a = {dep_signature(a, d, keep) for d in a.deps}
    sig_b = {dep_signature(b, d, keep) for d in b.deps}
    return sig_a == sig_b


_CLITIC_RE = re.compile(r"^(.+?)(?:-t)?-(il|elle|ils|elles|on)$")
_PRONS = {"il", "elle", "ils", "elles", "on", "je", "tu", "nous", "vous"}
_ELIDED = {"l'", "d'", "n'", "s'", "j'", "m'", "t'", "qu'"}


def tokenize(sentence: str) -> list:
    """Reference tokenizer: the clitic regex tried on every chunk, with or
    without a hyphen; raises the parser's UnknownTokenError on a leading `-`."""
    from derivqa.depgraph import UnknownTokenError

    pieces = []
    for chunk in sentence.split():
        chunk = chunk.strip(".,!?;:«»()\"")
        if not chunk:
            continue
        m = _CLITIC_RE.match(chunk)
        clitic = None
        if m and m.group(1).lower() not in _PRONS:
            chunk, clitic = m.group(1), m.group(2)
        while "'" in chunk:
            head, rest = chunk.split("'", 1)
            prefix = head.lower() + "'"
            if prefix in _ELIDED and rest:
                pieces.append(prefix)
                chunk = rest
            else:
                break
        if chunk.startswith("-"):
            raise UnknownTokenError(chunk)
        pieces.append(chunk)
        if clitic:
            pieces.append("-" + clitic)
    return pieces


_TAG_POS = {"V": "VERB", "N": "NOUN", "ADJ": "ADJ", "ADV": "ADV"}


def reading(entries, pos: str, subtags=None):
    """Reference reading choice: the first of `entries` whose tags, split at
    every `:` on each call, name `pos` and, if `subtags` is given, have a
    second part in it."""
    for entry in entries:
        parts = entry.morph_tags.split(":")
        if (_TAG_POS.get(parts[0], parts[0]) == pos
                and (subtags is None or len(parts) > 1 and parts[1] in subtags)):
            return entry
    return None
