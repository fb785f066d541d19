"""Simulated rephrasing: synonym alternates and derivation patterns.

A derivation pattern rewrites the dependency neighborhood of a pivot word
into the dependencies its rephrasing with a derivative would carry; the
rephrased sentence itself is never generated. Synonym enrichment attaches
alternate lemmas to tokens so that matching can treat "empereur" and
"chef" disjunctively. Both enrichments are additive: BASE dependencies are
never removed or altered.

Pattern files are declarative blocks:

    PATTERN v2n_eur_svo
    PIVOT VERB
    DERIV NOUN eur
    IN SUBJECT(P,X) DIROBJ(P,Y)
    OUT ATTRIBUTE(X,D) PREPPH(D,de,Y)
    CONSTR T
    END

P names the pivot inside IN templates, D the derivative inside OUT
templates; other single-letter variables must be bound by IN before OUT
may use them.
"""

import logging
import re
from dataclasses import dataclass

from .depgraph import (
    BASE,
    DERIVATIONAL,
    KNOWN_LABELS,
    PREPPH,
    Dependency,
    DependencyGraph,
    TokenNode,
    copy_graph,
)
from .lexica import CONTENT_POS, Dictionary, LexiconError, _read_lines

log = logging.getLogger(__name__)

PIVOT_VAR = "P"
DERIV_VAR = "D"


class PatternError(LexiconError):
    """A pattern file failed validation."""


@dataclass(frozen=True)
class DepTemplate:
    """A dependency schema over variables, e.g. PREPPH(D,de,Y)."""

    label: str
    args: tuple
    prep: str | None = None


@dataclass(frozen=True)
class DerivationPattern:
    pattern_id: str
    pivot_pos: str
    deriv_pos: str
    deriv_suffix: str
    inputs: tuple
    outputs: tuple
    construction: str | None = None


@dataclass
class PatternMatch:
    """One way a pattern fits a graph: bindings plus the derivative to add.

    The matches of one binding share its `bindings` dict, so it is
    read-only; `apply_pattern` copies it before binding the derivative.
    """

    pattern: DerivationPattern
    bindings: dict
    derivative: object  # DerivativeRecord


_TEMPLATE_RE = re.compile(r"^([A-Z]+)\(([^()]*)\)$")
_VAR_RE = re.compile(r"^[A-Z]$")


def _parse_template(text: str, path, lineno: int) -> DepTemplate:
    m = _TEMPLATE_RE.match(text)
    if not m:
        raise PatternError(path, lineno, f"bad dependency template: {text!r}")
    label, inner = m.group(1), m.group(2)
    parts = [p.strip() for p in inner.split(",")]
    if label == PREPPH:
        if len(parts) != 3:
            raise PatternError(path, lineno, f"{PREPPH} template takes (head,prep,dependent): {text!r}")
        head, prep, dependent = parts
        args, prep_value = (head, dependent), prep
        if not prep or _VAR_RE.match(prep):
            raise PatternError(path, lineno, f"preposition must be a literal string: {text!r}")
    else:
        if label not in KNOWN_LABELS:
            raise PatternError(path, lineno, f"unknown dependency label {label!r}")
        if len(parts) != 2:
            raise PatternError(path, lineno, f"{label} template takes two arguments: {text!r}")
        args, prep_value = tuple(parts), None
    for var in args:
        if not _VAR_RE.match(var):
            raise PatternError(path, lineno, f"arguments must be single-letter variables: {var!r}")
    return DepTemplate(label, args, prep_value)


def parse_patterns(path) -> list:
    """Load a pattern file, validating block structure and variable binding."""
    patterns = []
    seen_ids = set()
    fields: dict = {}
    start_line = 0

    def finish(lineno):
        for required in ("PATTERN", "PIVOT", "DERIV", "IN", "OUT"):
            if required not in fields:
                raise PatternError(path, lineno, f"block missing {required} line")
        inputs = tuple(fields["IN"])
        outputs = tuple(fields["OUT"])
        bound = set().union(*(t.args for t in inputs))
        if PIVOT_VAR not in bound:
            raise PatternError(path, lineno, f"pivot variable {PIVOT_VAR} unused in IN templates")
        if DERIV_VAR in bound:
            raise PatternError(path, lineno, f"{DERIV_VAR} is reserved for OUT templates")
        produced = set().union(*(t.args for t in outputs))
        unbound = produced - bound - {DERIV_VAR}
        if unbound:
            raise PatternError(path, lineno, f"unbound output variables: {sorted(unbound)}")
        if DERIV_VAR not in produced:
            raise PatternError(path, lineno, f"no output template mentions {DERIV_VAR}")
        patterns.append(DerivationPattern(
            pattern_id=fields["PATTERN"],
            pivot_pos=fields["PIVOT"],
            deriv_pos=fields["DERIV"][0],
            deriv_suffix=fields["DERIV"][1],
            inputs=inputs,
            outputs=outputs,
            construction=fields.get("CONSTR"),
        ))
        fields.clear()

    for lineno, raw in _read_lines(path, PatternError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "PATTERN":
            if fields:
                raise PatternError(path, lineno, "previous block not closed with END")
            if not rest:
                raise PatternError(path, lineno, "PATTERN needs an id")
            if rest in seen_ids:
                raise PatternError(path, lineno, f"duplicate pattern id {rest!r}")
            seen_ids.add(rest)
            fields["PATTERN"] = rest
            start_line = lineno
        elif keyword == "END":
            if not fields:
                raise PatternError(path, lineno, "END outside a pattern block")
            finish(lineno)
        elif not fields:
            raise PatternError(path, lineno, f"{keyword} outside a pattern block")
        elif keyword in fields:
            raise PatternError(path, lineno, f"duplicate {keyword} line")
        elif keyword == "PIVOT":
            if rest not in CONTENT_POS:
                raise PatternError(path, lineno, f"bad pivot pos {rest!r}")
            fields["PIVOT"] = rest
        elif keyword == "DERIV":
            parts = rest.split()
            if len(parts) != 2 or parts[0] not in CONTENT_POS:
                raise PatternError(path, lineno, f"DERIV takes 'pos suffix': {rest!r}")
            fields["DERIV"] = (parts[0], "" if parts[1] == "-" else parts[1])
        elif keyword in ("IN", "OUT"):
            templates = [_parse_template(t, path, lineno) for t in rest.split()]
            if not templates:
                raise PatternError(path, lineno, f"{keyword} needs at least one template")
            fields[keyword] = templates
        elif keyword == "CONSTR":
            if not rest:
                raise PatternError(path, lineno, "CONSTR needs a code token")
            fields["CONSTR"] = rest
        else:
            raise PatternError(path, lineno, f"unknown keyword {keyword!r}")
    if fields:
        raise PatternError(path, start_line, "unterminated pattern block")
    return patterns


def enrich_synonyms(graph: DependencyGraph, synonyms) -> DependencyGraph:
    """Attach synonym lemmas as alternates on every significant token."""
    out = copy_graph(graph)
    for token in out.tokens:
        if token.pos not in CONTENT_POS:
            continue
        extra = synonyms.lookup(token.lemma, token.sense_id)
        if extra:
            token.alternates = (token.alternates | extra) - {token.lemma}
    return out


def _extend_bindings(templates, deps, index: int, binding: dict, results: list) -> None:
    """Append to `results` every extension of `binding` over
    `templates[index:]`, choosing `deps` in order for each template."""
    if index == len(templates):
        results.append(binding)
        return
    template = templates[index]
    for dep in deps:
        if dep.label != template.label or dep.prep != template.prep:
            continue
        trial = dict(binding)
        consistent = True
        for var, token_index in zip(template.args, dep.args):
            if trial.get(var, token_index) != token_index:
                consistent = False
                break
            trial[var] = token_index
        if consistent:
            _extend_bindings(templates, deps, index + 1, trial, results)


def _enumerate_bindings(templates, deps, pivot: int) -> list:
    """All total assignments of template variables to token indices, one per
    way of choosing `deps`; `match_pattern` drops repeated ones."""
    results = []
    _extend_bindings(templates, deps, 0, {PIVOT_VAR: pivot}, results)
    return results


def _construction_ok(pattern: DerivationPattern, senses, sense_id) -> bool:
    """CONSTR is satisfied by a code prefix of a pivot-pos sense, and waived
    when codes are unknown."""
    if pattern.construction is None:
        return True
    relevant = [s for s in senses if s.pos == pattern.pivot_pos
                and (sense_id is None or s.sense_id == sense_id)]
    codes = [code for s in relevant for code in s.construction_codes]
    if not codes:
        return True
    return any(code.startswith(pattern.construction) for code in codes)


def _pivot_lemmas(token: TokenNode, use_alternates: bool) -> list:
    """The (lemma, sense) pairs a pattern pivots on at `token`: its own lemma
    in its sense, then under composition its sorted alternates, whose sense
    is unknown."""
    lemmas = [(token.lemma, token.sense_id)]
    if use_alternates:
        lemmas.extend((alt, None) for alt in sorted(token.alternates))
    return lemmas


def match_pattern(graph: DependencyGraph, pattern: DerivationPattern, pivot: int,
                  resource, dictionary: Dictionary, use_alternates: bool = False) -> list:
    """All ways `pattern` applies at the given pivot token.

    Bindings are sought in BASE dependencies only, and only when a pivot
    lemma has an eligible derivative: a record of the pattern's derivative
    part of speech and suffix, from a lemma whose senses pass the CONSTR
    check. The pivot lemmas are the token's own lemma and, under
    composition (`use_alternates`), its alternates. A match is produced per
    distinct (binding, eligible derivative), binding-major in the order
    found; the matches of one binding share its dict.
    Returns [] when the pivot's part of speech differs from the pattern's.
    """
    token = graph.tokens[pivot]
    if token.pos != pattern.pivot_pos:
        return []
    records = []
    for lemma, sense_id in _pivot_lemmas(token, use_alternates):
        eligible = [r for r in resource.records_for(lemma, sense_id)
                    if r.target_pos == pattern.deriv_pos and r.suffix == pattern.deriv_suffix]
        if eligible and _construction_ok(pattern, dictionary.senses.get(lemma, []), sense_id):
            records.extend(eligible)
    if not records:
        return []
    records = dict.fromkeys(records)  # a record may repeat across, or within, lemmas
    base_deps = [d for d in graph.deps if d.provenance == BASE]
    bindings = {}
    for binding in _enumerate_bindings(pattern.inputs, base_deps, pivot):
        bindings.setdefault(frozenset(binding.items()), binding)
    return [PatternMatch(pattern, binding, record)
            for binding in bindings.values() for record in records]


def apply_pattern(graph: DependencyGraph, match: PatternMatch) -> TokenNode:
    """Instantiate a match in `graph`: add the derivative token and its
    dependencies, and return the derivative token.

    Applying the same match again finds the existing derivative token and
    adds nothing, so the operation is idempotent per (pattern, binding,
    derivative).
    """
    record = match.derivative
    surface = record.surface
    pattern_id = match.pattern.pattern_id
    for token in graph.tokens:
        if token.lemma == surface and token.deriv_pattern == pattern_id:
            break
    else:
        token = TokenNode(len(graph.tokens), surface, surface, record.target_pos,
                          deriv_pattern=pattern_id, deriv_source=record.source_lemma)
        graph.tokens.append(token)
    binding = dict(match.bindings)
    binding[DERIV_VAR] = token.index
    for template in match.pattern.outputs:
        args = tuple(binding[var] for var in template.args)
        graph.add_dep(Dependency(template.label, args, prep=template.prep,
                                 provenance=DERIVATIONAL))
    return token


def enrich(graph: DependencyGraph, synonyms, patterns, resource, dictionary,
           compose: bool = False) -> DependencyGraph:
    """Synonym alternates, then every pattern match, in one new graph.

    Each pattern is tried, in ascending token order, only at the tokens of
    `graph` of its pivot part of speech where a pivot lemma holds a record
    of its derivative part of speech and suffix; `match_pattern` returns []
    at every other token. The pivot lemmas are the token's own lemma and,
    under `compose`, its synonym alternates. Matches are applied in
    deterministic order. Under `compose` a derivative of the pivot's own
    lemma gets its own synonyms as alternates; a derivative reached only
    through an alternate gets none.
    """
    out = enrich_synonyms(graph, synonyms)
    pivot_poses = {pattern.pivot_pos for pattern in patterns}
    # (pivot pos, derivative pos, suffix) -> ascending positions of the
    # graph's own tokens where a pivot lemma holds such a record
    pivots = {}
    for position, token in enumerate(out.tokens):
        if token.pos not in pivot_poses:
            continue
        for lemma, sense_id in _pivot_lemmas(token, compose):
            for record in resource.records_for(lemma, sense_id):
                positions = pivots.setdefault((token.pos, record.target_pos, record.suffix), [])
                if not positions or positions[-1] != position:
                    positions.append(position)
    for pattern in patterns:
        key = (pattern.pivot_pos, pattern.deriv_pos, pattern.deriv_suffix)
        for pivot in pivots.get(key, ()):
            lemma = out.tokens[pivot].lemma
            matches = match_pattern(out, pattern, pivot, resource, dictionary,
                                    use_alternates=compose)
            if len(matches) > 1:
                matches.sort(key=lambda m: (m.derivative.surface,
                                            tuple(sorted(m.bindings.items()))))
            for match in matches:
                token = apply_pattern(out, match)
                if compose and match.derivative.source_lemma == lemma:
                    token.alternates |= synonyms.lookup(token.lemma, None) - {token.lemma}
    return out
