"""Sense tagging driven by dictionary example sentences.

Each example sentence attached to a sense is parsed once; the dependencies
touching the entry word become a rule. At tagging time a rule fires when at
least one of its constraints is satisfied, and the firing rule satisfying
the most constraints decides the sense (ties go to the lowest sense id).
Monosemous words are tagged directly. Words whose context matches no rule
keep sense None, and derivative selection then falls back to every record
of the word.
"""

import logging
from dataclasses import dataclass, field

from .depgraph import ToyParseError, toy_parse
from .lexica import CONTENT_POS, Dictionary, _write_lines

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DependencyConstraint:
    """One dependency the entry word carried in the example sentence.

    slot is the position of the entry word inside the dependency's args;
    other_lemma is the lemma found in the remaining slot.
    """

    label: str
    slot: int
    other_lemma: str
    prep: str | None = None

    def satisfied_by(self, graph, token_index: int) -> bool:
        for dep in graph.deps:
            if (dep.label != self.label or dep.prep != self.prep
                    or dep.args[self.slot] != token_index):
                continue
            if graph.tokens[dep.args[1 - self.slot]].lemma == self.other_lemma:
                return True
        return False


@dataclass(frozen=True)
class WsdRule:
    """The rule of one example of a sense; `RuleCompilation.rules` files it
    under the sense's (lemma, pos)."""

    sense_id: int
    constraints: tuple

    def specificity(self, graph, token_index: int) -> int:
        return sum(1 for c in self.constraints if c.satisfied_by(graph, token_index))


@dataclass
class RuleCompilation:
    rules: dict = field(default_factory=dict)  # (lemma, pos) -> [WsdRule]
    skipped: list = field(default_factory=list)  # (lemma, sense_id, example, reason)
    examples_total: int = 0

    def rules_for(self, lemma: str, pos: str) -> list:
        return self.rules.get((lemma, pos), [])


def compile_rules(dictionary, lexicon) -> RuleCompilation:
    """Turn every parseable example sentence into one disambiguation rule."""
    compilation = RuleCompilation()
    for sense in dictionary:
        for example in sense.examples:
            compilation.examples_total += 1
            try:
                graph = toy_parse(example, lexicon, sentence_id=f"ex:{sense.lemma}:{sense.sense_id}")
            except ToyParseError as exc:
                compilation.skipped.append((sense.lemma, sense.sense_id, example, str(exc)))
                log.warning("skipping example for %s#%d: %s", sense.lemma, sense.sense_id, exc)
                continue
            entry = [t for t in graph.tokens if t.lemma == sense.lemma and t.pos == sense.pos]
            if not entry:
                reason = "entry word does not occur in its own example"
                compilation.skipped.append((sense.lemma, sense.sense_id, example, reason))
                log.warning("skipping example for %s#%d: %s", sense.lemma, sense.sense_id, reason)
                continue
            token = entry[0]
            constraints = []
            for dep in graph.deps:
                if token.index not in dep.args:
                    continue
                slot = dep.args.index(token.index)
                other = graph.tokens[dep.args[1 - slot]].lemma
                constraints.append(DependencyConstraint(dep.label, slot, other, dep.prep))
            rule = WsdRule(sense.sense_id, tuple(constraints))
            compilation.rules.setdefault((sense.lemma, sense.pos), []).append(rule)
    return compilation


@dataclass
class WsdStats:
    monosemous: int = 0
    rule_resolved: int = 0
    unresolved: int = 0


def disambiguate(graph, compilation: RuleCompilation, dictionary: Dictionary,
                 stats: WsdStats | None = None):
    """Assign sense ids to the graph's content tokens, in place."""
    by_lemma = dictionary.senses
    if stats is None:
        stats = WsdStats()
    for token in graph.tokens:
        if token.pos not in CONTENT_POS:
            continue
        senses = [s for s in by_lemma.get(token.lemma, []) if s.pos == token.pos]
        if not senses:
            continue
        if len(senses) == 1:
            token.sense_id = senses[0].sense_id
            stats.monosemous += 1
            continue
        best = None
        best_specificity = 0
        for rule in compilation.rules_for(token.lemma, token.pos):
            spec = rule.specificity(graph, token.index)
            if spec == 0:
                continue
            if spec > best_specificity or (spec == best_specificity and best is not None
                                           and rule.sense_id < best.sense_id):
                best, best_specificity = rule, spec
        if best is not None:
            token.sense_id = best.sense_id
            stats.rule_resolved += 1
        else:
            stats.unresolved += 1
    return graph


def dump_rules(compilation: RuleCompilation, path):
    """Write the compiled rules as an audit TSV, one row per constraint.

    Columns: lemma, sense, label, slot, other_lemma. For preposition
    constraints the label column carries the preposition after a colon
    (e.g. "PREPPH:de") so the row stays five columns wide. Skipped examples
    are appended as comment lines.
    """
    lines = []
    for (lemma, _pos), rules in sorted(compilation.rules.items()):
        for rule in rules:
            for c in rule.constraints:
                label = f"{c.label}:{c.prep}" if c.prep else c.label
                lines.append(f"{lemma}\t{rule.sense_id}\t{label}\t{c.slot}\t{c.other_lemma}")
    for lemma, sense_id, example, reason in compilation.skipped:
        lines.append(f"# skipped {lemma}/{sense_id}: {example} ({reason})")
    _write_lines(path, lines)
