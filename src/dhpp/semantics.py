"""Satisfaction, p-models, and the probability reduct.

An interpretation satisfies F:mu when mu lies below the assigned value in
the truth order. Aggregates evaluate over the multiset of pairs whose
conditions the interpretation satisfies: expectation-style functions
produce a value interval compared against the guard, probability-style
functions produce a value with a joint probability that must dominate the
literal's annotation. Negation is the exact complement.

Being a p-model takes more than satisfying every rule: per atom, the fold
of the satisfied head annotations of fired rules must stay below the
assigned value, and per compound formula, the strategy composition of the
component values must stay below the assigned value. satisfies_program
checks all three in one pass over the rules, reading atom values from one
map, and keeps every rule's verdict, the fired rules and the first failed
check as data, rendering text only when asked (first_failure). The reduct
by h is those fired rules (the FLP reduct), so each body is decided once.

satisfies_literal and satisfies_body are the literal evaluator of the
p-model check. The minimality search decides atomic formula literals over
rank masks of its own and calls satisfies_literal for compound formulae
and aggregates, so aggregates are evaluated here alone. The evaluator reads
h only through h.possible(formula), the values a formula may still take
(None while h cannot tell), and returns None while those values disagree;
a PInterpretation allows one value per formula, so it gets plain booleans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .aggregates import EValue, PValue, UNDEFINED, build_multiset, eval_aggregate
from .grounder import GroundProgram
from .model import (
    AggregateAtom,
    Atom,
    BuiltinComparison,
    HybridFormula,
    interval_compare,
    PInterpretation,
    ProbInterval,
    Rule,
    truth_leq,
    ValueInterval,
    ZERO,
)
from .strategies import compose_fold


def _aggregate_satisfied(h, item: AggregateAtom, ann: ProbInterval) -> bool | None:
    multiset = build_multiset(item.pset, h)
    if multiset is None:
        return None
    result = eval_aggregate(item.func, multiset)
    if result is UNDEFINED:
        return False
    guard = item.guard_interval()
    if isinstance(result, EValue):
        return interval_compare(result.value, item.cmp, guard)
    assert isinstance(result, PValue)
    return interval_compare(ValueInterval.point(result.value), item.cmp, guard) and truth_leq(
        ann, result.prob
    )


def satisfies_literal(h, item, ann: ProbInterval, positive: bool) -> bool | None:
    """Whether h satisfies item:ann, or its negation unless positive; None
    while the literal is open."""
    if isinstance(item, HybridFormula):
        values = h.possible(item)
        if values is None:
            return None
        sat = truth_leq(ann, values[0])
        if len(values) > 1 and any(truth_leq(ann, v) != sat for v in values[1:]):
            return None
    elif isinstance(item, AggregateAtom):
        sat = _aggregate_satisfied(h, item, ann)
    elif isinstance(item, BuiltinComparison):
        sat = item.holds()
    else:
        raise AssertionError(f"unexpected body item {item!r}")
    return sat if positive or sat is None else not sat


def satisfies_body(h, rule: Rule) -> bool | None:
    """False when a body literal fails, True when all hold, None otherwise."""
    decided = True
    for literals, positive in ((rule.pos_body, True), (rule.neg_body, False)):
        for item, ann in literals:
            sat = satisfies_literal(h, item, ann, positive)
            if sat is False:
                return False
            if sat is None:
                decided = False
    return True if decided else None


@dataclass(frozen=True)
class SatisfactionReport:
    """Every rule's verdict, the rules whose whole body h satisfies (in
    program order), and the first failed check as data: (rule,), (atom,
    folded, assigned) or (formula, composed, assigned); None for a p-model."""

    rule_verdicts: tuple[bool, ...]
    fired: tuple[Rule, ...]
    failure: tuple | None

    @property
    def satisfied(self) -> bool:
        return self.failure is None

    @property
    def first_failure(self) -> str | None:
        if self.failure is None:
            return None
        if len(self.failure) == 1:
            return f"rule not satisfied: {self.failure[0]}"
        subject, value, assigned = self.failure
        if isinstance(subject, Atom):
            return (
                f"fold {value} of derived annotations for {subject} "
                f"exceeds assigned {assigned}"
            )
        return f"composition {value} for {subject} exceeds assigned {assigned}"


def satisfies_program(gp: GroundProgram, h: PInterpretation) -> SatisfactionReport:
    """Full p-model check in one pass over the rules.

    A rule whose body holds needs a satisfied head disjunct, and each one it
    has contributes its annotation to its atom. Once every rule holds, each
    atom's fold of contributions must lie below its value (the first failing
    atom by printed text is reported); once every fold holds, so must each
    compound's composition of its components, in scope order."""
    values = {f.atoms[0]: v for f, v in h.entries if f.is_atomic}
    verdicts = []
    fired = []
    failure = None
    contributions: dict[Atom, list[ProbInterval]] = {}
    for rule in gp.rules:
        ok = True
        if satisfies_body(h, rule):
            fired.append(rule)
            ok = False
            for atom, ann in rule.head:
                if truth_leq(ann, values.get(atom, ZERO)):
                    ok = True
                    contributions.setdefault(atom, []).append(ann)
        verdicts.append(ok)
        if not ok and failure is None:
            failure = (rule,)
    if failure is None:
        for atom, anns in contributions.items():
            folded = compose_fold(gp.strategy_for(atom.predicate), anns)
            assigned = values.get(atom, ZERO)
            if not truth_leq(folded, assigned) and (
                failure is None or str(atom) < str(failure[0])
            ):
                failure = (atom, folded, assigned)
    if failure is None:
        for formula in gp.relevant_formulae:
            if formula.is_atomic:
                continue
            composed = compose_fold(
                gp.formula_strategy(formula), [values.get(a, ZERO) for a in formula.atoms]
            )
            assigned = h.value(formula)
            if not truth_leq(composed, assigned):
                failure = (formula, composed, assigned)
                break
    return SatisfactionReport(tuple(verdicts), tuple(fired), failure)


def reduct(gp: GroundProgram, report: SatisfactionReport) -> GroundProgram:
    """The reduct of gp by the interpretation that report judged: its fired
    rules, kept verbatim, in gp's formula scope. No body is decided again."""
    return replace(gp, rules=list(report.fired), scope=gp.relevant_formulae)
