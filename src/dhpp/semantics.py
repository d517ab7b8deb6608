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
component values must stay below the assigned value.

satisfies_literal and satisfies_body are the one literal evaluator of the
p-model check, the reduct and the minimality search. They read h only
through h.possible(formula), the values a formula may still take (None
while h cannot tell), and return None while those values disagree; a
PInterpretation allows one value per formula, so it gets plain booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def satisfies_head(h: PInterpretation, rule: Rule) -> bool:
    return any(
        truth_leq(ann, h.value(HybridFormula.atomic(atom))) for atom, ann in rule.head
    )


def satisfies_rule(h: PInterpretation, rule: Rule) -> bool:
    return satisfies_head(h, rule) if satisfies_body(h, rule) else True


@dataclass(frozen=True)
class AtomCheck:
    atom: Atom
    folded: ProbInterval
    assigned: ProbInterval
    ok: bool


@dataclass(frozen=True)
class FormulaCheck:
    formula: HybridFormula
    composed: ProbInterval
    assigned: ProbInterval
    ok: bool


@dataclass(frozen=True)
class SatisfactionReport:
    rules: tuple[Rule, ...]
    rule_verdicts: tuple[bool, ...]
    atom_checks: tuple[AtomCheck, ...]
    formula_checks: tuple[FormulaCheck, ...]

    @property
    def satisfied(self) -> bool:
        return (
            all(self.rule_verdicts)
            and all(c.ok for c in self.atom_checks)
            and all(c.ok for c in self.formula_checks)
        )

    @property
    def first_failure(self) -> str | None:
        for rule, ok in zip(self.rules, self.rule_verdicts):
            if not ok:
                return f"rule not satisfied: {rule}"
        for check in self.atom_checks:
            if not check.ok:
                return (
                    f"fold {check.folded} of derived annotations for {check.atom} "
                    f"exceeds assigned {check.assigned}"
                )
        for check in self.formula_checks:
            if not check.ok:
                return (
                    f"composition {check.composed} for {check.formula} "
                    f"exceeds assigned {check.assigned}"
                )
        return None


def satisfies_program(gp: GroundProgram, h: PInterpretation) -> SatisfactionReport:
    """Full p-model check: rules, per-atom folds, per-formula compositions."""
    fired = [satisfies_body(h, rule) for rule in gp.rules]
    rule_verdicts = tuple(
        satisfies_head(h, rule) if fired[i] else True for i, rule in enumerate(gp.rules)
    )

    contributions: dict[Atom, list[ProbInterval]] = {}
    for i, rule in enumerate(gp.rules):
        if not fired[i]:
            continue
        for atom, ann in rule.head:
            if truth_leq(ann, h.value(HybridFormula.atomic(atom))):
                contributions.setdefault(atom, []).append(ann)
    atom_checks = []
    for atom in sorted(contributions, key=str):
        anns = contributions[atom]
        folded = compose_fold(gp.strategy_for(atom.predicate), anns)
        assigned = h.value(HybridFormula.atomic(atom))
        atom_checks.append(AtomCheck(atom, folded, assigned, truth_leq(folded, assigned)))

    formula_checks = []
    for formula in gp.relevant_formulae:
        if formula.is_atomic:
            continue
        composed = compose_fold(
            gp.formula_strategy(formula),
            [h.value(HybridFormula.atomic(a)) for a in formula.atoms],
        )
        assigned = h.value(formula)
        formula_checks.append(
            FormulaCheck(formula, composed, assigned, truth_leq(composed, assigned))
        )
    return SatisfactionReport(
        tuple(gp.rules), rule_verdicts, tuple(atom_checks), tuple(formula_checks)
    )


def reduct(gp: GroundProgram, h: PInterpretation) -> GroundProgram:
    """Rules whose whole body h satisfies, kept verbatim, in gp's formula scope."""
    rules = [rule for rule in gp.rules if satisfies_body(h, rule)]
    return GroundProgram(
        rules=rules,
        tau=dict(gp.tau),
        default_tau=gp.default_tau,
        registry=gp.registry,
        scope=gp.relevant_formulae,
    )
