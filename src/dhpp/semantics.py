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
checks all three in one pass over the rules and keeps every rule's
verdict, the fired rules and the first failed check as data, rendering
text only when asked (first_failure). The reduct by h is those fired rules
(the FLP reduct), so each body is decided once.

The check runs over the value lattice (_lattice._ValueLattice), for
enumeration, check-model and the minimality search's leaves alike; a
reduct carries its source program and judges over the source's lattice.
h is one bit-mask domain per atom, with a bit of its own for a value off
the lattice (_lattice._Point); formula literals and head disjuncts are
decided by ANDing it with the masks of the lattice's rule forms.
Contributions fold left, in rule order, through the fold tables the
closure reads too; compose_fold folds only where a registered strategy's
fold leaves the lattice, and composes compounds.

_holds is the one evaluator of the body literals that are no atomic
formula, and _holds_all the one test of a conjunction of literals, for
the check and the minimality search alike. They read an interpretation as
a mask of the ranks each atom may take, and a compound's value, None while
that is open, and return None while the literal or conjunction is open,
which a point, with one bit per atom and every compound's value, never is.
A rule body is a conjunction, and so is a pair's condition: an aggregate
selects the pairs whose conditions hold (build_multiset), and is open
while one of them is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregates import EValue, Multiset, UNDEFINED, eval_aggregate
from ._lattice import _Point
from .grounder import GroundProgram
from .model import (
    AggregateAtom,
    GroundSet,
    HybridFormula,
    interval_compare,
    PInterpretation,
    Rule,
    scalar_compare,
    truth_leq,
)
from .strategies import compose_fold


# the text of each kind of failed check, as SatisfactionReport.failure names it
_FAILURES = {
    "rule": "rule not satisfied: {subject}",
    "fold": "fold {value} of derived annotations for {subject} exceeds assigned {assigned}",
    "composition": "composition {value} for {subject} exceeds assigned {assigned}",
}


@dataclass(frozen=True)
class SatisfactionReport:
    """Every rule's verdict, the rules whose whole body h satisfies (in
    program order), and the first failed check as data, (kind, subject,
    value, assigned): ("rule", rule, None, None), ("fold", atom, folded,
    assigned) or ("composition", formula, composed, assigned); None for a
    p-model."""

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
        kind, subject, value, assigned = self.failure
        return _FAILURES[kind].format(subject=subject, value=value, assigned=assigned)


def satisfies_program(gp: GroundProgram, h: PInterpretation | _Point) -> SatisfactionReport:
    """Full p-model check in one pass over the rules.

    A rule whose body holds needs a satisfied head disjunct, and each one it
    has contributes its annotation to its atom. Once every rule holds, each
    atom's fold of contributions must lie below its value (the first failing
    atom by printed text is reported); once every fold holds, so must each
    compound's composition of its components, in scope order.

    Rules are decided over the rule forms of gp's value lattice, a
    reduct's source's, with h in its numbering: h is a _Point of that
    lattice, or an interpretation the lattice numbers."""
    point = h if isinstance(h, _Point) else gp.value_lattice().point(h)
    domains = point.domains
    compounds = point.compounds
    bodies, heads = point.forms(gp.rules)
    verdicts = []
    fired = []
    failure = None
    contributions: dict[int, list[tuple]] = {}
    compound = compounds.__getitem__
    for rule, body, head in zip(gp.rules, bodies, heads):
        ok = True
        # two-valued on a point, so inline: _holds_all per rule costs more
        for k, mask in body:
            if k is None:
                if not _holds(mask, domains, compound):
                    break
            elif not domains[k] & mask:
                break
        else:
            fired.append(rule)
            ok = False
            for d in head:
                if domains[d[0]] & d[1]:
                    ok = True
                    contributions.setdefault(d[0], []).append(d)
        verdicts.append(ok)
        if not ok and failure is None:
            failure = ("rule", rule, None, None)
    if failure is None:
        # atom k is the k-th by printed text
        lattice = point.lattice
        atoms = lattice.atoms
        worst = len(atoms)
        for k, disjuncts in contributions.items():
            # a lone contribution is its own fold, and its mask held
            if len(disjuncts) == 1 or k > worst:
                continue
            table, r = lattice.folds[k], disjuncts[0][2]
            for d in disjuncts[1:]:
                r = table.get((r, d[2])) if r is not None else None
            atom = atoms[k].atoms[0]
            if r is None:
                folded = compose_fold(gp.strategy_for(atom.predicate), [d[3] for d in disjuncts])
            else:
                folded = lattice.atom_values[k][r]
            assigned = point.value(k)
            if not truth_leq(folded, assigned):
                failure, worst = ("fold", atom, folded, assigned), k
    if failure is None:
        position = point.lattice.position
        for formula, assigned in compounds.items():
            composed = compose_fold(
                gp.formula_strategy(formula), [point.value(position[a]) for a in formula.atoms]
            )
            if not truth_leq(composed, assigned):
                failure = ("composition", formula, composed, assigned)
                break
    return SatisfactionReport(tuple(verdicts), tuple(fired), failure)


def _holds(spec: tuple, domains: list[int], compound) -> bool | None:
    """Whether a body literal that is no atomic formula holds, or None while
    it is open; spec as in _ValueLattice.rule_forms. domains[k] is the mask
    of the ranks atom k may take, and compound(formula) a compound's value,
    or None while it is open. An aggregate selects its pairs by their
    conditions (build_multiset)."""
    item, ann = spec[0], spec[1]
    if isinstance(item, AggregateAtom):
        multiset = build_multiset(item.pset, spec[3], domains, compound)
        if multiset is None:
            return None
        result = eval_aggregate(item.func, multiset)
        if result is UNDEFINED:
            sat = False
        elif isinstance(result, EValue):
            sat = interval_compare(result.value, item.cmp, item.guard)
        else:
            # the probability family must also dominate ann
            sat = scalar_compare(result.value, item.cmp, item.guard) and truth_leq(ann, result.prob)
    elif isinstance(item, HybridFormula):
        value = compound(item)
        if value is None:
            return None
        sat = truth_leq(ann, value)
    else:
        sat = item.holds()
    return sat == spec[2]


def _holds_all(literals: tuple, domains: list[int], compound) -> bool | None:
    """Whether every literal holds on the whole of its domain: True when all
    do, False once one fails, None otherwise. literals are a conjunction as
    _ValueLattice.rule_forms writes it, a rule body or a pair's condition:
    an atomic one is (atom, mask of the ranks where it holds), read against
    domains[atom]; any other is (None, spec), decided by _holds."""
    decided = True
    for k, mask in literals:
        if k is None:
            sat = _holds(mask, domains, compound)
            if sat is False:
                return False
            if sat is None:
                decided = False
            continue
        d = domains[k]
        m = d & mask
        if m != d:
            if not m:
                return False
            decided = False
    return True if decided else None


def build_multiset(gset: GroundSet, conditions: tuple, domains: list[int], compound) -> Multiset | None:
    """Collect (value, prob) from the pairs whose conditions hold, or None
    while a pair is open.

    conditions are the pairs' condition forms, as _ValueLattice.rule_forms
    gives them: a pair is in when its condition holds on the whole of its
    domain, out once it fails on the whole of it, and open otherwise. One
    atomic literal, (atom, mask), is decided by its mask, with no call per
    pair; any other condition, (None, literals), by _holds_all. Two distinct
    pairs that agree on value and probability both contribute, so the
    result is a genuine multiset.
    """
    out: Multiset = []
    for pair, (k, form) in zip(gset.pairs, conditions):
        if k is None:
            holds = _holds_all(form, domains, compound)
            if holds is None:
                return None
            if not holds:
                continue
        else:
            d = domains[k]
            m = d & form
            if m != d:
                if m:
                    return None
                continue
        out.append((pair.value, pair.prob))
    return out


def reduct(gp: GroundProgram, report: SatisfactionReport) -> GroundProgram:
    """The reduct of gp by the interpretation that report judged: its fired
    rules, kept verbatim. Its source is gp's source, or gp, whose formula
    scope and value lattice it shares. No body is decided again."""
    return GroundProgram(list(report.fired), gp.tau, gp.default_tau, gp.registry, gp.source or gp)
