"""Answer-set enumeration.

Candidates come from a guess-and-close scheme: pick a disjunct for every
disjunctive rule, guess the final truth of every distinct aggregate literal
and every distinct negated literal in the rules that have a head, then run
a monotone closure from the empty interpretation. When a rule fires, the
chosen disjunct contributes its annotation, and so does any other disjunct
already satisfied by the current values; atom values are strategy folds
over the contributed annotations, compound values are strategy compositions
over their components. Constraints (headless rules) take no part in
generation.

Every candidate is then checked exactly: it must be a p-model of the
program, which no candidate violating a constraint is, and a minimal
p-model of its own reduct. Closure-based generation is complete for the
built-in strategies (their disjunctive compositions never shrink below a
component); exotic registered strategies keep exact checking but may miss
models whose values a closure cannot reach.

Minimality runs as a DFS over per-formula value domains at or below the
candidate, with unit propagation on rules whose bodies are decided.
Compound values are determined by their components throughout. Rule bodies
there are read by the semantics' evaluator, as in the p-model check.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import SearchSpaceOverflow
from .grounder import GroundProgram
from .model import (
    AggregateAtom,
    Atom,
    BuiltinComparison,
    HybridFormula,
    interp_leq,
    PInterpretation,
    ProbInterval,
    Rule,
    truth_leq,
    ZERO,
)
from .semantics import SatisfactionReport, reduct, satisfies_body, satisfies_program
from .strategies import compose_fold

GuessKey = tuple[str, object, ProbInterval]


@dataclass(frozen=True)
class Certificate:
    """Why an interpretation was accepted: how much work said so."""

    reduct_size: int
    minimality_nodes: int


@dataclass
class AnswerSetResult:
    interpretations: list[PInterpretation]
    certificates: list[Certificate]
    truncated: bool


# -- candidate generation -------------------------------------------------------


def _guess_keys(gp: GroundProgram) -> list[GuessKey]:
    # Headless rules add nothing to the closure, so guessing their literals
    # would only split candidates that close to the same interpretation; the
    # p-model check still rejects every one that violates a constraint. This
    # holds whatever the strategies, because it never changes a closure.
    keys: set[GuessKey] = set()
    for rule in gp.rules:
        if not rule.head:
            continue
        for item, ann in rule.pos_body:
            if isinstance(item, AggregateAtom):
                keys.add(("agg", item, ann))
        for item, ann in rule.neg_body:
            if isinstance(item, AggregateAtom):
                keys.add(("agg", item, ann))
            elif isinstance(item, HybridFormula):
                keys.add(("naf", item, ann))
    return sorted(keys, key=lambda k: (k[0], str(k[1]), str(k[2])))


def _body_fires(rule: Rule, values: dict[HybridFormula, ProbInterval], guesses) -> bool:
    # Not semantics.satisfies_body: aggregates and negated literals need not
    # grow with the closure's values, so here they read their guessed final
    # truth, not the current values; the p-model check confirms the guesses.
    for item, ann in rule.pos_body:
        if isinstance(item, HybridFormula):
            if not truth_leq(ann, values.get(item, ZERO)):
                return False
        elif isinstance(item, AggregateAtom):
            if not guesses[("agg", item, ann)]:
                return False
        elif isinstance(item, BuiltinComparison):
            if not item.holds():
                return False
    for item, ann in rule.neg_body:
        if isinstance(item, HybridFormula):
            if guesses[("naf", item, ann)]:
                return False
        elif isinstance(item, AggregateAtom):
            if guesses[("agg", item, ann)]:
                return False
    return True


def _closure(
    gp: GroundProgram,
    choices: dict[int, int],
    guesses: dict[GuessKey, bool],
) -> PInterpretation:
    atomics = {f.atoms[0]: f for f in gp.relevant_formulae if f.is_atomic}
    compounds = [f for f in gp.relevant_formulae if not f.is_atomic]
    values: dict[HybridFormula, ProbInterval] = {f: ZERO for f in gp.relevant_formulae}
    contributions: set[tuple[int, int]] = set()
    total_disjuncts = sum(len(rule.head) for rule in gp.rules)

    for _ in range(total_disjuncts + 2):
        new = set(contributions)
        for i, rule in enumerate(gp.rules):
            if not rule.head or not _body_fires(rule, values, guesses):
                continue
            chosen = choices.get(i, 0)
            new.add((i, chosen))
            for j, (atom, ann) in enumerate(rule.head):
                if j == chosen:
                    continue
                if truth_leq(ann, values[atomics[atom]]):
                    new.add((i, j))
        if new == contributions:
            break
        contributions = new
        per_atom: dict[Atom, list[ProbInterval]] = {}
        for i, j in contributions:
            atom, ann = gp.rules[i].head[j]
            per_atom.setdefault(atom, []).append(ann)
        for atom, formula in atomics.items():
            anns = per_atom.get(atom)
            if anns:
                values[formula] = compose_fold(gp.strategy_for(atom.predicate), anns)
            else:
                values[formula] = ZERO
        for formula in compounds:
            component = [values[atomics[a]] for a in formula.atoms]
            values[formula] = compose_fold(gp.formula_strategy(formula), component)
    return PInterpretation.from_pairs(values.items())


# -- minimality ---------------------------------------------------------------


class _MinimalitySearch:
    """DFS for a strictly smaller p-model of the reduct.

    Domains hold lattice values at or below the candidate; compound values
    are determined by components, so only atoms branch. The search answers
    possible(formula) for its current branch, so satisfies_body(self, rule)
    is decided only when every completion of the branch agrees. Propagation:
    a rule whose body is decided true must keep a satisfiable head disjunct,
    and when only one disjunct can serve, its atom's domain shrinks to the
    satisfying values.
    """

    def __init__(
        self,
        red: GroundProgram,
        h: PInterpretation,
        lattice: Mapping[HybridFormula, tuple[ProbInterval, ...]],
        node_cap: int,
    ):
        self.red = red
        self.h = h
        self.node_cap = node_cap
        self.nodes = 0
        scope = red.relevant_formulae
        self.atom_order = [f for f in scope if f.is_atomic]
        self.compounds = [f for f in scope if not f.is_atomic]
        self.atomics = {f.atoms[0]: f for f in self.atom_order}
        self.domains: dict[HybridFormula, tuple[ProbInterval, ...]] = {}
        for f in self.atom_order:
            assigned = h.value(f)
            vals = {v for v in lattice.get(f, (ZERO,)) if truth_leq(v, assigned)}
            vals.add(assigned)
            self.domains[f] = tuple(sorted(vals, key=lambda v: (v.lo, v.hi)))

    def run(self) -> PInterpretation | None:
        return self._search(self.domains)

    def _spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise SearchSpaceOverflow(
                f"minimality search exceeded {self.node_cap} nodes"
            )

    def possible(self, formula: HybridFormula) -> tuple[ProbInterval, ...] | None:
        """An atom's domain; a compound's one value once every component is
        decided, None before."""
        if formula.is_atomic:
            return self.domains[formula]
        component = []
        for a in formula.atoms:
            dom = self.domains[self.atomics[a]]
            if len(dom) != 1:
                return None
            component.append(dom[0])
        return (compose_fold(self.red.formula_strategy(formula), component),)

    def _propagate(self) -> bool:
        domains = self.domains
        changed = True
        while changed:
            changed = False
            for rule in self.red.rules:
                if satisfies_body(self, rule) is not True:
                    continue
                satisfiable = []
                for atom, ann in rule.head:
                    f = self.atomics[atom]
                    ok = tuple(v for v in domains[f] if truth_leq(ann, v))
                    if ok:
                        satisfiable.append((f, ok))
                if not satisfiable:
                    return False
                if len(satisfiable) == 1:
                    f, ok = satisfiable[0]
                    if len(ok) < len(domains[f]):
                        domains[f] = ok
                        changed = True
        return True

    def _search(self, domains) -> PInterpretation | None:
        self._spend()
        # the branch being evaluated; children below get copies of it
        self.domains = domains = dict(domains)
        if not self._propagate():
            return None
        open_formula = None
        for f in self.atom_order:
            if len(domains[f]) > 1:
                open_formula = f
                break
        if open_formula is None:
            return self._leaf()
        for v in domains[open_formula]:
            branch = dict(domains)
            branch[open_formula] = (v,)
            witness = self._search(branch)
            if witness is not None:
                return witness
        return None

    def _leaf(self) -> PInterpretation | None:
        pairs = [(f, self.domains[f][0]) for f in self.atom_order]
        for formula in self.compounds:
            value = self.possible(formula)[0]
            if not truth_leq(value, self.h.value(formula)):
                return None
            pairs.append((formula, value))
        candidate = PInterpretation.from_pairs(pairs)
        if candidate == self.h:
            return None
        if satisfies_program(self.red, candidate).satisfied:
            return candidate
        return None


def find_smaller_model(
    red: GroundProgram,
    h: PInterpretation,
    lattice: Mapping[HybridFormula, tuple[ProbInterval, ...]],
    node_cap: int = 500_000,
) -> tuple[PInterpretation | None, int]:
    """A p-model of red strictly below h, or None; plus nodes searched."""
    search = _MinimalitySearch(red, h, lattice, node_cap)
    witness = search.run()
    return witness, search.nodes


def _judge(
    gp: GroundProgram,
    h: PInterpretation,
    lattice: Mapping[HybridFormula, tuple[ProbInterval, ...]],
    node_cap: int = 500_000,
) -> tuple[SatisfactionReport, str | None, Certificate | None]:
    """The p-model report of h, then why h is no answer set of gp, or the
    certificate that it is. In order: the p-model check, a formula the
    program never mentions (the lattice has an entry for every formula it
    does), minimality against the reduct."""
    report = satisfies_program(gp, h)
    if not report.satisfied:
        return report, report.first_failure, None
    for formula, value in h.entries:
        if formula not in lattice:
            return report, f"assigns {value} to {formula}, which the program never mentions", None
    red = reduct(gp, h)
    witness, nodes = find_smaller_model(red, h, lattice, node_cap)
    if witness is not None:
        return report, f"not minimal: the reduct has a smaller p-model {witness}", None
    return report, None, Certificate(len(red.rules), nodes)


def is_answer_set(
    gp: GroundProgram,
    h: PInterpretation,
    node_cap: int = 500_000,
) -> tuple[bool, str | None]:
    """Exact check with a human-readable reason on rejection."""
    _, reason, _ = _judge(gp, h, gp.value_lattice(), node_cap)
    return reason is None, reason


# -- enumeration ------------------------------------------------------------------


def _candidate_order(total: int, seed: int | None) -> Iterator[int]:
    """Each candidate index below total once: ascending, or under a seed
    the walk start, start + step, ... mod total, whose step is coprime to
    total. Either way nothing is held per candidate."""
    start, step = 0, 1
    if seed is not None:
        rng = random.Random(seed)
        start = rng.randrange(total)
        step = rng.randrange(1, total + 1)
        while math.gcd(step, total) != 1:
            step = rng.randrange(1, total + 1)
    for k in range(total):
        yield (start + k * step) % total


def enumerate_answer_sets(
    gp: GroundProgram,
    limit: int | None = None,
    max_candidates: int = 2_000_000,
    node_cap: int = 500_000,
    seed: int | None = None,
) -> AnswerSetResult:
    """All probability answer sets, canonically sorted.

    A candidate is an index in mixed radix, most significant digit first:
    one binary digit per guess key, then one digit per disjunctive rule
    naming its chosen disjunct. The seed permutes candidate order, which
    can only matter for which models are found before a limit cuts
    enumeration short.
    """
    keys = _guess_keys(gp)
    disjunctive = [(i, len(rule.head)) for i, rule in enumerate(gp.rules) if len(rule.head) > 1]
    radices = [2] * len(keys) + [n for _, n in disjunctive]
    total = math.prod(radices)
    if total > max_candidates:
        raise SearchSpaceOverflow(
            f"candidate space of {total} exceeds {max_candidates}; "
            "the program has too many independent guesses"
        )
    lattice = gp.value_lattice()

    seen: set[PInterpretation] = set()
    found: list[tuple[PInterpretation, Certificate]] = []
    truncated = False
    for index in _candidate_order(total, seed):
        digits = []
        for radix in reversed(radices):
            index, digit = divmod(index, radix)
            digits.append(digit)
        digits.reverse()
        guesses = {key: bool(d) for key, d in zip(keys, digits)}
        choices = {i: c for (i, _), c in zip(disjunctive, digits[len(keys):])}
        h = _closure(gp, choices, guesses)
        if h in seen:
            continue
        seen.add(h)
        certificate = _judge(gp, h, lattice, node_cap)[2]
        if certificate is None:
            continue
        found.append((h, certificate))
        if limit is not None and len(found) >= limit:
            truncated = True
            break
    found.sort(key=lambda pair: str(pair[0]))
    return AnswerSetResult(
        interpretations=[h for h, _ in found],
        certificates=[c for _, c in found],
        truncated=truncated,
    )


def pairwise_incomparable(interps: list[PInterpretation]) -> bool:
    """Distinct answer sets are never related by the truth order."""
    for a, b in itertools.combinations(interps, 2):
        if interp_leq(a, b) or interp_leq(b, a):
            return False
    return True
