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

Every value the closure can reach is an entry of the program's value
lattice, so each enumeration compiles the program on the lattice's
numbering (_Compiled), a value being one bit of its lattice rank, and
closes candidates over the lattice's rule forms and fold tables; an
interpretation is built only for a closure not seen before. The lattice
records a disjunctive strategy in use that folds an atom's head
annotations below one of them: without one the closure is complete, and
with one enumeration raises NonExpansiveStrategy.

Every candidate that agrees with its own `not` guesses is then checked
exactly: it must be a p-model of the program, which no candidate violating
a constraint is, and a minimal p-model of its own reduct. The reduct is the
rules that fired in that p-model check, read from its report. The closure's
atom bits are the point's domains, so the candidate goes to the check as
they give it (_Compiled.point); check-model and is_answer_set number their
interpretation once, on the same lattice (_judge), and judge it whatever
the strategies.

Minimality runs as a DFS for a p-model of the reduct strictly below the
candidate. An atom's domain is a mask over its lattice ranks at or below
the candidate's value, plus a bit for that value when it lies off the
lattice; atoms are branched on in the dependency order the value lattice
keeps, bodies before heads, with unit propagation on rules whose bodies
are decided. Formula literals and head disjuncts are decided by ANDing
masks the lattice builds once per program (_lattice._ValueLattice).
The search starts from the judged interpretation's point. Compounds,
composed once their components are decided, and aggregates go to
semantics._holds, the p-model check's own evaluator, and satisfies_program
judges each leaf as a point of the same lattice, so literals and rule
satisfaction keep one definition each. A reduct's value lattice is its
source program's, so no caller hands the search a lattice, and a reduct
builds none of its own.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import NonExpansiveStrategy, SearchSpaceOverflow
from ._lattice import _below_mask, _Point
from .grounder import GroundProgram
from .model import (
    AggregateAtom,
    HybridFormula,
    interp_leq,
    PInterpretation,
    ProbInterval,
    truth_leq,
    ZERO,
)
from .semantics import _holds, SatisfactionReport, reduct, satisfies_program
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


class _Compiled:
    """The ground program as integer tables on its value lattice's numbering.

    Index k < n is the lattice's atom k, and n + j the scope's j-th
    compound. A value is one bit, that of its rank in its lattice row, so
    atom k's bit is its domain in the lattice's _Point. A literal is
    (index, mask of the values where it holds), as the lattice's rule forms
    give an atomic one. A candidate index is bits * choice_total + choice:
    guess key k is bit len(keys) - 1 - k of bits, and the disjunct choices
    are the mixed-radix digits of choice, the first disjunctive rule's most
    significant.

    rules holds each rule with a head that can fire, as (need, want, pos,
    head, place, radix): it is live when bits & need == want; it fires once
    every literal in pos holds; it chooses the lattice's head disjunct
    head[choice // place % radix]. compounds holds each compound as (index,
    formula, values, strategy, atoms); compositions are memoised on bits.
    """

    def __init__(self, gp: GroundProgram, keys: list[GuessKey]):
        self.lattice = lattice = gp.value_lattice()
        self.n = n = len(lattice.atoms)
        compounds = [f for f, k in zip(lattice.formulae, lattice.scope_positions) if k is None]
        index = {f: k for k, f in enumerate(lattice.atoms + tuple(compounds))}
        self.compounds = [
            (index[f], f, lattice[f], gp.formula_strategy(f), tuple(lattice.position[a] for a in f.atoms))
            for f in compounds
        ]
        self.compounds_of: dict[int, list[int]] = {}
        for c, *_, atoms in self.compounds:
            for k in atoms:
                self.compounds_of.setdefault(k, []).append(c)
        self._compositions: dict[tuple[int, tuple[int, ...]], int] = {}
        # per formula of the scope, in order: formula, index, values
        self.scope = [(f, index[f], lattice[f]) for f in lattice.formulae]

        def literal(item: HybridFormula, ann: ProbInterval) -> tuple[int, int]:
            return index[item], sum(1 << r for r, v in enumerate(lattice[item]) if truth_leq(ann, v))

        bits = {key: len(keys) - 1 - k for k, key in enumerate(keys)}
        # (bit, index, mask) of every `not` literal guessed
        self.naf = [(bits[key], *literal(key[1], key[2])) for key in keys if key[0] == "naf"]
        bodies, heads = lattice.rule_forms(gp.rules)
        self.choice_total = 1
        self.rules = []
        for p in range(len(gp.rules) - 1, -1, -1):
            rule, head = gp.rules[p], heads[p]
            if not head:
                continue
            radix, place = len(head), self.choice_total
            self.choice_total *= radix
            need_true = need_false = 0
            # a body of positive atomic literals alone is the lattice's own
            pos = bodies[p][:len(rule.pos_body)]
            holds = True
            if any(k is None for k, _ in pos):
                pos = []
                for pair, (item, ann) in zip(bodies[p], rule.pos_body):
                    if pair[0] is not None:
                        pos.append(pair)
                    elif isinstance(item, HybridFormula):
                        pos.append(literal(item, ann))
                    elif isinstance(item, AggregateAtom):
                        need_true |= 1 << bits[("agg", item, ann)]
                    else:
                        holds = holds and item.holds()
                pos = tuple(pos)
            for item, ann in rule.neg_body:
                if isinstance(item, AggregateAtom):
                    need_false |= 1 << bits[("agg", item, ann)]
                elif isinstance(item, HybridFormula):
                    need_false |= 1 << bits[("naf", item, ann)]
            if holds and not need_true & need_false:
                need = need_true | need_false
                self.rules.append((need, need_true, pos, head, place, radix))
        self.rules.reverse()

    def compose(self, c: int, bits: tuple[int, ...]) -> int:
        """The bit of compound c's strategy composing its atoms' bits."""
        key = (c, bits)
        out = self._compositions.get(key)
        if out is None:
            _, _, row, strategy, atoms = self.compounds[c - self.n]
            component = [self.lattice.atom_values[k][b.bit_length() - 1] for k, b in zip(atoms, bits)]
            out = self._compositions[key] = 1 << row.index(compose_fold(strategy, component))
        return out

    def contradicts(self, index: int, values: tuple[int, ...]) -> bool:
        """Whether a `not` guess of the candidate disagrees with its closure."""
        bits = index // self.choice_total
        return any((bits >> bit & 1) == (not values[i] & mask) for bit, i, mask in self.naf)

    def interpretation(self, values: tuple[int, ...]) -> PInterpretation:
        return PInterpretation(
            tuple((f, row[values[i].bit_length() - 1]) for f, i, row in self.scope if values[i] != 1)
        )

    def point(self, values: tuple[int, ...]) -> _Point:
        """The interpretation of values in the lattice's numbering."""
        compounds = {f: row[values[c].bit_length() - 1] for c, f, row, *_ in self.compounds}
        return _Point(self.lattice, list(values[:self.n]), compounds, {})


def _closure(cp: _Compiled, index: int) -> tuple[int, ...]:
    """The values a candidate closes to, from the empty interpretation, as
    one bit per formula in cp's numbering.

    Rules whose guessed literals the candidate's bits deny never fire. The
    others fire once their positive formula literals hold. This is not the
    p-model check's body test: aggregates and negated literals need not grow
    with the closure's values, so they read their guessed final truth,
    which the p-model check confirms. When a rule fires, its chosen
    disjunct contributes its annotation, and so does any other disjunct
    already satisfied by the current values. Each round reads the values
    at its start. An atom's value is the fold of its contributions, read
    from the lattice's fold table: each contribution is an occurrence
    outside the fold so far, so the table holds the result. A compound's
    value is the composition of its components.

    Why a candidate that contradicts its own closure (cp.contradicts) can
    be skipped unchecked: the closure is complete when every disjunctive
    strategy in use is expansive on the program (no non_expansive
    composition on the lattice), so each answer set h is the closure of
    the candidate whose guesses are h's own truth values and whose choices
    are disjuncts h satisfies, and that candidate agrees with its own
    closure. Skipping the ones that disagree loses no answer set. It can
    change which answer set a seeded limit query meets first, never what a
    full enumeration returns.
    """
    bits, choice = divmod(index, cp.choice_total)
    folds = cp.lattice.folds
    values = [1] * (cp.n + len(cp.compounds))
    ranks = [-1] * cp.n  # each atom's rank, -1 before its first contribution
    waiting = [rule for rule in cp.rules if bits & rule[0] == rule[1]]
    watching: list = []  # unchosen disjuncts of fired rules, not yet contributed
    while True:
        adds = [d for d in watching if values[d[0]] & d[1]]
        if adds:
            watching = [d for d in watching if not values[d[0]] & d[1]]
        still = []
        for rule in waiting:
            for k, mask in rule[2]:
                if not values[k] & mask:
                    still.append(rule)
                    break
            else:
                _, _, _, head, place, radix = rule
                c = choice // place % radix
                adds.append(head[c])
                for d in head[:c] + head[c + 1:]:
                    (adds if values[d[0]] & d[1] else watching).append(d)
        if not adds:
            return tuple(values)
        waiting = still
        for k, _, a, _ in adds:
            r = ranks[k]
            ranks[k] = r = a if r < 0 else folds[k][r, a]
            values[k] = 1 << r
        if cp.compounds:
            for c in {c for d in adds for c in cp.compounds_of.get(d[0], ())}:
                values[c] = cp.compose(c, tuple(values[k] for k in cp.compounds[c - cp.n][4]))


# -- minimality ---------------------------------------------------------------


class _MinimalitySearch:
    """DFS for a strictly smaller p-model of the reduct.

    Atom k of the lattice (_ValueLattice) has the domain domains[k], a mask
    over its lattice ranks: the values at or below h's, plus one bit above
    them for h's own value when it lies off the lattice, as point, h in the
    lattice's numbering, gives it. Compound values are determined by their
    components, so only atoms branch, in the lattice's order. A formula
    literal or head disjunct is decided by ANDing the domain with the mask
    of its satisfying values; compounds and aggregates go to
    semantics._holds with the branch's domains and compound, so a body is
    decided only when every completion of the branch agrees. Propagation:
    a rule whose body is decided true must keep a satisfiable head
    disjunct, and when only one disjunct can serve, its atom's domain
    shrinks to the satisfying values. Each leaf is judged by
    satisfies_program over the same lattice, its domains being the leaf's
    point. The lattice is point's, h in the numbering of the value lattice
    red shares with its source program, or, without point, that lattice's.
    """

    def __init__(self, red: GroundProgram, h: PInterpretation, node_cap: int, point: _Point | None):
        if point is None:
            point = red.value_lattice().point(h)[0]
        lattice = point.lattice
        self.red = red
        self.h = h
        self.node_cap = node_cap
        self.nodes = 0
        self.lattice = lattice
        self.point = point
        self.atoms = lattice.atoms
        self.position = lattice.position
        self.values = point.values
        extra, rows = point.extra, lattice.atom_values
        self.domains = [
            _below_mask(rows[k], extra[k]) | d if k in extra else lattice.below(k, d.bit_length() - 1)
            for k, d in enumerate(point.domains)
        ]
        self.bodies, self.heads = point.forms(red.rules)

    def run(self) -> PInterpretation | None:
        return self._search(self.domains, 0)

    def _spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise SearchSpaceOverflow(
                f"minimality search exceeded {self.node_cap} nodes"
            )

    def compound(self, formula: HybridFormula) -> ProbInterval | None:
        """A compound's value, composed once every component is decided;
        None before."""
        component = []
        for a in formula.atoms:
            k = self.position[a]
            d = self.domains[k]
            if d & (d - 1):
                return None
            component.append(self.values[k][d.bit_length() - 1])
        return compose_fold(self.red.formula_strategy(formula), component)

    def body(self, literals: tuple) -> bool | None:
        """False when a body literal fails, True when all hold, None
        otherwise, in the current branch; literals as in
        _ValueLattice.rule_forms."""
        domains = self.domains
        decided = True
        for k, mask in literals:
            if k is None:
                sat = _holds(mask, domains, self.compound)
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

    def _propagate(self) -> bool:
        domains = self.domains
        changed = True
        while changed:
            changed = False
            for literals, head in zip(self.bodies, self.heads):
                if self.body(literals) is not True:
                    continue
                serving = 0
                for d in head:
                    ok = domains[d[0]] & d[1]
                    if ok:
                        serving += 1
                        only, narrowed = d[0], ok
                if not serving:
                    return False
                if serving == 1 and narrowed != domains[only]:
                    domains[only] = narrowed
                    changed = True
        return True

    def _search(self, domains: list[int], start: int) -> PInterpretation | None:
        """Search the branch domains, which this call owns; the atoms before
        start in the branching order are decided already."""
        self._spend()
        self.domains = domains
        if not self._propagate():
            return None
        if not any(d & (d - 1) for d in domains):
            return self._leaf()
        order = self.lattice.order
        for p in range(start, len(order)):
            k = order[p]
            d = domains[k]
            if d & (d - 1):
                break
        while d:
            low = d & -d
            branch = domains.copy()
            branch[k] = low
            witness = self._search(branch, p)
            if witness is not None:
                return witness
            d ^= low
        return None

    def _leaf(self) -> PInterpretation | None:
        # the scope is sorted as PInterpretation sorts its entries
        domains = self.domains
        compounds = {}
        entries = []
        for formula, k in zip(self.lattice.formulae, self.lattice.scope_positions):
            if k is None:
                value = self.compound(formula)
                if not truth_leq(value, self.point.compounds[formula]):
                    return None
                compounds[formula] = value
            else:
                value = self.values[k][domains[k].bit_length() - 1]
            if value is not ZERO and value != ZERO:
                entries.append((formula, value))
        candidate = PInterpretation(tuple(entries))
        if candidate == self.h:
            return None
        forms = self.red.rules, (self.bodies, self.heads)
        point = _Point(self.lattice, domains, compounds, self.point.extra, forms)
        if satisfies_program(self.red, candidate, point).satisfied:
            return candidate
        return None


def find_smaller_model(
    red: GroundProgram,
    h: PInterpretation,
    *,
    node_cap: int = 500_000,
    point: _Point | None = None,
) -> tuple[PInterpretation | None, int]:
    """A p-model of red strictly below h, or None; plus nodes searched.
    The search reads the tables of red's value lattice, its source
    program's for a reduct, and point is h in that lattice's numbering,
    when the caller has it."""
    search = _MinimalitySearch(red, h, node_cap, point)
    witness = search.run()
    return witness, search.nodes


def _judge(
    gp: GroundProgram,
    h: PInterpretation,
    node_cap: int = 500_000,
    point: _Point | None = None,
) -> tuple[SatisfactionReport, tuple | None, Certificate | None]:
    """The p-model report of h, then why h is no answer set of gp, as data,
    or the certificate that it is. In order: the p-model check, whose
    failure is left in the report, a formula outside the program's scope,
    as (formula, value), and minimality against the reduct, as (witness,),
    a smaller p-model of the reduct. _reason renders them. point is h in
    the numbering of gp's value lattice; without it, one walk of h's
    entries numbers h and finds a formula outside the scope."""
    outside = None
    if point is None:
        point, outside = gp.value_lattice().point(h)
    report = satisfies_program(gp, h, point)
    if not report.satisfied:
        return report, None, None
    if outside is not None:
        return report, outside, None
    red = reduct(gp, report)
    witness, nodes = find_smaller_model(red, h, node_cap=node_cap, point=point)
    if witness is not None:
        return report, (witness,), None
    return report, None, Certificate(len(red.rules), nodes)


def _reason(report: SatisfactionReport, rejection: tuple | None) -> str | None:
    """The one-line text of why _judge rejected an interpretation, or None
    when it accepted it."""
    if rejection is None:
        return report.first_failure
    if len(rejection) == 1:
        return f"not minimal: the reduct has a smaller p-model {rejection[0]}"
    formula, value = rejection
    return f"assigns {value} to {formula}, which the program never mentions"


def is_answer_set(
    gp: GroundProgram,
    h: PInterpretation,
    node_cap: int = 500_000,
) -> tuple[bool, str | None]:
    """Exact check with a human-readable reason on rejection."""
    report, rejection, _ = _judge(gp, h, node_cap)
    reason = _reason(report, rejection)
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
    total = 2 ** len(keys) * math.prod(len(rule.head) for rule in gp.rules if rule.head)
    if total > max_candidates:
        raise SearchSpaceOverflow(
            f"candidate space of {total} exceeds {max_candidates}; "
            "the program has too many independent guesses"
        )
    cp = _Compiled(gp, keys)
    if cp.lattice.non_expansive is not None:
        name, formula, v, ann, out = cp.lattice.non_expansive
        raise NonExpansiveStrategy(
            f"strategy {name} is not expansive on {formula}: "
            f"it composes {v} and {ann} to {out}, so the solver could miss answer sets"
        )

    seen: set[tuple[int, ...]] = set()
    found: list[tuple[PInterpretation, Certificate]] = []
    truncated = False
    for index in _candidate_order(total, seed):
        values = _closure(cp, index)
        if values in seen or cp.contradicts(index, values):
            continue
        seen.add(values)
        h = cp.interpretation(values)
        certificate = _judge(gp, h, node_cap, cp.point(values))[2]
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
