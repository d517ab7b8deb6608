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
lattice, so each enumeration first compiles the program into integer
tables over lattice ranks (_Compiled) and closes candidates over tuples of
ranks; an interpretation is built only for a closure not seen before.
Compiling folds each atom's head annotations into one table, and checks
on it that no disjunctive strategy in use folds them below one of them: the
closure is complete then, and otherwise NonExpansiveStrategy says so.

Every candidate that agrees with its own `not` guesses is then checked
exactly: it must be a p-model of the program, which no candidate violating
a constraint is, and a minimal p-model of its own reduct. The reduct is the
rules that fired in that p-model check, read from its report. The closure's
ranks are lattice ranks, so the candidate goes to the check as they give
it, one bit per atom (_Compiled.point); check-model and is_answer_set
number their interpretation once, on the same lattice (_judge).

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
judges each leaf as a point of the source program's lattice, so literals
and rule satisfaction keep one definition each, and a reduct builds no
lattice of its own.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import NonExpansiveStrategy, SearchSpaceOverflow
from ._lattice import _below_mask, _Point, _ValueLattice
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
from .strategies import compose_fold, PStrategy

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
    """The ground program as integer tables over its value lattice.

    Formula i is gp.relevant_formulae[i], already sorted as PInterpretation
    sorts its entries; its value is a rank in values[i], its lattice tuple,
    where ZERO is rank 0. A literal's table maps each rank to whether the
    literal holds there. A candidate index is bits * choice_total + choice:
    guess key k is bit len(keys) - 1 - k of bits, and the disjunct choices
    are the mixed-radix digits of choice, the first disjunctive rule's most
    significant.

    rules holds each rule with a head that can fire, as (need, want, pos,
    head, place, radix): it is live when bits & need == want; it fires once
    every (formula, table) in pos holds; it chooses the disjunct
    head[choice // place % radix], each disjunct being (atom, annotation
    rank, table), where a rule of one disjunct needs no table.

    folds[i] maps (rank, annotation rank) to the rank of their composition
    for an atom with two or more head occurrences, and is None for the
    others, which the closure never folds; building it raises
    NonExpansiveStrategy when the closure could miss answer sets
    (_fold_table). Compositions of compound values are memoised on ranks.
    """

    def __init__(
        self,
        gp: GroundProgram,
        lattice: _ValueLattice,
        keys: list[GuessKey],
    ):
        self.gp = gp
        self.formulae = gp.relevant_formulae
        self.values = [lattice[f] for f in self.formulae]
        position = {f: i for i, f in enumerate(self.formulae)}
        bits = {key: len(keys) - 1 - k for k, key in enumerate(keys)}
        # rules share equal tables, literals and disjuncts
        shared: dict[tuple, tuple] = {}

        def share(t: tuple) -> tuple:
            return shared.setdefault(t, t)

        # gp holds every annotation object while this runs, so an id names
        # one: literals sharing an annotation object share a table without
        # hashing or comparing its fractions again
        tables: dict[tuple[int, int], tuple[bool, ...]] = {}
        disjuncts: dict[tuple[int, int, bool], tuple] = {}

        def table(i: int, ann: ProbInterval) -> tuple[bool, ...]:
            key = (i, id(ann))
            t = tables.get(key)
            if t is None:
                values = self.values[i]
                t = tables[key] = share(tuple(truth_leq(ann, v) for v in values))
            return t

        def disjunct(i: int, ann: ProbInterval, read: bool) -> tuple:
            key = (i, id(ann), read)
            d = disjuncts.get(key)
            if d is None:
                rank = self.values[i].index(ann)
                d = disjuncts[key] = share((i, rank, table(i, ann) if read else None))
            return d

        # (bit, formula, table) of every `not` literal guessed
        self.naf = [
            (bits[key], position[key[1]], table(position[key[1]], key[2]))
            for key in keys
            if key[0] == "naf"
        ]
        occurrences: dict[int, list[ProbInterval]] = {}
        self.choice_total = 1
        self.rules = []
        for rule in reversed(gp.rules):
            if not rule.head:
                continue
            radix, place = len(rule.head), self.choice_total
            self.choice_total *= radix
            head = []
            for atom, ann in rule.head:
                i = position[HybridFormula.atomic(atom)]
                occurrences.setdefault(i, []).append(ann)
                head.append(disjunct(i, ann, radix > 1))
            need_true = need_false = 0
            pos = []
            holds = True
            for item, ann in rule.pos_body:
                if isinstance(item, HybridFormula):
                    pos.append(share((position[item], table(position[item], ann))))
                elif isinstance(item, AggregateAtom):
                    need_true |= 1 << bits[("agg", item, ann)]
                else:
                    holds = holds and item.holds()
            for item, ann in rule.neg_body:
                if isinstance(item, AggregateAtom):
                    need_false |= 1 << bits[("agg", item, ann)]
                elif isinstance(item, HybridFormula):
                    need_false |= 1 << bits[("naf", item, ann)]
            if holds and not need_true & need_false:
                need = need_true | need_false
                self.rules.append((need, need_true, tuple(pos), share(tuple(head)), place, radix))
        self.rules.reverse()
        self.components: dict[int, tuple[int, ...]] = {}
        self.compounds_of: dict[int, list[int]] = {}
        for c, f in enumerate(self.formulae):
            if not f.is_atomic:
                self.components[c] = tuple(position[HybridFormula.atomic(a)] for a in f.atoms)
                for i in self.components[c]:
                    self.compounds_of.setdefault(i, []).append(c)
        self._compositions: dict[tuple[int, tuple[int, ...]], int] = {}
        # the value lattice numbers atoms apart from compounds: its atom k is
        # formula atom_slots[k] here, with the same values, so a rank here
        # is a rank there
        self.lattice = lattice
        self.atom_slots = [i for i, k in enumerate(lattice.scope_positions) if k is not None]
        # gp holds every annotation object while this runs, so atoms whose
        # occurrences are the same objects under one strategy share a table
        self.folds: list[dict[tuple[int, int], int] | None] = [None] * len(self.formulae)
        fold_tables: dict[tuple, dict[tuple[int, int], int]] = {}
        for i, anns in occurrences.items():
            if len(anns) > 1:
                signature = (self.strategy(i).name, *sorted(map(id, anns)))
                if signature not in fold_tables:
                    fold_tables[signature] = self._fold_table(i, anns)
                self.folds[i] = fold_tables[signature]

    def strategy(self, i: int) -> PStrategy:
        """Formula i's strategy: its predicate's for an atom, its own for a compound."""
        f = self.formulae[i]
        if f.is_atomic:
            return self.gp.strategy_for(f.atoms[0].predicate)
        return self.gp.formula_strategy(f)

    def _fold_table(self, i: int, anns: list[ProbInterval]) -> dict[tuple[int, int], int]:
        """Atom i's strategy composing each fold of a non-empty sub-multiset
        of its head annotations anns with each of anns, as (rank, annotation
        rank) -> rank. GroundProgram._lattice builds those folds: they are
        the lattice values but ZERO, which is one only when it is in anns.
        A result outside the lattice uses an occurrence twice, which the
        closure never does. Raises NonExpansiveStrategy unless every result
        lies at or above both inputs: then the closure's values only grow,
        towards every answer set."""
        strategy = self.strategy(i)
        values = self.values[i]
        rank = {v: r for r, v in enumerate(values)}
        columns = {rank[ann] for ann in anns}
        table = {}
        for r in range(0 if 0 in columns else 1, len(values)):
            for a in columns:
                v, ann = values[r], values[a]
                out = strategy.compose(v, ann)
                if not (truth_leq(v, out) and truth_leq(ann, out)):
                    raise NonExpansiveStrategy(
                        f"strategy {strategy.name} is not expansive on {self.formulae[i]}: "
                        f"it composes {v} and {ann} to {out}, so the solver could miss answer sets"
                    )
                if out in rank:
                    table[r, a] = rank[out]
        return table

    def compose(self, c: int, ranks: tuple[int, ...]) -> int:
        """The rank of compound c's strategy composing its components' ranks."""
        key = (c, ranks)
        out = self._compositions.get(key)
        if out is None:
            component = [self.values[i][r] for i, r in zip(self.components[c], ranks)]
            value = compose_fold(self.strategy(c), component)
            out = self._compositions[key] = self.values[c].index(value)
        return out

    def contradicts(self, index: int, ranks: tuple[int, ...]) -> bool:
        """Whether a `not` guess of the candidate disagrees with its closure."""
        bits = index // self.choice_total
        return any((bits >> bit & 1) != t[ranks[i]] for bit, i, t in self.naf)

    def interpretation(self, ranks: tuple[int, ...]) -> PInterpretation:
        return PInterpretation(
            tuple((f, v[r]) for f, v, r in zip(self.formulae, self.values, ranks) if r)
        )

    def point(self, ranks: tuple[int, ...]) -> _Point:
        """The interpretation of ranks in the lattice's numbering."""
        return _Point(
            self.lattice,
            [1 << ranks[i] for i in self.atom_slots],
            {self.formulae[c]: self.values[c][ranks[c]] for c in self.components},
            {},
        )


def _closure(cp: _Compiled, index: int) -> tuple[int, ...]:
    """The ranks a candidate closes to, from the empty interpretation.

    Rules whose guessed literals the candidate's bits deny never fire. The
    others fire once their positive formula literals hold. This is not the
    p-model check's body test: aggregates and negated literals need not grow
    with the closure's values, so they read their guessed final truth,
    which the p-model check confirms. When a rule fires, its chosen
    disjunct contributes its annotation, and so does any other disjunct
    already satisfied by the current values. Each round reads the values
    at its start. An atom's value is the fold of its contributions, read
    from cp.folds: each contribution is an occurrence outside the fold so
    far, so the fold table holds the result. A compound's value is the
    composition of its components.

    Why a candidate that contradicts its own closure (cp.contradicts) can
    be skipped unchecked: the closure is complete when every disjunctive
    strategy in use is expansive on the program (_Compiled._fold_table),
    so each answer set h is the closure of the candidate whose guesses are
    h's own truth values and whose choices are disjuncts h satisfies, and
    that candidate agrees with its own closure. Skipping the ones that disagree
    loses no answer set. It can change which answer set a seeded limit
    query meets first, never what a full enumeration returns.
    """
    bits, choice = divmod(index, cp.choice_total)
    ranks = [0] * len(cp.formulae)
    started = bytearray(len(ranks))
    waiting = [rule for rule in cp.rules if bits & rule[0] == rule[1]]
    watching: list = []  # unchosen disjuncts of fired rules, not yet contributed
    while True:
        adds = [d for d in watching if d[2][ranks[d[0]]]]
        if adds:
            watching = [d for d in watching if not d[2][ranks[d[0]]]]
        still = []
        for rule in waiting:
            for i, t in rule[2]:
                if not t[ranks[i]]:
                    still.append(rule)
                    break
            else:
                _, _, _, head, place, radix = rule
                c = choice // place % radix
                adds.append(head[c])
                for d in head[:c] + head[c + 1:]:
                    (adds if d[2][ranks[d[0]]] else watching).append(d)
        if not adds:
            return tuple(ranks)
        waiting = still
        for i, ann, _ in adds:
            ranks[i] = cp.folds[i][ranks[i], ann] if started[i] else ann
            started[i] = 1
        if cp.components:
            for c in {c for i, _, _ in adds for c in cp.compounds_of.get(i, ())}:
                ranks[c] = cp.compose(c, tuple(ranks[i] for i in cp.components[c]))


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
    point.
    """

    def __init__(
        self,
        red: GroundProgram,
        h: PInterpretation,
        lattice: Mapping[HybridFormula, tuple[ProbInterval, ...]],
        node_cap: int,
        point: _Point | None = None,
    ):
        # the tables of red's source program serve red, and judge its
        # leaves; any other lattice (a plain mapping, one of another scope
        # or of a program red's rules are not among) gets tables built for
        # red once
        if not (isinstance(lattice, _ValueLattice) and lattice.formulae is red.relevant_formulae):
            lattice = _ValueLattice(dict(lattice), red)
            point = None
        point = point or lattice.point(h)[0]
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
        _ValueLattice.rule_form."""
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
                for k, mask in head:
                    ok = domains[k] & mask
                    if ok:
                        serving += 1
                        only, narrowed = k, ok
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
    lattice: Mapping[HybridFormula, tuple[ProbInterval, ...]],
    node_cap: int = 500_000,
    point: _Point | None = None,
) -> tuple[PInterpretation | None, int]:
    """A p-model of red strictly below h, or None; plus nodes searched.
    lattice is the value lattice of red's source program, whose tables the
    search reads, and point h in its numbering, when the caller has it; a
    plain mapping gets the same tables built for this call, on which the
    leaves are judged."""
    search = _MinimalitySearch(red, h, lattice, node_cap, point)
    witness = search.run()
    return witness, search.nodes


def _judge(
    gp: GroundProgram,
    h: PInterpretation,
    lattice: _ValueLattice,
    node_cap: int = 500_000,
    point: _Point | None = None,
) -> tuple[SatisfactionReport, tuple | None, Certificate | None]:
    """The p-model report of h, then why h is no answer set of gp, as data,
    or the certificate that it is. In order: the p-model check, whose
    failure is left in the report, a formula outside the program's scope,
    as (formula, value), and minimality against the reduct, as (witness,),
    a smaller p-model of the reduct. _reason renders them. point is h in
    the numbering of lattice, gp's value lattice; without it, one walk of
    h's entries numbers h and finds a formula outside the scope."""
    outside = None
    if point is None:
        point, outside = lattice.point(h)
    report = satisfies_program(gp, h, point)
    if not report.satisfied:
        return report, None, None
    if outside is not None:
        return report, outside, None
    red = reduct(gp, report)
    witness, nodes = find_smaller_model(red, h, lattice, node_cap, point)
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
    report, rejection, _ = _judge(gp, h, gp.value_lattice(), node_cap)
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
    lattice = gp.value_lattice()
    cp = _Compiled(gp, lattice, keys)

    seen: set[tuple[int, ...]] = set()
    found: list[tuple[PInterpretation, Certificate]] = []
    truncated = False
    for index in _candidate_order(total, seed):
        ranks = _closure(cp, index)
        if ranks in seen or cp.contradicts(index, ranks):
            continue
        seen.add(ranks)
        h = cp.interpretation(ranks)
        certificate = _judge(gp, h, lattice, node_cap, cp.point(ranks))[2]
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
