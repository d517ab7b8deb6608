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

The candidates are not walked one by one. A depth-first search keeps one
closure, growing along its path and undone on backtracking (_leaves), and
makes a choice only where the closure needs it: a guess when a rule that
needs it is ready to fire, a disjunct when its rule fires. A leaf stands
for every candidate that extends its choices, since the others cannot
change its closure, and a guess that a `not` literal holds ends its branch
once the closure satisfies the literal it negates.

Every value the closure can reach is an entry of the program's value
lattice, so each enumeration compiles the program on the lattice's
numbering (_Compiled), a value being one bit of its lattice rank, and
closes candidates over the lattice's rule forms and fold tables; only a
closure not seen before is judged. The lattice
records a disjunctive strategy in use that folds an atom's head
annotations below one of them: without one the closure is complete, and
with one enumeration raises NonExpansiveStrategy.

Every leaf that agrees with its own `not` guesses is then checked
exactly: it must be a p-model of the program, which no candidate violating
a constraint is, and a minimal p-model of its own reduct. The reduct is the
rules that fired in that p-model check, read from its report. The closure's
atom bits are the point's domains, so the candidate goes to the check as
they give it (_Compiled.point), and a PInterpretation is built from that
point only for a candidate the check accepts; check-model and
is_answer_set number their interpretation once, on the same lattice, and
judge and explain that point whatever the strategies (_explain). A
witness, and each answer set enumeration sorts by its text, is rendered
as a point of the lattice, each atom's entry at a lattice value once per
program (_Point.text).

Minimality runs as a DFS for a p-model of the reduct strictly below the
candidate. An atom's domain is a mask over its lattice ranks at or below
the candidate's value, plus a bit for that value when it lies off the
lattice. The judged point patches the rule forms for such values once,
in the rules that read them alone, and the reduct's forms, which the
search and its leaves read, are selected from the patched ones. Atoms are
branched on in the dependency order the value lattice keeps, bodies
before heads, with unit propagation on rules whose bodies are decided.
A body is decided by semantics._holds_all, the one three-valued test of a
conjunction, which an aggregate's compound pair conditions go through too
(a condition of one atomic formula is just its literal): it ANDs
an atomic literal's domain with a mask the lattice builds once per program
(_lattice._ValueLattice), as a head disjunct is decided, and hands
compounds, composed once their components are decided, and aggregates to
semantics._holds, the p-model check's own evaluator. The search starts
from the judged interpretation's point, and satisfies_program judges each
leaf that is not the candidate itself as a point of the same lattice, so
literals, conjunctions and rule satisfaction keep one definition each. A
reduct's value lattice is its source program's, so no caller hands the
search a lattice, and a reduct builds none of its own.
"""

from __future__ import annotations

import itertools
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
)
from .semantics import _holds_all, SatisfactionReport, reduct, satisfies_program
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


class _Compiled:
    """The ground program as integer tables on its value lattice's numbering.

    Index k < n is the lattice's atom k, and n + j the scope's j-th
    compound. A value is one bit, that of its rank in its lattice row, so
    atom k's bit is its domain in the lattice's _Point. A literal is
    (index, mask of the values where it holds), as the lattice's rule forms
    give an atomic one.

    keys numbers the guesses, in the order the rules first mention them:
    every distinct aggregate literal and every distinct negated literal in
    the rules with a head. A guess is 1 when the aggregate, or the formula
    literal under `not`, holds. Headless rules add nothing to the closure,
    so guessing their literals would only split candidates that close to
    the same interpretation; the p-model check still rejects every one that
    violates a constraint. This holds whatever the strategies, because it
    never changes a closure. naf maps each `not` key to its literal, and
    naf_on[i] holds the (key, mask) of those on atom i; a compound's list
    stays empty, as its composition need not be monotone (_leaves).

    rules holds each rule with a head that can fire, in program order, as
    (needs, pos, head, first): needs the guesses it needs, as (key, wanted
    guess) pairs; pos the literals that must hold for it to fire; head the
    lattice's head disjuncts; first the number of head[0] among all rules'
    disjuncts, of which there are disjuncts. readers[i] lists the rules
    whose pos reads index i, and on[i] each disjunct on atom i of a rule
    with two or more, as (rule, number, disjunct). compounds holds each
    compound as (index, formula, values, strategy, atoms); compositions are
    memoised on bits. gp is the program, which names each atom's strategy.
    """

    def __init__(self, gp: GroundProgram):
        self.lattice = lattice = gp.value_lattice()
        self.n = n = len(lattice.atoms)
        self.gp = gp
        position = lattice.position
        # a compound's index; an atom's is its lattice number
        index = {f: n + j for j, f in enumerate(lattice.compounds)}
        size = n + len(index)
        self.compounds = [
            (index[f], f, lattice[f], gp.formula_strategy(f), tuple(position[a] for a in f.atoms))
            for f in lattice.compounds
        ]
        self.compounds_of: dict[int, list[int]] = {}
        for c, *_, atoms in self.compounds:
            for k in atoms:
                self.compounds_of.setdefault(k, []).append(c)
        self._compositions: dict[tuple[int, tuple[int, ...]], int] = {}

        self.keys: list[GuessKey] = []
        number: dict[GuessKey, int] = {}
        self.naf: dict[int, tuple[int, int]] = {}
        self.naf_on: list[list[tuple[int, int]]] = [[] for _ in range(size)]

        def literal(item: HybridFormula, ann: ProbInterval) -> tuple[int, int]:
            """A compound's literal; an atom's is its rule form."""
            return index[item], sum(1 << r for r, v in enumerate(lattice[item]) if truth_leq(ann, v))

        def guess(kind: str, item, ann: ProbInterval, form: tuple | None = None) -> int:
            key = (kind, item, ann)
            j = number.get(key)
            if j is None:
                j = number[key] = len(self.keys)
                self.keys.append(key)
                if kind == "naf":
                    # form is the literal's body form, which for an atom
                    # holds the complement of its mask
                    k, mask = self.naf[j] = literal(item, ann) if form[0] is None else (form[0], ~form[1])
                    if k < n:
                        self.naf_on[k].append((j, mask))
            return j

        bodies, heads = lattice.rule_forms(gp.rules)
        self.rules = rules = []
        self.readers = readers = [[] for _ in range(size)]
        self.on = on = [[] for _ in range(size)]
        disjuncts = 0
        for rule, body, head in zip(gp.rules, bodies, heads):
            if not head:
                continue
            # a body of positive atomic literals alone is the lattice's own
            pos = body[:len(rule.pos_body)]
            needs: tuple[tuple[int, int], ...] = ()
            holds = True
            if rule.neg_body or any(k is None for k, _ in pos):
                wanted: dict[int, int] = {}
                pos = []
                for pair, (item, ann) in zip(body, rule.pos_body):
                    if pair[0] is not None:
                        pos.append(pair)
                    elif isinstance(item, HybridFormula):
                        pos.append(literal(item, ann))
                    elif isinstance(item, AggregateAtom):
                        wanted[guess("agg", item, ann)] = 1
                    else:
                        holds = holds and item.holds()
                pos = tuple(pos)
                for (item, ann), form in zip(rule.neg_body, body[len(rule.pos_body):]):
                    if isinstance(item, AggregateAtom):
                        j = guess("agg", item, ann)
                    elif isinstance(item, HybridFormula):
                        j = guess("naf", item, ann, form)
                    else:
                        continue
                    holds = holds and not wanted.setdefault(j, 0)
                needs = tuple(sorted(wanted.items()))
            if not holds:
                continue
            q = len(rules)
            rules.append((needs, pos, head, disjuncts))
            for k, _ in pos:
                readers[k].append(q)
            if len(head) > 1:
                for i, d in enumerate(head):
                    on[d[0]].append((q, disjuncts + i, d))
            disjuncts += len(head)
        self.disjuncts = disjuncts

    def compose(self, c: int, bits: tuple[int, ...]) -> int:
        """The bit of compound c's strategy composing its atoms' bits."""
        key = (c, bits)
        out = self._compositions.get(key)
        if out is None:
            _, _, row, strategy, atoms = self.compounds[c - self.n]
            component = [self.lattice.atom_values[k][b.bit_length() - 1] for k, b in zip(atoms, bits)]
            out = self._compositions[key] = 1 << row.index(compose_fold(strategy, component))
        return out

    def point(self, values: tuple[int, ...]) -> _Point:
        """The interpretation of values in the lattice's numbering."""
        compounds = {f: row[values[c].bit_length() - 1] for c, f, row, *_ in self.compounds}
        return _Point(self.lattice, list(values[:self.n]), compounds, {})


def _leaves(cp: _Compiled, rng: random.Random | None = None) -> Iterator[tuple[int, ...] | None]:
    """Depth-first search over the candidates, on one incremental closure
    from the empty interpretation: yields each leaf's values, as one bit
    per formula in cp's numbering, or None for a leaf that contradicts one
    of its own `not` guesses.

    The closure runs in rounds, each reading the values at its start. A
    rule is ready once its positive formula literals hold; only a rule
    that reads an index the last round changed is looked at again. A ready
    rule's guesses are decided then, branching on each not yet decided,
    and a rule they deny never fires. This is not the p-model check's body
    test: aggregates and negated literals need not grow with the closure's
    values, so they read their guessed final truth, which the p-model check
    confirms. When a rule fires, it branches on its disjunct; the chosen
    one contributes its annotation, and so does any other disjunct the
    current values satisfy, or once they do. An atom's value is the fold of
    its contributions, read from the lattice's fold table: each
    contribution is an occurrence outside the fold so far, so the table
    holds the result. A compound's value is the composition of its
    components. A round that contributes nothing ends at a leaf. Every
    change goes on a trail, as (list, index, old value), and backtracking
    undoes the changes made since its branch point; a round that ends with
    no branch point open clears the trail, as nothing will undo those.
    A fold the table lacks, which only a strategy whose folds depend on the
    order of their operands makes, raises NonExpansiveStrategy.

    A decision is decided[v]: the guess of key v < len(cp.keys), or the
    disjunct of rule q at v = len(cp.keys) + q. Each branch point tries
    guess 0 and disjunct 0 first; with rng, its alternatives are rotated
    by a draw.

    Why this loses no answer set: the closure is complete when every
    disjunctive strategy in use is expansive on the program (no
    non_expansive composition on the lattice), so each answer set h is the
    closure of the candidate whose guesses are h's own truth values and
    whose choices are disjuncts h satisfies, and that candidate agrees
    with its own closure. A leaf stands for every candidate that extends
    its decisions: a guess no ready rule needed, or the disjunct of a rule
    that never fired, cannot change the closure, so the leaf takes the
    undecided guesses as its closure gives them and agrees with them. A
    leaf that contradicts a decided `not` guess is yielded as None, and
    skipping it loses nothing: it can change which answer set a limit
    query meets first, never what a full enumeration returns. The
    branch is cut earlier, without a leaf, when a decided guess that `not
    F:mu` holds, F atomic, meets a closure that satisfies F:mu: atom values
    only grow under expansive strategies, and a satisfied F:mu stays
    satisfied as they grow, so every leaf below would contradict it. A
    compound's composition need not be monotone, so a `not` guess on a
    compound is checked at the leaf only.
    """
    rules, readers, on, naf, naf_on, n = cp.rules, cp.readers, cp.on, cp.naf, cp.naf_on, cp.n
    folds, compounds_of, compounds = cp.lattice.folds, cp.compounds_of, cp.compounds
    keys = len(cp.keys)
    values = [1] * (n + len(compounds))
    ranks = [-1] * n  # each atom's rank, -1 before its first contribution
    status = [0] * len(rules)  # 0 waiting, 1 fired, 2 denied by its guesses
    given = [False] * cp.disjuncts  # whether a fired rule's disjunct contributed
    decided = [-1] * (keys + len(rules))
    trail: list[tuple[list, int, object]] = []
    # branch points: [trail mark, ready, cursor, adds, len(adds), decision,
    # alternatives, next alternative]
    stack: list[list] = []

    def holding(waiting) -> list[int]:
        """The rules of waiting that have not fired and whose positive
        literals hold."""
        out = []
        for q in waiting:
            if status[q]:
                continue
            for k, m in rules[q][1]:
                if not values[k] & m:
                    break
            else:
                out.append(q)
        return out

    ready = holding(range(len(rules)))
    cursor = 0
    adds: list[tuple] = []

    while True:
        # decide and fire the round's ready rules, from cursor on
        v = -1
        while cursor < len(ready):
            q = ready[cursor]
            needs, _, head, first = rules[q]
            for j, want in needs:
                g = decided[j]
                if g < 0:
                    v = j
                    break
                if g != want:
                    trail.append((status, q, 0))
                    status[q] = 2
                    break
            else:
                if len(head) == 1:
                    trail.append((status, q, 0))
                    status[q] = 1
                    adds.append(head[0])
                elif decided[keys + q] < 0:
                    v = keys + q
                else:
                    trail.append((status, q, 0))
                    status[q] = 1
                    c = decided[keys + q]
                    for i, d in enumerate(head):
                        if i == c or values[d[0]] & d[1]:
                            adds.append(d)
                            trail.append((given, first + i, False))
                            given[first + i] = True
            if v >= 0:
                break
            cursor += 1
        if v >= 0:
            if v >= keys:
                alternatives = list(range(len(rules[v - keys][2])))
            elif v in naf and naf[v][0] < n and values[naf[v][0]] & naf[v][1]:
                # a guess that `not F:mu` holds, F atomic, is dead on arrival
                # once the closure satisfies F:mu
                alternatives = [1]
            else:
                alternatives = [0, 1]
            if rng is not None:
                r = int(rng.random() * len(alternatives))
                alternatives = alternatives[r:] + alternatives[:r]
            if len(alternatives) > 1:
                stack.append([len(trail), ready, cursor, adds, len(adds), v, alternatives, 1])
            trail.append((decided, v, -1))
            decided[v] = alternatives[0]
            continue
        if not adds:
            yield tuple(values) if not naf or all(
                decided[j] < 0 or decided[j] == (values[i] & mask != 0) for j, (i, mask) in naf.items()
            ) else None
        else:
            # the round's contributions, all read against its start
            changed = []
            for k, _, a, _ in adds:
                r = ranks[k]
                try:
                    s = a if r < 0 else folds[k][r, a]
                except KeyError:
                    # the table holds the folds in occurrence order only
                    atom, row = cp.lattice.atoms[k], cp.lattice.atom_values[k]
                    name = cp.gp.strategy_for(atom.atoms[0].predicate).name
                    raise NonExpansiveStrategy(
                        f"strategy {name} folds {row[r]} and {row[a]} on {atom} to a value off the "
                        "lattice, so the solver could miss answer sets"
                    ) from None
                if s != r:
                    trail.append((ranks, k, r))
                    ranks[k] = s
                    if values[k] != 1 << s:
                        trail.append((values, k, values[k]))
                        values[k] = 1 << s
                        changed.append(k)
            if compounds_of:
                for c in {c for d in adds for c in compounds_of.get(d[0], ())}:
                    bit = cp.compose(c, tuple(values[k] for k in compounds[c - n][4]))
                    if bit != values[c]:
                        trail.append((values, c, values[c]))
                        values[c] = bit
                        changed.append(c)
            # no backtracking undoes a change made with no branch point open
            if not stack:
                trail.clear()
            # a decided guess that `not F:mu` holds, F atomic, dies once F:mu does
            if not naf or not any(
                decided[j] == 0 and values[k] & mask for k in changed for j, mask in naf_on[k]
            ):
                adds = []
                waiting = set()
                for k in changed:
                    for q, g, d in on[k]:
                        if status[q] == 1 and not given[g] and values[k] & d[1]:
                            adds.append(d)
                            trail.append((given, g, False))
                            given[g] = True
                    waiting.update(readers[k])
                ready = holding(sorted(waiting))
                cursor = 0
                continue
        # backtrack to the last branch point with an alternative left
        if not stack:
            return
        frame = stack[-1]
        mark, ready, cursor, adds, count, v, alternatives, nxt = frame
        for array, i, old in reversed(trail[mark:]):
            array[i] = old
        del trail[mark:]
        del adds[count:]
        if nxt + 1 == len(alternatives):
            stack.pop()
        else:
            frame[7] = nxt + 1
        trail.append((decided, v, -1))
        decided[v] = alternatives[nxt]


# -- minimality ---------------------------------------------------------------


class _MinimalitySearch:
    """DFS for a strictly smaller p-model of the reduct.

    Atom k of the lattice (_ValueLattice) has the domain domains[k], a mask
    over its lattice ranks: the values at or below h's, plus one bit above
    them for h's own value when it lies off the lattice, as point, h in the
    lattice's numbering, gives it. Compound values are determined by their
    components, so only atoms branch, in the lattice's order. A head
    disjunct is decided by ANDing the domain with the mask of its
    satisfying values, and a body by semantics._holds_all with the branch's
    domains and compound, so it is decided only when every completion of
    the branch agrees. Propagation: a rule whose body is decided true must
    keep a satisfiable head disjunct, and when only one disjunct can serve,
    its atom's domain shrinks to the satisfying values.

    Each leaf is judged on ranks first: a leaf whose atoms have h's ranks
    and whose compounds compose to h's values is h itself, and is no
    witness, unless h also assigns a formula outside the scope
    (point.outside). Any other leaf is judged by satisfies_program over the
    same lattice, its domains being the leaf's point, and the first leaf
    that passes is the witness, kept as that point. point is h in the
    numbering of the value lattice red shares with its source program.
    """

    def __init__(self, red: GroundProgram, point: _Point, node_cap: int):
        lattice = point.lattice
        self.red = red
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

    def run(self) -> _Point | None:
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

    def _propagate(self) -> bool:
        domains, compound = self.domains, self.compound
        changed = True
        while changed:
            changed = False
            for literals, head in zip(self.bodies, self.heads):
                if _holds_all(literals, domains, compound) is not True:
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

    def _search(self, domains: list[int], start: int) -> _Point | None:
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

    def _leaf(self) -> _Point | None:
        domains, point = self.domains, self.point
        # a leaf with h's ranks on the scope is h unless h has more
        same = point.outside is None and domains == point.domains
        compounds = {}
        for formula, assigned in point.compounds.items():
            value = self.compound(formula)
            if not truth_leq(value, assigned):
                return None
            compounds[formula] = value
            same = same and value == assigned
        if same:
            return None
        forms = self.red.rules, (self.bodies, self.heads)
        leaf = _Point(self.lattice, domains, compounds, point.extra, forms=forms)
        if satisfies_program(self.red, leaf).satisfied:
            return leaf
        return None


def find_smaller_model(
    red: GroundProgram,
    h: PInterpretation | _Point,
    *,
    node_cap: int = 500_000,
    points: list[_Point] | None = None,
) -> tuple[PInterpretation | None, int]:
    """A p-model of red strictly below h, or None; plus nodes searched.
    The search reads the tables of red's value lattice, its source
    program's for a reduct: h is a _Point of that lattice, or an
    interpretation the lattice numbers. A leaf equal to h is decided on
    ranks, and only the witness is built as a PInterpretation
    (_MinimalitySearch); points, when given, also receives it as the point
    of the lattice it was found as, which renders without being numbered
    again."""
    point = h if isinstance(h, _Point) else red.value_lattice().point(h)
    search = _MinimalitySearch(red, point, node_cap)
    witness = search.run()
    if witness is None:
        return None, search.nodes
    if points is not None:
        points.append(witness)
    return witness.interpretation(), search.nodes


def _judge(
    gp: GroundProgram, point: _Point, node_cap: int = 500_000
) -> tuple[SatisfactionReport, _Point | None, Certificate | None]:
    """The p-model report of the interpretation point numbers in gp's
    value lattice, a smaller p-model of its reduct as a point of the same
    lattice or None, and the certificate that it is an answer set of gp or
    None. In order: the p-model check, whose failure is left in the report,
    the point's entry outside the program's scope, and minimality against
    the reduct. _explain renders the first that rejects. Everything is
    decided on the point; the one PInterpretation built is a witness's."""
    report = satisfies_program(gp, point)
    if not report.satisfied or point.outside is not None:
        return report, None, None
    red = reduct(gp, report)
    points: list[_Point] = []
    witness, nodes = find_smaller_model(red, point, node_cap=node_cap, points=points)
    if witness is not None:
        return report, points[0], None
    return report, None, Certificate(len(red.rules), nodes)


def _explain(
    gp: GroundProgram, h: PInterpretation, node_cap: int = 500_000
) -> tuple[SatisfactionReport, str | None]:
    """The p-model report of h, numbered once on gp's value lattice, and
    the one-line text of why _judge rejects h as an answer set of gp, or
    None when it accepts it."""
    point = gp.value_lattice().point(h)
    report, witness, _ = _judge(gp, point, node_cap)
    reason = report.first_failure
    if reason is None and point.outside is not None:
        formula, value = point.outside
        reason = f"assigns {value} to {formula}, which the program never mentions"
    elif witness is not None:
        reason = f"not minimal: the reduct has a smaller p-model {witness.text()}"
    return report, reason


def is_answer_set(
    gp: GroundProgram,
    h: PInterpretation,
    node_cap: int = 500_000,
) -> tuple[bool, str | None]:
    """Exact check with a human-readable reason on rejection."""
    reason = _explain(gp, h, node_cap)[1]
    return reason is None, reason


# -- enumeration ------------------------------------------------------------------


def enumerate_answer_sets(
    gp: GroundProgram,
    limit: int | None = None,
    max_candidates: int = 2_000_000,
    node_cap: int = 500_000,
    seed: int | None = None,
) -> AnswerSetResult:
    """All probability answer sets, canonically sorted.

    Candidates are the leaves of a depth-first search (_leaves) that
    branches on a guess only when a rule that needs it is ready, and on a
    rule's disjunct only when the rule fires; max_candidates bounds the
    leaves visited. The seed rotates the alternatives of every branch
    point by a draw, which can only matter for which models are found
    before a limit cuts enumeration short.
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    if max_candidates < 0:
        raise ValueError("max_candidates must not be negative")
    cp = _Compiled(gp)
    if cp.lattice.non_expansive is not None:
        name, formula, v, ann, out = cp.lattice.non_expansive
        raise NonExpansiveStrategy(
            f"strategy {name} is not expansive on {formula}: "
            f"it composes {v} and {ann} to {out}, so the solver could miss answer sets"
        )

    seen: set[tuple[int, ...]] = set()
    found: list[tuple[tuple[int, ...], PInterpretation, Certificate]] = []
    truncated = False
    leaves = 0
    rng = random.Random(seed) if seed is not None else None
    for values in _leaves(cp, rng):
        if leaves == max_candidates:
            raise SearchSpaceOverflow(
                f"search exceeded {max_candidates} leaves: {leaves} visited, "
                f"{len(found)} answer sets found"
            )
        leaves += 1
        if values is None or values in seen:
            continue
        seen.add(values)
        point = cp.point(values)
        certificate = _judge(gp, point, node_cap)[2]
        if certificate is None:
            continue
        found.append((values, point.interpretation(), certificate))
        if limit is not None and len(found) >= limit:
            truncated = True
            break
    if len(found) > 1:
        # the point's text is str(h), so this is the order of str(h)
        found.sort(key=lambda entry: cp.point(entry[0]).text())
    return AnswerSetResult(
        interpretations=[h for _, h, _ in found],
        certificates=[c for _, _, c in found],
        truncated=truncated,
    )


def pairwise_incomparable(interps: list[PInterpretation]) -> bool:
    """Distinct answer sets are never related by the truth order."""
    for a, b in itertools.combinations(interps, 2):
        if interp_leq(a, b) or interp_leq(b, a):
            return False
    return True
