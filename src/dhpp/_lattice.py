"""The value lattice of a ground program, as GroundProgram.value_lattice()
returns it, with the tables that judge interpretations over it: rank masks,
fold tables, rule forms and the minimality search's branching order. This
module builds them all from the program, _ValueLattice(program) being the
one way to make a lattice, and a reduct reads its source program's. The
closure, the p-model check and the minimality search all read them, so a
program is compiled once. An atom's row, which depends on its strategy's
composition and head annotations alone, is kept across programs in the
process-wide table _ROWS. An interpretation in the lattice's numbering is
a _Point.
"""

from __future__ import annotations

import itertools
import math
import threading
from array import array
from collections import OrderedDict
from functools import reduce
from operator import getitem
from typing import TYPE_CHECKING, Mapping

from .errors import UniverseOverflow
from .model import (
    AggregateAtom,
    Atom,
    GroundPair,
    HybridFormula,
    interval_parts,
    lo_hi_key,
    PInterpretation,
    ProbInterval,
    Rule,
    truth_leq,
    ZERO,
)
from .strategies import compose_fold, PStrategy

if TYPE_CHECKING:
    from .grounder import GroundProgram

# most values the lattice of one ground program may hold
LATTICE_CAP = 200_000

# rules' body and head forms, as _ValueLattice.rule_forms gives them
Forms = tuple[list[tuple], list[tuple]]


class _ValueLattice(Mapping):
    """A read-only formula -> sorted values mapping that also numbers the
    values and keeps the tables that judge interpretations over them.

    Per formula of the program's scope, every value an answer set could
    assign it, sorted by (lo, hi): an atom takes ZERO and the folds of the
    non-empty sub-multisets of its head annotations, a compound the
    compositions of its components' values, and ZERO.

    Atom k is atoms[k], the k-th atomic formula of the scope in printed
    order, with the values atom_values[k], numbered by rank; compounds are
    the scope's other formulae, in the same order. A set of its
    values is an int mask, bit r standing for rank r: satisfying(k, ann) is
    the mask of the values at or above ann in the truth order, below(k, r)
    that of the values at or below rank r. folds[k] is atom k's fold table,
    (rank, annotation rank) -> rank, when it has two or more head
    occurrences, and non_expansive the first composition in them below one
    of its inputs, as (strategy name, formula, value, annotation,
    composition), or None.

    Atom k's values, fold table, offence and masks are rows[k], a _Row of
    the process-wide table _ROWS, shared with every program that folds the
    same head annotations under the same composition and built again only
    once the table has evicted it; the lattice attaches the offence's
    strategy name and formula. The text of atom k's entry at rank r, which
    _Point.text renders, the forms of the program's rules (rule_forms), the
    index of the rules that read each atom (readers) and the branching
    order are the program's own, built on first use. None of these tables
    holds a reference to the program, so the program's own die with it, and
    a reduct's scope and rules are its source's, so they serve it too.
    """

    __slots__ = (
        "_values", "formulae", "_rules", "atoms", "position", "scope_positions",
        "compounds", "rows", "atom_values", "folds", "non_expansive", "_offsets",
        "_texts", "_forms", "_readers", "_order",
    )

    def __init__(self, program: GroundProgram):
        self.formulae = program.relevant_formulae
        self._rules = program.rules
        self.atoms = tuple(f for f in self.formulae if f.is_atomic)
        self.position = {f.atoms[0]: k for k, f in enumerate(self.atoms)}
        # per formula of the scope, its atom's number, or None for a compound
        self.scope_positions = tuple(
            self.position[f.atoms[0]] if f.is_atomic else None for f in self.formulae
        )
        # the compound formulae of the scope, in scope order
        self.compounds = tuple(f for f, k in zip(self.formulae, self.scope_positions) if k is None)
        self._values: dict[HybridFormula, tuple[ProbInterval, ...]] = {}
        self.rows: list[_Row] = []
        # the annotation of every head occurrence, one entry per occurrence
        occurrences: dict[Atom, list[ProbInterval]] = {}
        for rule in program.rules:
            for atom, ann in rule.head:
                occurrences.setdefault(atom, []).append(ann)
        offences: dict[Atom, tuple] = {}
        # each strategy composes a (value, annotation) pair once per build
        compositions: dict[str, dict] = {}
        total = 0
        for formula in self.atoms:
            atom = formula.atoms[0]
            strat = program.strategy_for(atom.predicate)
            anns = occurrences.get(atom, ())
            key = (strat.compose, *map(interval_parts, anns))
            row = _ROWS.get(key)
            if row is None:
                memo = compositions.setdefault(strat.name, {})
                row = _ROWS.put(key, _Row(*_atom_lattice(atom, strat, anns, memo)))
            self._values[formula] = row.values
            self.rows.append(row)
            total += len(row.values)
            if total > LATTICE_CAP:
                raise UniverseOverflow(f"value lattice exceeded {LATTICE_CAP} entries")
            if row.offence is not None:
                offences[atom] = (strat.name, formula, *row.offence)
        self.atom_values = [row.values for row in self.rows]
        self.folds = [row.folds for row in self.rows]
        for formula in self.compounds:
            strat = program.formula_strategy(formula)
            component = [self.atom_values[self.position[a]] for a in formula.atoms]
            if math.prod(map(len, component)) > LATTICE_CAP:
                raise UniverseOverflow(f"value lattice for {formula} exceeded {LATTICE_CAP}")
            values = {ZERO}
            for combo in itertools.product(*component):
                values.add(compose_fold(strat, combo))
            total += len(values)
            if total > LATTICE_CAP:
                raise UniverseOverflow(f"value lattice exceeded {LATTICE_CAP} entries")
            self._values[formula] = _sorted_row(values)
        # the offence reported is that of the atom the last rule heads first;
        # without one, as is usual, no head is looked at
        self.non_expansive = None
        if offences:
            heads = (atom for rule in reversed(program.rules) for atom, _ in rule.head)
            self.non_expansive = next(offences[atom] for atom in heads if atom in offences)
        # the text of atom k's entry at its value of rank r is
        # _texts[_offsets[k] + r]
        self._offsets = array('l', itertools.accumulate(map(len, self.atom_values), initial=0))
        self._texts: list[str | None] = [None] * self._offsets[-1]
        self._forms: Forms | None = None
        self._readers: tuple[array, array] | None = None
        self._order: tuple[int, ...] | None = None

    def __getitem__(self, formula: HybridFormula) -> tuple[ProbInterval, ...]:
        return self._values[formula]

    def __contains__(self, formula: object) -> bool:
        return formula in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def satisfying(self, k: int, ann: ProbInterval) -> int:
        """The mask of atom k's values at or above ann."""
        return self.rows[k].reading(ann)[0]

    def below(self, k: int, r: int) -> int:
        """The mask of atom k's values at or below its value of rank r."""
        return self.rows[k].below(r)

    def point(self, h: PInterpretation) -> _Point:
        """h in this lattice's numbering, one walk of h.entries. An atom h
        puts off the lattice gets its own bit, and h's first entry whose
        formula lies outside the scope is kept as the point's outside."""
        position, rows = self.position, self.atom_values
        domains = [1] * len(self.atoms)
        compounds = dict.fromkeys(self.compounds, ZERO)
        extra: dict[int, ProbInterval] = {}
        outside = None
        for formula, value in h.entries:
            if formula.is_atomic:
                k = position.get(formula.atoms[0])
                if k is not None:
                    # value's rank in the row, found by identity first
                    row = rows[k]
                    for r, v in enumerate(row):
                        if v is value:
                            break
                    else:
                        if value in row:
                            r = row.index(value)
                        else:
                            r = len(row)
                            extra[k] = value
                    domains[k] = 1 << r
                    continue
            elif formula in compounds:
                compounds[formula] = value
                continue
            if outside is None:
                outside = (formula, value)
        return _Point(self, domains, compounds, extra, outside)

    def _build_forms(self) -> Forms:
        """The body and head forms of the program's rules."""
        # equal literals share one tuple, and so do heads of the same
        # disjuncts. The memo lives for this build only, while the rules hold
        # their annotations, so an id names one and equal annotations built
        # apart are never compared
        shared: dict[tuple, tuple] = {}
        same_heads: dict[tuple[int, ...], tuple] = {}

        def literal(k: int, ann: ProbInterval, positive: bool) -> tuple[int, int]:
            key = (k, id(ann), positive)
            pair = shared.get(key)
            if pair is None:
                mask = rows[k].reading(ann)[0]
                pair = (k, mask if positive else ~mask)
                pair = shared[key] = shared.setdefault(pair, pair)
            return pair

        def disjunct(k: int, ann: ProbInterval) -> tuple:
            key = (k, id(ann), None)
            d = shared.get(key)
            if d is None:
                d = shared[key] = (k, *rows[k].reading(ann), ann)
            return d

        def condition(pair: GroundPair) -> tuple:
            literals = tuple(
                literal(position[f.atoms[0]], c, True) if f.is_atomic else (None, (f, c, True))
                for f, c in pair.condition
            )
            return literals[0] if len(literals) == 1 and literals[0][0] is not None else (None, literals)

        position, rows = self.position, self.rows
        bodies, heads = [], []
        for rule in self._rules:
            literals = []
            for body, positive in ((rule.pos_body, True), (rule.neg_body, False)):
                for item, ann in body:
                    if isinstance(item, HybridFormula) and item.is_atomic:
                        literals.append(literal(position[item.atoms[0]], ann, positive))
                    elif isinstance(item, AggregateAtom):
                        conditions = tuple(map(condition, item.pset.pairs))
                        literals.append((None, (item, ann, positive, conditions)))
                    else:
                        literals.append((None, (item, ann, positive)))
            head = tuple(disjunct(position[atom], ann) for atom, ann in rule.head)
            bodies.append(tuple(literals))
            heads.append(same_heads.setdefault(tuple(map(id, head)), head))
        return bodies, heads

    def rule_forms(self, rules: list[Rule], forms: Forms | None = None) -> Forms:
        """The forms of rules, as the closure, the p-model check and the
        minimality search read them; rules are among the program's, in
        program order, as a reduct's are. They are selected from forms,
        forms of all the program's rules as a point patches them, or else
        from the lattice's own.

        A rule's body literals, in order: (atom, mask of the values where
        the literal holds) for an atomic formula; (None, (item, ann,
        positive, conditions)) for an aggregate, whose conditions hold, per
        pair of its set, the pair's condition: one atomic formula as that
        positive body literal, any other as (None, its formulae as positive
        body literals); and (None, (item, ann, positive)) for any other. Its
        head disjuncts: (atom, mask of the values that satisfy it, the
        annotation's rank among them or None, annotation)."""
        if forms is None:
            if self._forms is None:
                self._forms = self._build_forms()
            forms = self._forms
        if rules is self._rules:
            return forms
        bodies, heads = forms
        out: Forms = ([], [])
        j = 0
        for rule in rules:
            while self._rules[j] is not rule:
                j += 1
            out[0].append(bodies[j])
            out[1].append(heads[j])
            j += 1
        return out

    def readers(self, k: int) -> array:
        """The numbers of the program's rules whose forms read atom k's
        mask, in program order, a rule once per mask on k. The index is
        built on first use, for every atom: the rule numbers grouped by
        atom in one array of machine ints, and where each group starts in
        another, so a large program's index stays small."""
        if self._readers is None:
            self._readers = self._build_readers()
        starts, numbers = self._readers
        return numbers[starts[k]:starts[k + 1]]

    def _build_readers(self) -> tuple[array, array]:
        bodies, heads = self.rule_forms(self._rules)
        groups: list[list[int]] = [[] for _ in self.atoms]
        for p, (body, head) in enumerate(zip(bodies, heads)):
            for k, spec in body:
                if k is not None:
                    groups[k].append(p)
                elif isinstance(spec[0], AggregateAtom):
                    for j, form in spec[3]:
                        for i, _ in ((j, form),) if j is not None else form:
                            if i is not None:
                                groups[i].append(p)
            for d in head:
                groups[d[0]].append(p)
        starts = array('i', itertools.accumulate(map(len, groups), initial=0))
        return starts, array('i', itertools.chain.from_iterable(groups))

    @property
    def order(self) -> tuple[int, ...]:
        """The atoms in branching order: grouped by strongly connected
        component of the positive dependency graph, bodies before heads,
        printed order inside a component. Atoms in the conditions of an
        aggregate count as body atoms. Branching in this order decides a
        rule's body before its head is branched on."""
        if self._order is None:
            self._order = self._branching_order()
        return self._order

    def _branching_order(self) -> tuple[int, ...]:
        position = self.position
        depends: list[list[int]] = [[] for _ in self.atoms]
        for rule in self._rules:
            if not rule.head:
                continue
            body: list[int] = []
            for item, _ in rule.pos_body:
                if isinstance(item, HybridFormula):
                    body.extend(map(position.__getitem__, item.atoms))
                elif isinstance(item, AggregateAtom):
                    for pair in item.pset.pairs:
                        for formula, _ in pair.condition:
                            body.extend(map(position.__getitem__, formula.atoms))
            for atom, _ in rule.head:
                depends[position[atom]].extend(body)
        return tuple(_components(depends))


class _Point:
    """An interpretation in a value lattice's numbering.

    domains[k] holds one bit, the rank of atom k's value in values[k]: the
    lattice's row, with the interpretation's own value appended when it
    lies off the lattice (extra[k]). compounds maps every compound formula
    of the scope, in scope order, to its value. outside is the
    interpretation's first entry whose formula lies outside the scope, as
    (formula, value), or None. forms, when given, are the forms of the
    rules named with them, as forms(rules) would select them.

    The rule forms a point judges with are the lattice's, with the bit of
    each off-lattice value set in every mask whose literal holds at that
    value. The program's forms are patched once per point, and only where
    the lattice's index (_ValueLattice.readers) says a rule reads an atom
    off the lattice: there only the masks on that atom change, so an
    aggregate keeps every condition tuple that reads none. A reduct's
    forms are selected from the patched ones, and a minimality search and
    its leaves read them as they are.
    """

    __slots__ = ("lattice", "domains", "values", "extra", "compounds", "outside", "_forms", "_patched")

    def __init__(
        self,
        lattice: _ValueLattice,
        domains: list[int],
        compounds: dict[HybridFormula, ProbInterval],
        extra: dict[int, ProbInterval],
        outside: tuple | None = None,
        forms: tuple[list[Rule], Forms] | None = None,
    ):
        self.lattice = lattice
        self.domains = domains
        self.compounds = compounds
        self.extra = extra
        self.outside = outside
        self.values = lattice.atom_values
        if extra:
            self.values = list(self.values)
            for k, value in extra.items():
                self.values[k] += (value,)
        self._forms = forms
        self._patched: Forms | None = None

    def value(self, k: int) -> ProbInterval:
        return self.values[k][self.domains[k].bit_length() - 1]

    def interpretation(self) -> PInterpretation:
        """The interpretation this point numbers on the scope, without
        outside. The scope is sorted as PInterpretation sorts its entries.
        An atom is at ZERO when its domain is bit 0: rank 0 of every row is
        ZERO, and a value off the lattice never is."""
        lattice = self.lattice
        entries = []
        for formula, k in zip(lattice.formulae, lattice.scope_positions):
            if k is None:
                value = self.compounds[formula]
                if value is ZERO or value == ZERO:
                    continue
            elif self.domains[k] == 1:
                continue
            else:
                value = self.value(k)
            entries.append((formula, value))
        return PInterpretation(tuple(entries))

    def text(self) -> str:
        """str(self.interpretation()). The text of an atom's entry at a
        value of its row is rendered once per program and kept by the
        lattice; an entry off the lattice, or a compound's, is rendered
        afresh."""
        lattice = self.lattice
        rows, offsets, texts = lattice.atom_values, lattice._offsets, lattice._texts
        parts = []
        for formula, k in zip(lattice.formulae, lattice.scope_positions):
            if k is None:
                value = self.compounds[formula]
                if value is not ZERO and value != ZERO:
                    parts.append(f"{formula}:{value}")
                continue
            r = self.domains[k].bit_length() - 1
            if r == len(rows[k]):
                parts.append(f"{formula}:{self.extra[k]}")
            elif r:
                i = offsets[k] + r
                if texts[i] is None:
                    texts[i] = f"{formula}:{rows[k][r]}"
                parts.append(texts[i])
        return "{" + ", ".join(parts) + "}"

    def forms(self, rules: list[Rule]) -> Forms:
        """The forms of rules (_ValueLattice.rule_forms), where each mask
        that reads an atom off the lattice also holds the atom's own bit
        when the mask's literal holds at the atom's value. The forms last
        selected are kept, and read again for the same rules."""
        if self._forms is not None and self._forms[0] is rules:
            return self._forms[1]
        if self.extra and self._patched is None:
            self._patched = self._patch()
        forms = self.lattice.rule_forms(rules, self._patched)
        self._forms = rules, forms
        return forms

    def _patch(self) -> Forms:
        """The forms of the program's rules with each mask on an atom off
        the lattice patched, in the rules that read one."""
        lattice, extra = self.lattice, self.extra
        rules = lattice._rules
        bodies, heads = (list(side) for side in lattice.rule_forms(rules))
        for p in {p for k in extra for p in lattice.readers(k)}:
            rule, body, head = rules[p], bodies[p], heads[p]
            literals = rule.pos_body + rule.neg_body
            for n, (k, spec) in enumerate(bodies[p]):
                if k in extra:
                    body = self._masked(body, (n, 1), k, literals[n][1], n < len(rule.pos_body))
                elif k is None and isinstance(spec[0], AggregateAtom):
                    pairs = spec[0].pset.pairs
                    for s, (j, form) in enumerate(spec[3]):
                        # (path to the mask, atom, literal) per mask of the condition
                        masks = [((n, 1, 3, s, 1), j, 0)] if j is not None else [
                            ((n, 1, 3, s, 1, c, 1), i, c) for c, (i, _) in enumerate(form)
                        ]
                        for path, i, c in masks:
                            if i in extra:
                                body = self._masked(body, path, i, pairs[s].condition[c][1], True)
            for i, d in enumerate(heads[p]):
                if d[0] in extra:
                    head = self._masked(head, (i, 1), d[0], d[3], True)
            bodies[p], heads[p] = body, head
        return bodies, heads

    def _masked(
        self, form: tuple, path: tuple[int, ...], k: int, ann: ProbInterval, positive: bool
    ) -> tuple:
        """form, nested tuples, with the mask at path, a literal's on atom k
        with annotation ann, negated unless positive, holding the bit of k's
        own value exactly where the literal holds at it. form itself when
        that changes nothing."""
        mask = reduce(getitem, path, form)
        bit = 1 << len(self.lattice.atom_values[k])
        patched = mask | bit if truth_leq(ann, self.extra[k]) == positive else mask & ~bit
        return form if patched == mask else _replaced(form, path, patched)


def _replaced(form: tuple, path: tuple[int, ...], entry) -> tuple:
    """Nested tuples form with its entry at path replaced, and every tuple
    off that path kept."""
    i = path[0]
    inner = entry if len(path) == 1 else _replaced(form[i], path[1:], entry)
    return (*form[:i], inner, *form[i + 1:])


class _Row:
    """An atom's lattice row: values, ZERO and the folds of its head
    annotations sorted by (lo, hi), with folds and offence as _atom_lattice
    gives them, and the masks that read them, each computed on first use:
    reading(ann) and below(r). It holds values and masks alone, so programs
    that fold the same annotations under the same composition share one,
    and it keeps at most as many masks of each kind as it has values."""

    __slots__ = ("values", "folds", "offence", "_readings", "_below")

    def __init__(self, values: tuple[ProbInterval, ...], folds: dict | None, offence: tuple | None):
        self.values = values
        self.folds = folds
        self.offence = offence
        self._readings: dict[tuple[int, ...], tuple[int, int | None]] = {}
        self._below: list[int | None] = [None] * len(values)

    def reading(self, ann: ProbInterval) -> tuple[int, int | None]:
        """The mask of the values at or above ann, and ann's rank among
        them or None. Kept per annotation, keyed on its integer parts, so
        an equal annotation of another program finds it without comparing
        Fractions."""
        key = interval_parts(ann)
        reading = self._readings.get(key)
        if reading is None:
            mask, rank = 0, None
            for r, v in enumerate(self.values):
                if truth_leq(ann, v):
                    mask |= 1 << r
                    if rank is None and truth_leq(v, ann):
                        rank = r
            reading = mask, rank
            if len(self._readings) < len(self.values):
                self._readings[key] = reading
        return reading

    def below(self, r: int) -> int:
        """The mask of the values at or below the value of rank r."""
        mask = self._below[r]
        if mask is None:
            mask = self._below[r] = _below_mask(self.values, self.values[r])
        return mask


class _RowTable(OrderedDict):
    """The atom rows built in this process, oldest first, keyed by
    (strategy's compose function, integer parts of each head annotation in
    program order): the row depends on nothing else, as a composition must
    be a pure function of its operands. The rows hold held values, at most
    ROWS_CAP; putting one evicts the oldest until it fits. A row whose
    build raises is never put, and a row put under a key already held
    (built by two threads at once) is not kept twice."""

    def __init__(self):
        super().__init__()
        self.held = 0
        self._lock = threading.Lock()

    def put(self, key: tuple, row: _Row) -> _Row:
        size = len(row.values)
        with self._lock:
            if size <= ROWS_CAP and key not in self:
                while self.held + size > ROWS_CAP:
                    self.held -= len(self.popitem(last=False)[1].values)
                self[key] = row
                self.held += size
        return row


# most values the rows of _ROWS hold together, room for one row at the cap
ROWS_CAP = LATTICE_CAP
_ROWS = _RowTable()


def _atom_lattice(atom: Atom, strategy: PStrategy, anns: list[ProbInterval], memo: dict) -> tuple:
    """ZERO and the folds of the non-empty sub-multisets of anns, an atom's
    head annotations, sorted by (lo, hi); with two or more, also the atom's
    fold table, (rank, annotation rank) -> rank of strategy composing each
    value (but ZERO, unless an annotation is ZERO) with each annotation,
    where that is a value, and the first such composition below one of its
    inputs, as (value, annotation, composition), or None. Compositions are
    taken in ascending order of the value's rank, and for one value in
    ascending order of the annotation's rank. memo maps a (value,
    annotation) pair to strategy's composition of it, for every atom of
    the build under strategy. The result depends on strategy.compose and
    anns alone, so _ValueLattice keeps it in _ROWS, where programs share
    it; atom only names the row in an overflow."""

    def compose(v: ProbInterval, ann: ProbInterval) -> ProbInterval:
        out = memo.get((v, ann))
        if out is None:
            out = memo[v, ann] = strategy.compose(v, ann)
        return out

    acc: set[ProbInterval] = set()
    last, grew = None, True
    for ann in anns:
        # folding in the annotation that just added nothing adds nothing
        if not grew and ann == last:
            continue
        size = len(acc)
        acc |= {ann} | {compose(v, ann) for v in acc}
        last, grew = ann, len(acc) != size
        if len(acc) + (ZERO not in acc) > LATTICE_CAP:
            raise UniverseOverflow(f"value lattice for {atom} exceeded {LATTICE_CAP}")
    acc.add(ZERO)
    values = _sorted_row(acc)
    if len(anns) < 2:
        return values, None, None
    rank = {v: r for r, v in enumerate(values)}
    columns = sorted({rank[ann] for ann in anns})
    table, offence = {}, None
    for r in range(0 if columns[0] == 0 else 1, len(values)):
        for a in columns:
            v, ann = values[r], values[a]
            out = compose(v, ann)
            if offence is None and not (truth_leq(v, out) and truth_leq(ann, out)):
                offence = (v, ann, out)
            if out in rank:
                table[r, a] = rank[out]
    return values, table, offence


def _sorted_row(values: set[ProbInterval]) -> tuple[ProbInterval, ...]:
    """values, ZERO among them, sorted by (lo, hi): a row of two is ZERO
    then the value above it, unsorted, and a longer one is sorted on
    lo_hi_key, which compares Fractions only where their floats tie."""
    if len(values) == 2:
        a, b = values
        if a is ZERO:
            return a, b
        if b is ZERO:
            return b, a
    return tuple(sorted(values, key=lo_hi_key))


def _below_mask(values: tuple[ProbInterval, ...], top: ProbInterval) -> int:
    """The mask of the values at or below top. values is sorted by (lo, hi),
    so no value after one whose lo exceeds top's can be at or below it."""
    mask = 0
    for r, v in enumerate(values):
        if truth_leq(v, top):
            mask |= 1 << r
        elif v.lo > top.lo:
            break
    return mask


def _components(depends: list[list[int]]) -> list[int]:
    """Nodes 0..n-1 grouped by strongly connected component of the graph
    whose edges run from each node to its depends, each component in
    ascending order and after every component it reaches (Tarjan's
    algorithm, iterative, roots in ascending order, edges in list order)."""
    n = len(depends)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(depends[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(depends[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    out.extend(sorted(component))
    return out
