"""Grounding: from rules with variables to finite ground programs.

Object variables are bound by matching positive plain body literals against
the derivable-atom index, a fixpoint over rule heads that over-approximates
everything any interpretation of interest can support. Variables that remain
free after matching (guard-only or comparison-only occurrences) are
enumerated over the universe of ground terms seen in the program. It is
collected only when a rule has such a variable, a vacuous literal with
variables or a symbolic set (_JoinPlan.enumerates): never for a translated
classical program, whose rules have no variables.

The index grows in passes over the rules in program order. A pass binds a
rule against the index the first time, and again only when a predicate its
plain positive literals read has gained an entry since; when only its first
literal's predicate did, with new atoms, it makes just the bindings that
match those (_RuleInstances). It keeps the bindings whose builtin
comparisons hold and whose head atoms all ground, and indexes each such
head whole, once per distinct binding: a head with an atom that does not
ground (p(X+1) under X = a) adds none of its atoms. When a pass adds
nothing, every rule holds the instances that binding it against the final
index would make, in the same order, and those are instantiated:
ground_rule grounds their bodies, with no second binding pass.

A rule's join plan (_JoinPlan) decides once how each of its plain
positive literals matches: one annotated [0,0] over the universe, one with
no variables by looking each of its atoms up by its key in
AtomIndex.entries, and the rest through AtomIndex.lookup and unify_atom. A
literal whose annotation binds no variable matches an atom once, whatever
values the atom is derived at. So a rule with no variables binds with one
lookup per body atom and has at most one binding, {}: made in the first
pass whose index derives its body atoms, it interns its head atoms, and
the rule is never bound again.

Annotation variables bind positionally: matching a literal annotated [P1,P2]
against an indexed entry with value [l,u] binds P1 to l and P2 to u; the
single-variable form :P tries both endpoints. Annotation variables that only
occur where no entry can bind them (inside function applications, or on
compound formulae) stay free and surface as UnboundAnnotationVariable.

A body literal with the constant annotation [0,0] is satisfied vacuously, so
its arguments are enumerated over the universe instead of the index.

Every ground atom is one object: the index (AtomIndex) makes it once, with
its one atomic formula, whether a head derives it or it occurs only in a
body. Every rule holds these objects, and GroundProgram.relevant_formulae
takes an atom's formula from the rules, so the formula scope, the value
lattice and the solver's interpretations share them, and a lookup keyed by
an atom or an atomic formula hits on identity. An atom holds no reference
to its formula.

A GroundProgram builds its value lattice (_lattice._ValueLattice) once, on
first use. A reduct names the program it was made from as its source, and
shares that program's formula scope and value lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from ._lattice import _ValueLattice
from .errors import UniverseOverflow, UnsupportedConstruct
from .model import (
    AggregateAtom,
    Annotation,
    AnnotationLike,
    AnnVar,
    Atom,
    BodyLiteral,
    BuiltinComparison,
    evaluate_annotation,
    FuncTerm,
    GroundPair,
    GroundSet,
    HeadLiteral,
    HybridFormula,
    item_variables,
    Num,
    ProbabilitySet,
    ProbInterval,
    Program,
    Rule,
    substitute_term,
    Term,
    term_is_ground,
    Var,
)
from .strategies import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    PStrategy,
    builtin_registry,
)

Env = dict[str, Term]

# -- universe ----------------------------------------------------------------


def _ground_subterms(t: Term) -> set[Term]:
    """t's ground subterms, t among them when it is ground."""
    out = set().union(*map(_ground_subterms, t.args)) if isinstance(t, FuncTerm) else set()
    if term_is_ground(t):
        out.add(t)
    return out


def collect_universe(program: Program) -> tuple[Term, ...]:
    """All ground terms appearing in argument or guard position."""
    terms: list[Term] = []  # the argument and guard terms, ground or not
    for rule in program.rules:
        atoms = [atom for atom, _ in rule.head]
        for item, _ in rule.pos_body + rule.neg_body:
            if isinstance(item, HybridFormula):
                atoms += item.atoms
            elif isinstance(item, BuiltinComparison):
                terms += (item.left, item.right)
            elif isinstance(item, AggregateAtom):
                terms += (item.guard_lo, item.guard_hi)
                pset = item.pset
                members = [pset] if isinstance(pset, ProbabilitySet) else pset.pairs
                for member in members:
                    terms.append(member.value)
                    atoms += [atom for formula, _ in member.condition for atom in formula.atoms]
        terms += [arg for atom in atoms for arg in atom.args]
    return tuple(sorted(set().union(*map(_ground_subterms, terms)), key=str))


# -- the derivable-atom index -------------------------------------------------


class AtomIndex:
    """Every ground atom made while grounding, one object each, with the
    annotation values it can be derived at.

    entries maps an atom's predicate and arguments to its one atomic
    formula, whose atom every rule shares, and the set of values it is
    derived at, empty for an atom made only in a body; values maps each
    derived atom to that set. Derived atoms are listed in insertion
    order per predicate, and again per argument position and ground term,
    so a join looks up a bound argument instead of scanning the predicate.
    size counts the (atom, value) entries, and only grows. grown maps each
    predicate to the size just after it last gained an entry, and widened
    to the size just after one of its atoms gained a second or later value,
    which can reorder that atom's set of values."""

    def __init__(self, max_entries: int):
        self.entries: dict[tuple[str, tuple[Term, ...]], tuple[HybridFormula, set[ProbInterval]]] = {}
        self.values: dict[Atom, set[ProbInterval]] = {}
        self.by_pred: dict[tuple[str, int], list[Atom]] = {}
        self.by_arg: dict[tuple[str, int, int, Term], list[Atom]] = {}
        self.max_entries = max_entries
        self.size = 0
        self.grown: dict[str, int] = {}
        self.widened: dict[str, int] = {}
        self._sets: dict[int, GroundSet] = {}
        self._conditions: dict[int, tuple[_Conjunct, ...]] = {}

    def _entry(self, predicate: str, args: tuple[Term, ...]) -> tuple[HybridFormula, set[ProbInterval]]:
        key = predicate, args
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = (HybridFormula.atomic(Atom(predicate, args)), set())
        return entry

    def formula(self, predicate: str, args: tuple[Term, ...]) -> HybridFormula:
        """The one atomic formula of the atom, made the first time it is
        asked for."""
        return self._entry(predicate, args)[0]

    def add(self, predicate: str, args: tuple[Term, ...], value: ProbInterval) -> Atom:
        """Index the atom at value, and return its one object."""
        formula, known = self._entry(predicate, args)
        atom = formula.atoms[0]
        if not known:
            self.values[atom] = known
            arity = len(args)
            self.by_pred.setdefault((predicate, arity), []).append(atom)
            for i, term in enumerate(args):
                self.by_arg.setdefault((predicate, arity, i, term), []).append(atom)
        if value not in known:
            if known:
                self.widened[predicate] = self.size + 1
            known.add(value)
            self.size += 1
            self.grown[predicate] = self.size
            if self.size > self.max_entries:
                raise UniverseOverflow(
                    f"derivable-atom index exceeded {self.max_entries} entries"
                )
        return atom

    def ground_set(self, gset: GroundSet) -> GroundSet:
        """gset, a ground set written in a rule, with its conditions on the
        index's atoms: made once for all the rule's instances. The program
        holds gset while it grounds, so its id names it."""
        out = self._sets.get(id(gset))
        if out is None:
            out = self._sets[id(gset)] = GroundSet(tuple(
                GroundPair(pair.value, pair.prob, _ground_condition(pair.condition, {}, self))
                for pair in gset.pairs
            ))
        return out

    def set_conditions(self, pset: ProbabilitySet) -> tuple[_Conjunct, ...]:
        """pset's condition literals as the join matches them (_conjunct),
        planned once for all the rule's instances; pset's id names it, as
        in ground_set."""
        out = self._conditions.get(id(pset))
        if out is None:
            out = self._conditions[id(pset)] = tuple(
                [_conjunct(formula, ann, formula.variables()) for formula, ann in pset.condition]
            )
        return out

    def lookup(self, atom: Atom, env: Env) -> list[Atom]:
        """Every indexed atom that can unify with atom under env, and maybe
        others, in insertion order: the smallest list among its arguments
        that env makes ground, else its predicate's list."""
        arity = len(atom.args)
        best = self.by_pred.get((atom.predicate, arity), [])
        for i, arg in enumerate(atom.args):
            if len(best) <= 1:
                break
            term = env.get(arg.name) if isinstance(arg, Var) else substitute_term(arg, env)
            if term is None or not term_is_ground(term):
                continue
            bucket = self.by_arg.get((atom.predicate, arity, i, term), [])
            if len(bucket) < len(best):
                best = bucket
        return best


# -- unification and literal matching ------------------------------------------


def unify_term(pattern: Term, value: Term, env: Env) -> Env | None:
    """Match a pattern term against a ground term, extending env."""
    if isinstance(pattern, Var):
        bound = env.get(pattern.name)
        if bound is None:
            out = dict(env)
            out[pattern.name] = value
            return out
        return env if bound == value else None
    if isinstance(pattern, FuncTerm):
        if not isinstance(value, FuncTerm) or pattern.name != value.name:
            return None
        if len(pattern.args) != len(value.args):
            return None
        for p, v in zip(pattern.args, value.args):
            nxt = unify_term(p, v, env)
            if nxt is None:
                return None
            env = nxt
        return env
    resolved = substitute_term(pattern, env)
    if resolved is None or not term_is_ground(resolved):
        return None
    return env if resolved == value else None


def unify_atom(pattern: Atom, fact: Atom, env: Env) -> Env | None:
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    for p, v in zip(pattern.args, fact.args):
        nxt = unify_term(p, v, env)
        if nxt is None:
            return None
        env = nxt
    return env


def _bind_ann_var(env: Env, name: str, value) -> Env | None:
    bound = env.get(name)
    term = Num(value)
    if bound is None:
        out = dict(env)
        out[name] = term
        return out
    return env if bound == term else None


def annotation_bindings(ann: AnnotationLike, value: ProbInterval, env: Env) -> list[Env]:
    """Envs binding the annotation's variables against an indexed value."""
    if not isinstance(ann, Annotation):
        return [env]
    lo, hi = ann.lo, ann.hi
    if isinstance(lo, AnnVar) and isinstance(hi, AnnVar) and lo.name == hi.name:
        # :P form, try both endpoints
        outs = []
        for v in dict.fromkeys((value.lo, value.hi)):
            nxt = _bind_ann_var(env, lo.name, v)
            if nxt is not None:
                outs.append(nxt)
        return outs
    out: Env | None = env
    if isinstance(lo, AnnVar):
        out = _bind_ann_var(out, lo.name, value.lo)
        if out is None:
            return []
    if isinstance(hi, AnnVar):
        out = _bind_ann_var(out, hi.name, value.hi)
        if out is None:
            return []
    return [out]


# a positive formula literal as the join matches it (_conjunct)
_Conjunct = tuple[HybridFormula, AnnotationLike | None, bool, tuple | None]


def _conjunct(formula: HybridFormula, ann: AnnotationLike, variables: set[str]) -> _Conjunct:
    """The literal formula:ann, whose formula has the given variables, as
    the join matches it, decided once when its plan is made: (formula, ann,
    vacuous, keys).

    ann stays when the formula is atomic and matching binds a variable of
    ann; otherwise it is None, and the formula matches an atom once,
    whatever values the atom is derived at. vacuous: ann is [0,0], the one
    probability interval whose upper end is 0, and the atoms' arguments
    range over the universe. keys, for a formula with no variables, holds
    each atom's key in AtomIndex.entries; arguments that do not ground
    (None) key no entry."""
    if isinstance(ann, ProbInterval):
        if not ann.hi:
            return formula, None, True, None
        ann = None
    elif not (formula.is_atomic and (isinstance(ann.lo, AnnVar) or isinstance(ann.hi, AnnVar))):
        ann = None
    keys = None
    if not variables:
        keys = tuple([(atom.predicate, _ground_args(atom, {})) for atom in formula.atoms])
    return formula, ann, False, keys


class _Budget:
    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.used = 0
        self.what = what

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise UniverseOverflow(f"{self.what} exceeded {self.limit}")


def _enumerate(names: set[str], env: Env, universe: tuple[Term, ...], budget: _Budget):
    """env extended by every binding of its free names over the universe."""
    free = sorted(names - env.keys())
    if not free:
        yield env
        return
    for combo in itertools.product(universe, repeat=len(free)):
        budget.spend()
        out = dict(env)
        out.update(zip(free, combo))
        yield out


def _join(conjuncts, env: Env, match) -> list[Env]:
    """Envs extending env that match every conjunct in turn, where
    match(conjunct, env) yields the extensions matching one conjunct."""
    envs = [env]
    for conjunct in conjuncts:
        envs = [out for e in envs for out in match(conjunct, e)]
        if not envs:
            break
    return envs


def _match_values(ann: AnnotationLike | None, values: set[ProbInterval], env: Env, budget: _Budget):
    """env extended by binding ann against each of an atom's values, or env
    once when ann is None."""
    if ann is None:
        yield env
        return
    for value in values:
        budget.spend()
        yield from annotation_bindings(ann, value, env)


def _match_facts(atom: Atom, ann: AnnotationLike | None, facts, env: Env, index: AtomIndex, budget: _Budget):
    """Envs extending env under which atom, annotated ann, matches one of
    facts (at one of its indexed values, when ann is not None). Every fact
    scanned spends the budget, matched or not, and so does every value a
    match binds ann against."""
    budget.spend(len(facts))
    for fact in facts:
        nxt = unify_atom(atom, fact, env)
        if nxt is not None:
            yield from _match_values(ann, index.values[fact], nxt, budget)


def match_conjunct(
    conjunct: _Conjunct,
    env: Env,
    index: AtomIndex,
    universe: tuple[Term, ...],
    budget: _Budget,
):
    """Envs under which the conjunct can match derivable atoms.

    Atomic conjuncts also bind annotation variables from the indexed values.
    Compound conjuncts bind object variables per component atom; their
    annotation variables have nothing to bind against. A vacuous conjunct
    binds its atoms' arguments over the whole universe instead. A conjunct
    with no variables looks each of its atoms up by its key.
    """
    formula, ann, vacuous, keys = conjunct
    if keys is not None:
        budget.spend(len(keys))
        for key in keys:
            entry = index.entries.get(key)
            if entry is None or not entry[1]:
                return ()
        return (env,) if ann is None else _match_values(ann, entry[1], env, budget)
    if vacuous:
        return _join(formula.atoms, env, lambda a, e: _enumerate(a.variables(), e, universe, budget))
    if formula.is_atomic:
        atom = formula.atoms[0]
        return _match_facts(atom, ann, index.lookup(atom, env), env, index, budget)
    return _join(formula.atoms, env, lambda a, e: _match_facts(a, None, index.lookup(a, e), e, index, budget))


def _has_arith(conjunct: _Conjunct) -> bool:
    return any(
        not isinstance(a, Var) and not term_is_ground(a)
        for atom in conjunct[0].atoms
        for a in atom.args
    )


def _literal_matcher(index: AtomIndex, universe: tuple[Term, ...], budget: _Budget):
    return lambda conjunct, env: match_conjunct(conjunct, env, index, universe, budget)


class _JoinPlan(NamedTuple):
    """How a rule's bindings are made, the same on every binding."""

    rule: Rule
    # its plain positive literals, in join order
    conjuncts: tuple[_Conjunct, ...]
    # the variables the join leaves unbound, enumerated over the universe
    free: frozenset[str]
    # every variable a binding binds, in name order; none for a rule with
    # no variables, whose one binding is {}
    names: tuple[str, ...]
    # whether binding or grounding the rule reads the universe: it has free
    # variables, a vacuous literal with variables, or a symbolic set
    enumerates: bool


def _join_plan(rule: Rule) -> _JoinPlan:
    conjuncts = []
    # the variables the join binds, and every variable needing a binding
    # before the rule can ground: all outside symbolic sets, whose local
    # variables are bound per pair
    names: set[str] = set()
    needed: set[str] = set()
    enumerates = False
    for atom, _ in rule.head:
        needed |= atom.variables()
    for item, ann in rule.pos_body:
        variables = item_variables(item)
        needed |= variables
        if isinstance(item, HybridFormula):
            conjunct = _, ann, vacuous, _ = _conjunct(item, ann, variables)
            conjuncts.append(conjunct)
            names |= variables
            if ann is not None:
                names.update(end.name for end in (ann.lo, ann.hi) if isinstance(end, AnnVar))
            enumerates |= vacuous and bool(variables)
        elif isinstance(item, AggregateAtom):
            enumerates |= isinstance(item.pset, ProbabilitySet)
    for item, _ in rule.neg_body:
        needed |= item_variables(item)
        enumerates |= isinstance(item, AggregateAtom) and isinstance(item.pset, ProbabilitySet)
    if len(conjuncts) > 1:
        # defer literals with arithmetic arguments until others have bound things
        conjuncts.sort(key=_has_arith)
    free = frozenset(needed - names)
    return _JoinPlan(rule, tuple(conjuncts), free, tuple(sorted(names | free)), enumerates or bool(free))


def rule_bindings(
    plan: _JoinPlan,
    index: AtomIndex,
    universe: tuple[Term, ...],
    budget: _Budget,
    since: int,
) -> list[Env]:
    """Ground substitutions for the plan's rule's object and annotation
    variables: its plain positive literals joined against the index, then
    guard-only or comparison-only variables bound over the universe. With
    since, only those whose first literal, which must be atomic, matches an
    atom at position since or later of its predicate's list."""
    conjuncts, free = plan.conjuncts, plan.free
    match = _literal_matcher(index, universe, budget)
    if since:
        (formula, ann, _, _), *conjuncts = conjuncts
        atom = formula.atoms[0]
        facts = index.by_pred[atom.predicate, len(atom.args)][since:]
        envs = [
            out
            for env in _match_facts(atom, ann, facts, {}, index, budget)
            for out in _join(conjuncts, env, match)
        ]
    else:
        envs = _join(conjuncts, {}, match)
    if not free:
        return envs
    return [out for env in envs for out in _enumerate(free, env, universe, budget)]


class _RuleInstances:
    """A rule's instances in the index fixpoint, each a binding and the
    head it grounds, bound again only when an index entry its joins read
    is new.

    Bindings are made in the order of the entries they match, so binding
    the rule against an index whose entries for the predicates it reads
    have not changed makes the same instances in the same order. When only
    its first literal's predicate gained entries, and those are new atoms
    (none of its known atoms gained a value), the new bindings are the
    ones matching the new atoms, and they come after the old: only those
    are made. Otherwise every binding is made again, and one met before
    takes the head it grounded then, so each distinct binding grounds its
    head and indexes its atoms once. A rule with no variables has one
    binding, {}: once made, the rule is never bound again."""

    def __init__(self, rule: Rule):
        self.plan = plan = _join_plan(rule)
        conjuncts = plan.conjuncts
        self.reads = {atom.predicate for formula, _, _, _ in conjuncts for atom in formula.atoms}
        # in a rule with variables, the first literal's atom, when it is
        # atomic, matched against the index, and the only literal reading
        # its predicate; a rule with no variables has no new bindings to
        # find among new atoms, and looks its literals up by their keys
        self.first: Atom | None = None
        if plan.names and conjuncts:
            (formula, _, vacuous, _), *rest = conjuncts
            predicate = formula.atoms[0].predicate
            if formula.is_atomic and not vacuous and not any(
                atom.predicate == predicate for other, _, _, _ in rest for atom in other.atoms
            ):
                self.first = formula.atoms[0]
        self.bound_at = -1  # the index size when last bound
        self.seen = 0  # the length of first's predicate list then
        self.made: list[tuple[Env, tuple[HeadLiteral, ...]]] = []
        # bindings whose head is None, each named by its values in the
        # order of plan.names
        self.failed: set[tuple[Term, ...]] = set()

    def update(self, index: AtomIndex, universe: tuple[Term, ...], budget: _Budget) -> None:
        """Bind the rule again if an entry it reads is new since it was last
        bound, or bind it the first time."""
        bound_at = self.bound_at
        grown = [p for p in self.reads if index.grown.get(p, 0) > bound_at]
        if bound_at >= 0 and not grown:
            return
        plan, first = self.plan, self.first
        if bound_at < 0 or (
            first is not None
            and grown == [first.predicate]
            and index.widened.get(first.predicate, 0) <= bound_at
        ):
            # bound the first time, or to be joined against new atoms only:
            # every binding is new
            since, made, known = self.seen, self.made, {}
        else:
            since, made, known = 0, [], dict.fromkeys(self.failed)
            known.update((self._key(env), head) for env, head in self.made)
        envs = rule_bindings(plan, index, universe, budget, since)
        self.bound_at = index.size
        if first is not None:
            self.seen = len(index.by_pred.get((first.predicate, len(first.args)), ()))
        for env in envs:
            key = self._key(env)
            if key in known:
                head = known[key]
            else:
                head = known[key] = _ground_head(plan.rule, env, index)
            if head is None:
                self.failed.add(key)
            else:
                made.append((env, head))
        self.made = made
        if envs and not plan.names:
            # its one binding, {}, is made: the rule is never bound again
            self.reads = ()

    def _key(self, env: Env) -> tuple[Term, ...]:
        return tuple([env[name] for name in self.plan.names])


# -- applying a substitution ----------------------------------------------------


def _ground_args(atom: Atom, env: Env) -> tuple[Term, ...] | None:
    """atom's arguments under env, or None when one does not ground; the
    index makes the atom they ground (AtomIndex.formula, AtomIndex.add)."""
    args = []
    for a in atom.args:
        t = substitute_term(a, env)
        if t is None or not term_is_ground(t):
            return None
        args.append(t)
    return tuple(args)


def substitute_formula(formula: HybridFormula, env: Env, index: AtomIndex) -> HybridFormula | None:
    """formula under env, its atoms the index's, and an atomic one the
    index's own formula; None when it does not ground."""
    atoms = []
    for atom in formula.atoms:
        args = _ground_args(atom, env)
        if args is None:
            return None
        atoms.append(index.formula(atom.predicate, args))
    if formula.is_atomic:
        return atoms[0]
    if len(set(atoms)) != len(atoms):
        # distinctness can collapse under substitution; no such ground formula
        return None
    return HybridFormula(tuple(f.atoms[0] for f in atoms), formula.connective, formula.strategy)


def ground_symbolic_set(
    pset: ProbabilitySet,
    env: Env,
    index: AtomIndex,
    universe: tuple[Term, ...],
    budget: _Budget,
) -> GroundSet:
    """Instantiate a symbolic set's local variables against the index."""
    pairs: list[GroundPair] = []
    seen: set[GroundPair] = set()
    for e in _join(index.set_conditions(pset), env, _literal_matcher(index, universe, budget)):
        value = substitute_term(pset.value, e)
        if value is None or not term_is_ground(value):
            continue
        condition = _ground_condition(pset.condition, e, index)
        if condition is None:
            continue
        pair = GroundPair(value, evaluate_annotation(pset.prob, e), condition)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    pairs.sort(key=str)
    return GroundSet(tuple(pairs))


def _ground_condition(
    condition: tuple[BodyLiteral, ...], env: Env, index: AtomIndex
) -> tuple[tuple[HybridFormula, ProbInterval], ...] | None:
    """A set member's condition under env, or None when a formula does not
    ground."""
    out = []
    for formula, ann in condition:
        gf = substitute_formula(formula, env, index)
        if gf is None:
            return None
        out.append((gf, evaluate_annotation(ann, env)))
    return tuple(out)


def _ground_guard(term: Term, env: Env) -> Term:
    t = substitute_term(term, env)
    if t is None or not isinstance(t, Num):
        raise UnsupportedConstruct(f"aggregate guard {term} is not numeric")
    return t


def _ground_literal(
    item,
    ann: AnnotationLike,
    env: Env,
    index: AtomIndex,
    universe: tuple[Term, ...],
    budget: _Budget,
) -> BodyLiteral | None:
    if isinstance(item, HybridFormula):
        gf = substitute_formula(item, env, index)
        if gf is None:
            return None
        return gf, evaluate_annotation(ann, env)
    if isinstance(item, AggregateAtom):
        if isinstance(item.pset, ProbabilitySet):
            gset = ground_symbolic_set(item.pset, env, index, universe, budget)
        else:
            gset = index.ground_set(item.pset)
        atom = AggregateAtom(
            item.func,
            gset,
            item.cmp,
            _ground_guard(item.guard_lo, env),
            _ground_guard(item.guard_hi, env),
        )
        return atom, evaluate_annotation(ann, env)
    raise AssertionError(f"unexpected body item {item!r}")


def _ground_builtins(rule: Rule, env: Env) -> tuple[BodyLiteral, ...] | None:
    """The rule's builtin comparisons under env, or None when one fails."""
    out: list[BodyLiteral] = []
    for item, ann in rule.pos_body:
        if isinstance(item, BuiltinComparison):
            left = substitute_term(item.left, env)
            right = substitute_term(item.right, env)
            if left is None or right is None:
                return None
            comparison = BuiltinComparison(left, item.op, right)
            if not comparison.holds():
                return None
            out.append((comparison, ann))
    return tuple(out)


def _ground_head(rule: Rule, env: Env, index: AtomIndex) -> tuple[HeadLiteral, ...] | None:
    """The rule's head under env, each atom added to the index, or None
    when a builtin comparison fails or a head atom does not ground: a head
    is derived whole or not at all."""
    if _ground_builtins(rule, env) is None:
        return None
    grounded = []
    for atom, ann in rule.head:
        args = _ground_args(atom, env)
        if args is None:
            return None
        grounded.append((atom.predicate, args, evaluate_annotation(ann, env)))
    return tuple((index.add(predicate, args, value), value) for predicate, args, value in grounded)


def _ground_body(
    body: tuple[BodyLiteral, ...],
    env: Env,
    index: AtomIndex,
    universe: tuple[Term, ...],
    budget: _Budget,
) -> tuple[BodyLiteral, ...] | None:
    """The body's literals under env, less its builtin comparisons, or None
    when one does not ground."""
    out = []
    for item, ann in body:
        if isinstance(item, BuiltinComparison):
            continue
        lit = _ground_literal(item, ann, env, index, universe, budget)
        if lit is None:
            return None
        out.append(lit)
    return tuple(out)


def ground_rule(
    rule: Rule,
    instances: list[tuple[Env, tuple[HeadLiteral, ...]]],
    index: AtomIndex,
    universe: tuple[Term, ...],
    budget: _Budget,
) -> list[Rule]:
    """Ground the bodies of the rule's instances, each a binding and the
    head it grounds. A ground body is as normal as the rule's, whose
    annotations it evaluates, so the ground rules are built as they are."""
    out: list[Rule] = []
    for env, head in instances:
        pos = _ground_body(rule.pos_body, env, index, universe, budget)
        if pos is None:
            continue
        neg = _ground_body(rule.neg_body, env, index, universe, budget)
        if neg is None:
            continue
        if not (head or pos or neg):
            # a constraint on comparisons alone keeps them, so that it stays
            # a rule whose body always holds
            pos = _ground_builtins(rule, env)
        out.append(Rule.from_normal(head, pos, neg))
    return out


# -- the ground program ----------------------------------------------------------


@dataclass
class GroundProgram(Program):
    """A fully ground program; every rule is variable-free."""

    # the program a reduct was made from, whose formula scope and value
    # lattice it shares; None for a program ground from rules
    source: GroundProgram | None = field(default=None, compare=False, repr=False)

    def strategy_for(self, predicate: str) -> PStrategy:
        return self.registry.get_kind(self.tau_name(predicate), DISJUNCTIVE)

    def formula_strategy(self, formula: HybridFormula) -> PStrategy | None:
        if formula.is_atomic:
            return None
        kind = CONJUNCTIVE if formula.connective == "and" else DISJUNCTIVE
        return self.registry.get_kind(formula.strategy, kind)

    @cached_property
    def relevant_formulae(self) -> tuple[HybridFormula, ...]:
        """Every formula whose value an interpretation of this program can
        constrain: head atoms, body formulae and their component atoms, and
        formulae inside aggregate pair conditions; a reduct's source's.
        An atom's formula is the one the rules hold, if any does, so a
        ground program's scope shares the grounder's objects."""
        if self.source is not None:
            return self.source.relevant_formulae
        atomic: dict[Atom, HybridFormula] = {}
        compounds: set[HybridFormula] = set()
        # atoms that need a formula of their own where no rule holds one
        bare: list[Atom] = []

        def add_formula(f: HybridFormula) -> None:
            if f.is_atomic:
                atomic.setdefault(f.atoms[0], f)
            else:
                compounds.add(f)
                bare.extend(f.atoms)

        for rule in self.rules:
            bare.extend(atom for atom, _ in rule.head)
            for item, _ in rule.pos_body + rule.neg_body:
                if isinstance(item, HybridFormula):
                    add_formula(item)
                elif isinstance(item, AggregateAtom):
                    for pair in item.pset.pairs:
                        for formula, _ in pair.condition:
                            add_formula(formula)
        for atom in bare:
            if atom not in atomic:
                atomic[atom] = HybridFormula.atomic(atom)
        return tuple(sorted([*atomic.values(), *compounds], key=str))

    def value_lattice(self) -> _ValueLattice:
        """Per formula, every value an answer set could assign it, sorted
        ascending by (lo, hi), with the tables that judge interpretations
        over them (_lattice._ValueLattice). Computed once per program and
        shared read-only between callers; a reduct returns its source's."""
        return (self.source or self)._lattice

    @cached_property
    def _lattice(self) -> _ValueLattice:
        return _ValueLattice(self)


def ground_program(program: Program, max_rules: int = 100_000) -> GroundProgram:
    """Ground every rule, or raise UniverseOverflow past max_rules ground
    rules or derivable-atom index entries."""
    per_rule = [_RuleInstances(rule) for rule in program.rules]
    universe = collect_universe(program) if any(r.plan.enumerates for r in per_rule) else ()
    index = AtomIndex(max_rules)
    budget = _Budget(max(max_rules * 50, 1_000_000), "grounding work")
    size = -1
    while index.size != size:
        size = index.size
        for instances in per_rule:
            instances.update(index, universe, budget)

    # every rule was last bound against an index whose entries for the
    # predicates it reads are final, so its instances are the ones a pass
    # over the final index makes, in the same order: the ground program
    rules: dict[Rule, None] = {}
    for instances in per_rule:
        for ground in ground_rule(instances.plan.rule, instances.made, index, universe, budget):
            rules.setdefault(ground)
            if len(rules) > max_rules:
                raise UniverseOverflow(f"ground program exceeded {max_rules} rules")
    return GroundProgram(
        rules=list(rules),
        tau=dict(program.tau),
        default_tau=program.default_tau,
        registry=program.registry if program.registry is not None else builtin_registry(),
    )
