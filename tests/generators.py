"""Random program builders and brute-force references for differential tests.

The solver is checked against two independent computations: a full product
enumeration over the derivable-value lattice (probability side) and an
exhaustive classical oracle (translation side).  Both are deliberately
naive; they only need to be obviously correct at toy scale.  The product
enumeration judges p-models with reference_satisfies_program, written off
the definition over PInterpretation lookups, not with the solver's check.

The probes at the end go the other way: they judge one literal, or select
one aggregate's pairs, through the solver's own check, for tests that pin
its answers on hand-made interpretations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from dhpp import (
    ONE,
    UNDEFINED,
    AggregateAtom,
    Atom,
    ClassicalAggregate,
    ClassicalProgram,
    ClassicalRule,
    EValue,
    GroundSet,
    HybridFormula,
    PInterpretation,
    ProbInterval,
    Program,
    Rule,
    ValueInterval,
    ZERO,
    builtin_registry,
    compose_fold,
    eval_aggregate,
    ground_program,
    interp_lt,
    parse_program,
    reduct,
    truth_leq,
)
from dhpp import grounder
from dhpp.grounder import GroundProgram
from dhpp.model import AGG_FUNCS, COMPARATORS, P_FUNCS, BuiltinComparison, interval_compare, Num
from dhpp.semantics import SatisfactionReport, build_multiset, satisfies_program
from dhpp.strategies import DISJUNCTIVE

# a three-layer DAG with the two path rules of the benchmark's reach workload;
# edges below 0.5 do not fire the recursive rule
PATH_PROGRAM = (
    "edge(a1,b1) : 0.5. edge(a1,b2) : 0.3. edge(a2,b2) : 0.7. edge(a2,b3) : 0.5.\n"
    "edge(a3,b3). edge(b1,c1) : 0.5. edge(b2,c1) : 0.5. edge(b2,c3) : 0.4.\n"
    "edge(b3,c2) : 0.9. edge(b3,c3) : 0.5.\n"
    "path(X,Y) :- edge(X,Y) : 0.5.\n"
    "path(X,Z) :- path(X,Y), edge(Y,Z) : 0.5.\n"
)

ANNOTATIONS = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)]
GRID = [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)]


def point(q) -> ProbInterval:
    return ProbInterval(q, q)


def random_interval(rng: random.Random) -> ProbInterval:
    lo, hi = sorted(rng.choices(GRID, k=2))
    return ProbInterval(lo, hi)


def random_leq_interpretations(
    rng: random.Random, formulae
) -> tuple[PInterpretation, PInterpretation]:
    """Two interpretations with h1 <=t h2 pointwise over the given formulae."""
    low, high = [], []
    for f in formulae:
        a = rng.choice(GRID)
        b = rng.choice([g for g in GRID if g >= a])
        c = rng.choice([g for g in GRID if g >= a])
        d = rng.choice([g for g in GRID if g >= max(b, c)])
        low.append((f, ProbInterval(a, b)))
        high.append((f, ProbInterval(c, d)))
    return PInterpretation.from_pairs(low), PInterpretation.from_pairs(high)


# ---------------------------------------------------------------------------
# Probability programs


def random_probability_program(
    rng: random.Random, max_atoms: int = 5, max_rules: int = 6
) -> GroundProgram:
    atoms = [Atom(name) for name in "abcde"[: rng.randint(1, max_atoms)]]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        width = 2 if len(atoms) > 1 and rng.random() < 0.3 else 1
        head = tuple(
            (a, point(rng.choice(ANNOTATIONS))) for a in rng.sample(atoms, width)
        )
        pos, neg = [], []
        for _ in range(rng.randint(0, 2)):
            literal = (
                HybridFormula.atomic(rng.choice(atoms)),
                point(rng.choice(ANNOTATIONS)),
            )
            (neg if rng.random() < 0.4 else pos).append(literal)
        rules.append(Rule(head, tuple(pos), tuple(neg)))
    default = "ind" if rng.random() < 0.2 else "pcd"
    program = Program(
        rules=rules, tau={}, default_tau=default, registry=builtin_registry()
    )
    return ground_program(program)


NUMERALS = ["0.3", "0.5", "0.7", "1"]


def random_aggregate_program(rng: random.Random, max_rules: int = 3) -> GroundProgram:
    """Rules over a, b, c whose bodies mix atoms, `x and[pcc] y`,
    `x or[ind] y`, sumP and countE literals, each negated or not; one rule
    with a body in five has no head."""

    def formula() -> str:
        x, y = rng.sample("abc", 2)
        return rng.choice([x, f"{x} and[pcc] {y}", f"{x} or[ind] {y}"])

    def aggregate() -> str:
        pairs = ", ".join(
            f"<{rng.randint(1, 2)} : {rng.choice(NUMERALS)} | {formula()} : {rng.choice(NUMERALS)}>"
            for _ in range(rng.randint(1, 2))
        )
        func = rng.choice(["sumP", "countE"])
        literal = f"{func}{{{pairs}}} {rng.choice(['>=', '<'])} {rng.randint(1, 2)}"
        return literal + (f" : {rng.choice(NUMERALS)}" if func == "sumP" else "")

    lines = []
    for _ in range(rng.randint(1, max_rules)):
        body = [
            ("not " if rng.random() < 0.4 else "")
            + (aggregate() if rng.random() < 0.4 else f"{formula()} : {rng.choice(NUMERALS)}")
            for _ in range(rng.randint(0, 2))
        ]
        if body and rng.random() < 0.2:
            head = ""
        else:
            head = " | ".join(
                f"{a} : {rng.choice(NUMERALS)}" for a in rng.sample("abc", rng.randint(1, 2))
            )
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return ground_program(parse_program("\n".join(lines)))


def random_recursive_aggregate_program(rng: random.Random, max_rules: int = 3) -> GroundProgram:
    """Rules over a, b, c, each with a head and an aggregate in its body
    whose first pair's condition is the rule's own first head atom, so every
    aggregate is recursive, plus at most one more literal, an atom or
    another aggregate, either negated or not; and a fact at times. The
    aggregates draw from all eleven functions, every comparator and bounds
    -1..2, over one to three pairs valued -1, 1 or 2 whose conditions, an
    atom or `x and[pcc] y`, can all fail, so min and max meet empty
    selections."""

    def aggregate(own: str) -> str:
        pairs = []
        for n in range(rng.randint(1, 3)):
            x, y = rng.sample("abc", 2)
            condition = own if n == 0 else rng.choice([x, x, f"{x} and[pcc] {y}"])
            pairs.append(
                f"<{rng.choice(['-1', '1', '2'])} : {rng.choice(NUMERALS)} | "
                f"{condition} : {rng.choice(NUMERALS)}>"
            )
        func = rng.choice(AGG_FUNCS)
        literal = f"{func}{{{', '.join(pairs)}}} {rng.choice(COMPARATORS)} {rng.randint(-1, 2)}"
        return literal + (f" : {rng.choice(NUMERALS)}" if func in P_FUNCS else "")

    lines = []
    if rng.random() < 0.5:
        lines.append(f"{rng.choice('abc')} : {rng.choice(NUMERALS)}.")
    for _ in range(rng.randint(1, max_rules)):
        heads = rng.sample("abc", rng.randint(1, 2))
        body = [aggregate(heads[0])]
        roll = rng.random()
        if roll < 0.3:
            body.append(aggregate(rng.choice("abc")))
        elif roll < 0.6:
            body.append(f"{rng.choice('abc')} : {rng.choice(NUMERALS)}")
        body = [("not " if rng.random() < 0.3 else "") + literal for literal in body]
        head = " | ".join(f"{a} : {rng.choice(NUMERALS)}" for a in heads)
        lines.append(f"{head} :- {', '.join(body)}.")
    return ground_program(parse_program("\n".join(lines)))


# ---------------------------------------------------------------------------
# The p-model check over PInterpretation lookups


def reference_literal(h: PInterpretation, item, ann: ProbInterval, positive: bool) -> bool:
    """Whether h satisfies item:ann, or its negation unless positive, read
    off the definition through PInterpretation.value: an aggregate
    evaluates the pairs whose every condition h satisfies."""
    if isinstance(item, HybridFormula):
        sat = truth_leq(ann, h.value(item))
    elif isinstance(item, AggregateAtom):
        selected = [
            (pair.value, pair.prob)
            for pair in item.pset.pairs
            if all(truth_leq(c, h.value(f)) for f, c in pair.condition)
        ]
        result = eval_aggregate(item.func, selected)
        guard = item.guard_interval()
        if result is UNDEFINED:
            sat = False
        elif isinstance(result, EValue):
            sat = interval_compare(result.value, item.cmp, guard)
        else:
            sat = interval_compare(
                ValueInterval.point(result.value), item.cmp, guard
            ) and truth_leq(ann, result.prob)
    else:
        sat = item.holds()
    return sat == positive


def satisfies_body(h: PInterpretation, rule: Rule) -> bool:
    """Whether h satisfies every body literal of rule."""
    return all(reference_literal(h, item, ann, True) for item, ann in rule.pos_body) and all(
        reference_literal(h, item, ann, False) for item, ann in rule.neg_body
    )


def reference_satisfies_program(gp: GroundProgram, h: PInterpretation) -> SatisfactionReport:
    """The p-model check read straight off the definition, through
    PInterpretation lookups, truth_leq and compose_fold, with the same
    report as semantics.satisfies_program: every rule's verdict, the fired
    rules, and the first failure (a failed rule in program order, else the
    first over-folded atom by printed text, else the first compound, in
    scope order, whose composition exceeds its value)."""
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
            failure = ("rule", rule, None, None)
    if failure is None:
        for atom, anns in contributions.items():
            folded = compose_fold(gp.strategy_for(atom.predicate), anns)
            assigned = values.get(atom, ZERO)
            if not truth_leq(folded, assigned) and (
                failure is None or str(atom) < str(failure[1])
            ):
                failure = ("fold", atom, folded, assigned)
    if failure is None:
        for formula in gp.relevant_formulae:
            if formula.is_atomic:
                continue
            composed = compose_fold(
                gp.formula_strategy(formula), [values.get(a, ZERO) for a in formula.atoms]
            )
            assigned = h.value(formula)
            if not truth_leq(composed, assigned):
                failure = ("composition", formula, composed, assigned)
                break
    return SatisfactionReport(tuple(verdicts), tuple(fired), failure)


def brute_force_answer_sets(
    gp: GroundProgram, cap: int = 30_000
) -> list[PInterpretation] | None:
    """Definition-level enumeration; None when the lattice product is too big."""
    lattice = gp.value_lattice()
    formulae = list(gp.relevant_formulae)
    domains = [lattice[f] for f in formulae]
    total = prod(len(d) for d in domains)
    if total > cap:
        return None

    combos = [
        PInterpretation.from_pairs(zip(formulae, values))
        for values in itertools.product(*domains)
    ]
    models = [h for h in combos if reference_satisfies_program(gp, h).satisfied]

    answer_sets = []
    for h in models:
        red = reduct(gp, reference_satisfies_program(gp, h))
        below = [
            [v for v in dom if truth_leq(v, h.value(f))]
            for f, dom in zip(formulae, domains)
        ]
        minimal = True
        for values in itertools.product(*below):
            smaller = PInterpretation.from_pairs(zip(formulae, values))
            if interp_lt(smaller, h) and reference_satisfies_program(red, smaller).satisfied:
                minimal = False
                break
        if minimal:
            answer_sets.append(h)
    answer_sets.sort(key=str)
    return answer_sets


def original_dhpp_answer_sets(
    gp: GroundProgram, cap: int = 30_000
) -> list[PInterpretation] | None:
    """Answer sets under the original DHPP semantics, for programs without
    aggregates: the p-models h of the lattice product with no p-model
    strictly below h of h's reduct, which drops every rule with a `not F:mu`
    that h satisfies and deletes the `not` literals of the rest. The reduct
    is built here, not by semantics.reduct. None when the product is too big."""
    lattice = gp.value_lattice()
    formulae = list(gp.relevant_formulae)
    domains = [lattice[f] for f in formulae]
    if prod(len(d) for d in domains) > cap:
        return None
    answer_sets = []
    for values in itertools.product(*domains):
        h = PInterpretation.from_pairs(zip(formulae, values))
        if not reference_satisfies_program(gp, h).satisfied:
            continue
        kept = [
            Rule(rule.head, rule.pos_body, ())
            for rule in gp.rules
            if not any(truth_leq(ann, h.value(f)) for f, ann in rule.neg_body)
        ]
        red = GroundProgram(
            rules=kept, tau=gp.tau, default_tau=gp.default_tau, registry=gp.registry
        )
        below = [
            [v for v in dom if truth_leq(v, h.value(f))]
            for f, dom in zip(formulae, domains)
        ]
        smaller = (
            PInterpretation.from_pairs(zip(formulae, vs)) for vs in itertools.product(*below)
        )
        if not any(interp_lt(s, h) and reference_satisfies_program(red, s).satisfied for s in smaller):
            answer_sets.append(h)
    answer_sets.sort(key=str)
    return answer_sets


def reference_candidate(keys: list, gp: GroundProgram, index: int) -> tuple[dict, dict]:
    """The guesses and disjunct choices of a candidate index: in mixed
    radix, most significant digit first, one binary digit per guess key,
    then one digit per disjunctive rule naming its chosen disjunct."""
    disjunctive = [(i, len(rule.head)) for i, rule in enumerate(gp.rules) if len(rule.head) > 1]
    radices = [2] * len(keys) + [n for _, n in disjunctive]
    digits = []
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    digits.reverse()
    guesses = {key: bool(d) for key, d in zip(keys, digits)}
    choices = {i: c for (i, _), c in zip(disjunctive, digits[len(keys):])}
    return guesses, choices


def _reference_body_fires(rule, values, guesses) -> bool:
    # aggregates and negated literals read their guessed final truth
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


def reference_closure(gp: GroundProgram, guesses: dict, choices: dict) -> PInterpretation:
    """The closure of a candidate over interpretations, round by round: every
    rule with a head whose body fires contributes its chosen disjunct, and
    any other disjunct the current values satisfy; atoms fold their
    contributions, compounds compose their components."""
    atomics = {f.atoms[0]: f for f in gp.relevant_formulae if f.is_atomic}
    compounds = [f for f in gp.relevant_formulae if not f.is_atomic]
    values = {f: ZERO for f in gp.relevant_formulae}
    contributions: set[tuple[int, int]] = set()
    total_disjuncts = sum(len(rule.head) for rule in gp.rules)

    for _ in range(total_disjuncts + 2):
        new = set(contributions)
        for i, rule in enumerate(gp.rules):
            if not rule.head or not _reference_body_fires(rule, values, guesses):
                continue
            chosen = choices.get(i, 0)
            new.add((i, chosen))
            for j, (atom, ann) in enumerate(rule.head):
                if j != chosen and truth_leq(ann, values[atomics[atom]]):
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
            values[formula] = compose_fold(gp.strategy_for(atom.predicate), anns) if anns else ZERO
        for formula in compounds:
            component = [values[atomics[a]] for a in formula.atoms]
            values[formula] = compose_fold(gp.formula_strategy(formula), component)
    return PInterpretation.from_pairs(values.items())


def definite_fixpoint(gp: GroundProgram) -> PInterpretation:
    """Bottom-up least model of a ground program with plain positive bodies,
    single-atom heads, and no aggregates."""
    atoms = sorted(
        {f.atoms[0] for f in gp.relevant_formulae if f.is_atomic}, key=str
    )
    values = {a: ProbInterval(0, 0) for a in atoms}
    for _ in range(len(gp.rules) + 2):
        fired: dict[Atom, list[ProbInterval]] = {a: [] for a in atoms}
        for rule in gp.rules:
            assert not rule.neg_body, "definite programs only"
            body_ok = all(
                truth_leq(ann, values[item.atoms[0]]) for item, ann in rule.pos_body
            )
            if body_ok:
                assert len(rule.head) == 1, "definite programs only"
                atom, ann = rule.head[0]
                fired[atom].append(ann)
        new_values = {}
        for atom in atoms:
            strat = gp.strategy_for(atom.predicate)
            folded = None
            for ann in fired[atom]:
                folded = ann if folded is None else strat.compose(folded, ann)
            new_values[atom] = folded if folded is not None else ProbInterval(0, 0)
        if new_values == values:
            break
        values = new_values
    return PInterpretation.from_pairs(
        (HybridFormula.atomic(a), v) for a, v in values.items()
    )


def random_definite_program(rng: random.Random, max_atoms: int = 5) -> GroundProgram:
    atoms = [Atom(name) for name in "abcde"[: rng.randint(1, max_atoms)]]
    rules = []
    for _ in range(rng.randint(1, 6)):
        head = ((rng.choice(atoms), point(rng.choice(ANNOTATIONS))),)
        pos = tuple(
            (HybridFormula.atomic(rng.choice(atoms)), point(rng.choice(ANNOTATIONS)))
            for _ in range(rng.randint(0, 2))
        )
        rules.append(Rule(head, pos, ()))
    program = Program(
        rules=rules, tau={}, default_tau="pcd", registry=builtin_registry()
    )
    return ground_program(program)


# ---------------------------------------------------------------------------
# Non-ground programs and a naive grounder
#
# A rule is (head, pos, neg, comparisons): tuples of atoms (predicate, args)
# and of `left != right` pairs, where an argument starting with a capital is
# a variable and any other a constant.


def random_nonground_program(rng: random.Random) -> list[tuple]:
    """Facts and safe rules over p, q, r, s of arity 1-2 and one to three
    constants, with disjunctive heads, constraints, `not` literals and
    `X != Y` (W occurs in comparisons only); no aggregates or arithmetic."""
    constants = ["a", "b", "c"][: rng.randint(1, 3)]
    arity = {pred: rng.randint(1, 2) for pred in "pqrs"}

    def atom(args: list[str]) -> tuple:
        pred = rng.choice("pqrs")
        return pred, tuple(rng.choice(args) for _ in range(arity[pred]))

    rules = [((atom(constants),), (), (), ()) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 4)):
        pos = tuple(atom(["X", "Y", "Z", constants[0]]) for _ in range(rng.randint(1, 2)))
        bound = sorted({t for _, args in pos for t in args if t[0].isupper()}) + constants
        head = tuple(atom(bound) for _ in range(rng.choice([0, 1, 1, 2])))
        neg = tuple(atom(bound) for _ in range(rng.randint(0, 1)))
        comparisons = tuple(
            (rng.choice(bound), rng.choice(bound + ["W"])) for _ in range(rng.randint(0, 1))
        )
        rules.append((head, pos, neg, comparisons))
    return rules


def _rule_terms(rule: tuple) -> set[str]:
    head, pos, neg, comparisons = rule
    return {t for _, args in head + pos + neg for t in args} | {t for pair in comparisons for t in pair}


def _atom_text(atom: tuple, env: dict[str, str]) -> str:
    pred, args = atom
    return f"{pred}({','.join(env.get(t, t) for t in args)})"


def rule_text(rule: tuple, env: dict[str, str] | None = None, comparisons: bool = True) -> str:
    """The rule as the parser reads it and a ground program prints it."""
    env = env or {}
    head, pos, neg, pairs = rule
    body = [_atom_text(a, env) for a in pos]
    if comparisons:
        body += [f"{env.get(x, x)} != {env.get(y, y)}" for x, y in pairs]
    body += ["not " + _atom_text(a, env) for a in neg]
    heads = " | ".join(_atom_text(a, env) for a in head)
    if not body:
        return f"{heads}."
    return f"{heads} :- {', '.join(body)}." if heads else f":- {', '.join(body)}."


def naive_ground(rules: list[tuple]) -> set[str]:
    """Every rule under every substitution of the program's constants for its
    variables, kept when its comparisons hold and its positive atoms are in
    the least fixpoint of derivable head atoms; printed without comparisons."""
    constants = sorted({t for rule in rules for t in _rule_terms(rule) if not t[0].isupper()})
    instances = []
    for rule in rules:
        names = sorted(t for t in _rule_terms(rule) if t[0].isupper())
        for combo in itertools.product(constants, repeat=len(names)):
            env = dict(zip(names, combo))
            if all(env.get(x, x) != env.get(y, y) for x, y in rule[3]):
                head = {_atom_text(a, env) for a in rule[0]}
                pos = {_atom_text(a, env) for a in rule[1]}
                instances.append((head, pos, rule_text(rule, env, comparisons=False)))
    derivable: set[str] = set()
    while True:
        grown = derivable | {a for head, pos, _ in instances if pos <= derivable for a in head}
        if grown == derivable:
            return {text for _, pos, text in instances if pos <= derivable}
        derivable = grown


def pass_by_pass_ground(program: Program, max_rules: int = 100_000) -> GroundProgram:
    """The ground program of the grounder's index fixpoint run pass by
    pass: each pass binds every rule against the index and grounds the head
    of every binding, until a pass adds nothing; that pass's instances, in
    rule order, are instantiated. Built from the grounder's own
    rule_bindings, _ground_head and ground_rule, so it differs from
    ground_program only in the work ground_program skips."""
    universe = grounder.collect_universe(program)
    index = grounder.AtomIndex(max_rules)
    budget = grounder._Budget(max(max_rules * 50, 1_000_000), "grounding work")
    size = -1
    while index.size != size:
        size = index.size
        instances = []
        for rule in program.rules:
            made = []
            for env in grounder.rule_bindings(grounder._join_plan(rule), index, universe, budget, 0):
                head = grounder._ground_head(rule, env, index)
                if head is not None:
                    made.append((env, head))
            instances.append(made)
    rules: dict[Rule, None] = {}
    for rule, made in zip(program.rules, instances):
        for ground in grounder.ground_rule(rule, made, index, universe, budget):
            rules.setdefault(ground)
    return GroundProgram(
        rules=list(rules),
        tau=dict(program.tau),
        default_tau=program.default_tau,
        registry=program.registry,
    )


def lean_registry():
    """The built-in strategies and lean, a disjunctive one that adds 1/8
    to the larger end where its left operand's is the larger (capped at
    1): it never lowers a fold, but its fold of a multiset depends on the
    order of the operands, which a registered strategy's must not."""

    def lean(x, y):
        def end(a, b):
            return min(max(a, b) + (Fraction(1, 8) if a > b else 0), 1)

        return ProbInterval(end(x.lo, y.lo), end(x.hi, y.hi))

    registry = builtin_registry()
    registry.register("lean", DISJUNCTIVE, lean)
    return registry


# p's lattice folds 0.2 then 0.4; the closure derives 0.4 first
LEAN_PROGRAM = "#tau(p, lean). p : 0.2 :- q. p : 0.4 :- r. r : 1. q : 1 :- p : 0.4."


def random_annotated_program(rng: random.Random) -> list[str]:
    """The lines of a program over p, q, r, s of arity 1 and constants a, b,
    c: facts, some of one atom at several values, and rules whose bodies mix
    literals annotated `:P` or `[P1,P2]` (which bind every value of an
    atom, and pass it to the head), joins, compound conjuncts, vacuous
    `[0,0]` literals, symbolic-set aggregates, `not` and `X != Y`."""
    preds = "pqrs"
    values = ["0.3", "0.5", "[0.2,0.6]", "1"]
    lines = [
        f"{rng.choice(preds)}({rng.choice('abc')}) : {rng.choice(values)}."
        for _ in range(rng.randint(2, 6))
    ]
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.4:
            body, head_ann = [f"{rng.choice(preds)}(X) : P"], "P"
        elif roll < 0.6:
            body, head_ann = [f"{rng.choice(preds)}(X) : [P1,P2]"], "[P1,P2]"
        else:
            body, head_ann = [f"{rng.choice(preds)}(X) : {rng.choice(values)}"], rng.choice(values)
        bound = ["X"]
        for _ in range(rng.randint(0, 2)):
            x, y = rng.sample(preds, 2)
            roll = rng.random()
            if roll < 0.3:
                body.append(f"{x}(Y)")
                bound.append("Y")
            elif roll < 0.45:
                body.append(f"{x}(X) and[pcc] {y}(Y) : 0.5")
                bound.append("Y")
            elif roll < 0.6:
                body.append(f"{x}(Y) : 0")
                bound.append("Y")
            elif roll < 0.75:
                body.append(f"sumP{{1 : P3 | {x}(Z) : P3}} >= {rng.choice(['0', '1'])} : 0.5")
            elif roll < 0.9:
                body.append(f"not {x}({rng.choice(bound)})")
            else:
                body.append(f"X != {rng.choice(['Y', 'W', 'a'])}")
        head = " | ".join(
            f"{rng.choice(preds)}({rng.choice(bound)}) : {head_ann}"
            for _ in range(rng.choice([0, 1, 1, 1, 2]))
        )
        lines.append(f"{head} :- {', '.join(body)}.")
    return lines


# ---------------------------------------------------------------------------
# Classical programs


def random_classical_program(
    rng: random.Random, max_atoms: int = 6, max_rules: int = 8
) -> ClassicalProgram:
    atoms = [Atom(name) for name in "abcdef"[: rng.randint(1, max_atoms)]]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        roll = rng.random()
        if roll < 0.1:
            head: tuple[Atom, ...] = ()
        elif roll < 0.6 or len(atoms) == 1:
            head = (rng.choice(atoms),)
        else:
            head = tuple(rng.sample(atoms, 2))
        pos, neg = [], []
        for _ in range(rng.randint(0, 3)):
            (neg if rng.random() < 0.4 else pos).append(rng.choice(atoms))
        if not head and not (pos or neg):
            continue  # bare falsum helps nothing
        rules.append(ClassicalRule(head, tuple(pos), tuple(neg)))
    if not rules:
        rules.append(ClassicalRule((atoms[0],), (), ()))
    return ClassicalProgram(rules)


def random_classical_aggregate_program(rng: random.Random) -> ClassicalProgram:
    """2-4 atoms and 1-4 rules with heads of 0-2 atoms; bodies of 0-2 items,
    each an atom, a `not` atom, or a count/sum/min/max/times aggregate over
    program atoms (so often recursive, and nonmonotone), with weights -1, 1
    or 2, any comparator and a bound in -1..2."""
    atoms = [Atom(name) for name in "abcd"[: rng.randint(2, 4)]]
    rules = []
    for _ in range(rng.randint(1, 4)):
        head = tuple(rng.sample(atoms, rng.randint(0, 2)))
        pos, neg = [], []
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.3:
                pos.append(rng.choice(atoms))
            elif roll < 0.5:
                neg.append(rng.choice(atoms))
            else:
                members = tuple(
                    (Num(rng.choice([-1, 1, 2])), atom)
                    for atom in rng.sample(atoms, rng.randint(1, len(atoms)))
                )
                pos.append(
                    ClassicalAggregate(
                        rng.choice(["count", "sum", "min", "max", "times"]),
                        members,
                        rng.choice(COMPARATORS),
                        Fraction(rng.randint(-1, 2)),
                    )
                )
        if head or pos or neg:
            rules.append(ClassicalRule(head, tuple(pos), tuple(neg)))
    if not rules:
        rules.append(ClassicalRule((atoms[0],), (), ()))
    return ClassicalProgram(rules)


# ---------------------------------------------------------------------------
# The value lattice's atom rows and a point's rule forms as first built


def reference_atom_lattices(gp: GroundProgram) -> tuple[list, list, tuple | None]:
    """Each atom's values and fold table, in the value lattice's atom
    order, and the lattice's non_expansive, built as the lattice first
    built them: per atom from its own head annotations, composing every
    pair afresh and folding in every annotation, with atoms sharing a row
    only when their annotations are the same objects."""
    atoms = [f for f in gp.relevant_formulae if f.is_atomic]
    occurrences: dict[Atom, list[ProbInterval]] = {}
    for rule in gp.rules:
        for atom, ann in rule.head:
            occurrences.setdefault(atom, []).append(ann)
    offences: dict[Atom, tuple] = {}
    shared: dict[tuple, tuple] = {}
    rows, folds = [], []
    for formula in atoms:
        atom = formula.atoms[0]
        strat = gp.strategy_for(atom.predicate)
        anns = occurrences.get(atom, ())
        key = (strat.name, *map(id, anns))
        if key not in shared:
            shared[key] = _reference_atom_lattice(strat, anns)
        values, table, offence = shared[key]
        rows.append(values)
        folds.append(table)
        if offence is not None:
            offences[atom] = (strat.name, formula, *offence)
    heads = (atom for rule in reversed(gp.rules) for atom, _ in rule.head)
    return rows, folds, next((offences[atom] for atom in heads if atom in offences), None)


def _reference_atom_lattice(strategy, anns: list[ProbInterval]) -> tuple:
    acc: set[ProbInterval] = set()
    for ann in anns:
        acc |= {ann} | {strategy.compose(v, ann) for v in acc}
    acc.add(ZERO)
    values = tuple(sorted(acc, key=lambda v: (v.lo, v.hi)))
    if len(anns) < 2:
        return values, None, None
    rank = {v: r for r, v in enumerate(values)}
    columns = sorted({rank[ann] for ann in anns})
    table, offence = {}, None
    for r in range(0 if columns[0] == 0 else 1, len(values)):
        for a in columns:
            v, ann = values[r], values[a]
            out = strategy.compose(v, ann)
            if offence is None and not (truth_leq(v, out) and truth_leq(ann, out)):
                offence = (v, ann, out)
            if out in rank:
                table[r, a] = rank[out]
    return values, table, offence


def reference_point_forms(point, rules: list[Rule]) -> tuple[list, list]:
    """The forms of rules at a point, as the point first made them: every
    rule walked afresh, each mask made by the lattice's satisfying, with
    the bit of an atom's own value off the lattice set where the literal
    holds at that value."""
    lattice = point.lattice
    position = lattice.position

    def literal(k: int, ann: ProbInterval, positive: bool) -> tuple[int, int]:
        mask = lattice.satisfying(k, ann)
        if k in point.extra and truth_leq(ann, point.extra[k]):
            mask |= 1 << len(lattice.atom_values[k])
        return k, mask if positive else ~mask

    bodies, heads = [], []
    for rule in rules:
        literals = []
        for body, positive in ((rule.pos_body, True), (rule.neg_body, False)):
            for item, ann in body:
                if isinstance(item, HybridFormula) and item.is_atomic:
                    literals.append(literal(position[item.atoms[0]], ann, positive))
                elif isinstance(item, AggregateAtom):
                    conditions = []
                    for pair in item.pset.pairs:
                        condition = tuple(
                            literal(position[f.atoms[0]], c, True) if f.is_atomic else (None, (f, c, True))
                            for f, c in pair.condition
                        )
                        # one atomic formula is its literal; any other, a conjunction
                        one = len(condition) == 1 and condition[0][0] is not None
                        conditions.append(condition[0] if one else (None, condition))
                    literals.append((None, (item, ann, positive, tuple(conditions))))
                else:
                    literals.append((None, (item, ann, positive)))
        bodies.append(tuple(literals))
        heads.append(tuple(
            (*literal(position[atom], ann, True), lattice.atom_values[position[atom]].index(ann), ann)
            for atom, ann in rule.head
        ))
    return bodies, heads


# ---------------------------------------------------------------------------
# Probes of the solver's check


def _one_rule_program(rule: Rule) -> GroundProgram:
    return GroundProgram(rules=[rule], registry=builtin_registry())


def check_literal(h: PInterpretation, item, ann: ProbInterval, positive: bool) -> bool:
    """Whether satisfies_program finds h satisfying item:ann, or its negation
    unless positive: whether it fires the one constraint whose body is that
    literal."""
    body = ((item, ann),)
    gp = _one_rule_program(Rule((), body, ()) if positive else Rule((), (), body))
    return satisfies_program(gp, h).fired == tuple(gp.rules)


def check_selection(gset: GroundSet, h: PInterpretation):
    """The multiset build_multiset selects from gset at h, in the numbering
    of a one-rule program that reads the set."""
    item = AggregateAtom("countP", gset, ">=", Num(0), Num(0))
    gp = _one_rule_program(Rule((), ((item, ONE),), ()))
    point = gp.value_lattice().point(h)
    bodies, _ = point.forms(gp.rules)
    ((_, spec),) = bodies[0]
    return build_multiset(gset, spec[3], point.domains, point.compounds.__getitem__)


def search_domains(search) -> dict[HybridFormula, tuple[ProbInterval, ...]]:
    """Each atom's domain in a minimality search's branch, decoded into the
    values it may take."""
    out = {}
    for k, f in enumerate(search.atoms):
        d = search.domains[k]
        out[f] = tuple(v for r, v in enumerate(search.values[k]) if d >> r & 1)
    return out
