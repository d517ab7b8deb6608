import itertools
import random
from fractions import Fraction

import pytest

import dhpp._lattice
import dhpp.semantics
from dhpp import (
    ONE,
    AggregateAtom,
    Atom,
    GroundSet,
    HybridFormula,
    NonExpansiveStrategy,
    PInterpretation,
    ProbInterval,
    ZERO,
    builtin_registry,
    enumerate_answer_sets,
    ground_program,
    is_answer_set,
    parse_program,
    reduct,
    satisfies_program,
    translate_dlp,
    truth_leq,
)
from dhpp.model import Const, Num
from dhpp.semantics import _holds_all
from dhpp.solver import _MinimalitySearch
from dhpp.strategies import compose_fold, DISJUNCTIVE
from generators import (
    PATH_PROGRAM,
    check_literal,
    random_aggregate_program,
    random_classical_program,
    random_interval,
    random_leq_interpretations,
    random_probability_program,
    random_recursive_aggregate_program,
    reference_point_forms,
    reference_satisfies_program,
    satisfies_body,
    search_domains,
)


def iv(lo, hi=None) -> ProbInterval:
    return ProbInterval(Fraction(str(lo)), Fraction(str(hi if hi is not None else lo)))


def dice_atom(x: int, y: int) -> HybridFormula:
    return HybridFormula.atomic(Atom("a", (Num(str(x)), Num(str(y)))))


def dice_interp(*coords) -> PInterpretation:
    return PInterpretation.from_pairs(
        (dice_atom(x, y), iv(p)) for x, y, p in coords
    )


H1 = dice_interp((1, 1, "0.5"), (1, 2, "0.7"))
NOT_P_MODEL = dice_interp((1, 2, "0.7"), (2, 1, "0.5"))


def ground(text: str):
    return ground_program(parse_program(text))


# ---------------------------------------------------------------------------
# Literals


def test_atom_literal_threshold():
    h = dice_interp((1, 2, "0.7"))
    assert check_literal(h, dice_atom(1, 2), iv("0.7"), positive=True)
    low = dice_interp((1, 2, "0.6"))
    assert not check_literal(low, dice_atom(1, 2), iv("0.7"), positive=True)


def test_naf_is_the_exact_complement():
    h = dice_interp((1, 2, "0.7"))
    for ann in (iv("0.5"), iv("0.7"), iv("0.9")):
        pos = check_literal(h, dice_atom(1, 2), ann, positive=True)
        neg = check_literal(h, dice_atom(1, 2), ann, positive=False)
        assert pos != neg


def test_p_aggregate_literal_on_dice(dice_solved):
    gp = dice_solved.ground
    agg = next(
        item
        for rule in gp.rules
        for item, _ in rule.pos_body
        if isinstance(item, AggregateAtom)
    )
    h = NOT_P_MODEL  # selects 1:0.7 and 2:0.5, so x=3 and X=[0.35,0.35]
    assert check_literal(h, agg, iv("0.3"), positive=True)
    assert not check_literal(H1, agg, iv("0.3"), positive=True)  # x=2 < 3


def test_undefined_aggregate_satisfies_naf():
    empty_min = AggregateAtom("minE", GroundSet(()), "<", Num("5"), Num("5"))
    h = PInterpretation()
    assert not check_literal(h, empty_min, ONE, positive=True)
    assert check_literal(h, empty_min, ONE, positive=False)


# ---------------------------------------------------------------------------
# Rules


def test_disjunctive_fact_satisfaction():
    gp = ground_program(parse_program("a:0.5 | b:0.5."))
    h = PInterpretation.from_pairs([(HybridFormula.atomic(Atom("a")), iv("0.5"))])
    assert satisfies_program(gp, h).rule_verdicts == (True,)
    assert satisfies_program(gp, PInterpretation()).rule_verdicts == (False,)


def test_dice_constraint_body_unsatisfied_under_h1(dice_solved):
    constraint = next(r for r in dice_solved.ground.rules if not r.head)
    assert not satisfies_body(H1, constraint)
    verdicts = satisfies_program(dice_solved.ground, H1).rule_verdicts
    assert verdicts[dice_solved.ground.rules.index(constraint)]


# ---------------------------------------------------------------------------
# Programs


def test_dice_p_model(dice_solved):
    assert satisfies_program(dice_solved.ground, H1).satisfied


def test_dice_non_p_model(dice_solved):
    report = satisfies_program(dice_solved.ground, NOT_P_MODEL)
    assert not report.satisfied
    assert report.first_failure is not None


def test_empty_program_satisfied_by_anything():
    gp = ground("")
    assert satisfies_program(gp, PInterpretation()).satisfied
    h = PInterpretation.from_pairs([(HybridFormula.atomic(Atom("x")), iv("0.9"))])
    assert satisfies_program(gp, h).satisfied


def test_report_decomposition(dice_solved):
    gp = dice_solved.ground
    report = satisfies_program(gp, H1)
    assert report.satisfied and report.failure is None and report.first_failure is None
    assert len(report.rule_verdicts) == len(gp.rules) and all(report.rule_verdicts)
    bad = satisfies_program(gp, NOT_P_MODEL)
    # the first failed check is kept as data: here the first unsatisfied rule
    kind, rule, value, assigned = bad.failure
    assert (kind, value, assigned) == ("rule", None, None)
    assert not bad.satisfied
    assert rule is gp.rules[bad.rule_verdicts.index(False)]
    assert bad.first_failure == f"rule not satisfied: {rule}"


def _report(text: str, *values):
    gp = ground(text)
    h = PInterpretation.from_pairs(
        (HybridFormula.atomic(Atom(name)), iv(v)) for name, v in values
    )
    return satisfies_program(gp, h).first_failure


def test_first_failure_order():
    # a is over-folded here; a failing rule is reported before it, though
    # the rule comes last
    over = "#default_tau(ind).\na : 0.5.\na : 0.5 :- t.\nt.\n"
    assert _report(over, ("a", "0.5"), ("t", "1")) == (
        "fold [0.75,0.75] of derived annotations for a exceeds assigned [0.5,0.5]"
    )
    assert _report(over + ":- t.", ("a", "0.5"), ("t", "1")) == "rule not satisfied: :- t."
    # over-folded atoms are reported by printed text, not program order
    both = "#default_tau(ind).\nb : 0.5.\nb : 0.5 :- t.\na : 0.5.\na : 0.5 :- t.\nt."
    assert _report(both, ("a", "0.5"), ("b", "0.5"), ("t", "1")) == (
        "fold [0.75,0.75] of derived annotations for a exceeds assigned [0.5,0.5]"
    )
    # an over-folded atom beats a compound below its composition
    compound = over + "c :- a and[inc] t : 0.2."
    assert _report(compound, ("a", "0.5"), ("t", "1"), ("c", "1")) == (
        "fold [0.75,0.75] of derived annotations for a exceeds assigned [0.5,0.5]"
    )
    assert _report(compound, ("a", "0.75"), ("t", "1"), ("c", "1")) == (
        "composition [0.75,0.75] for a and[inc] t exceeds assigned [0,0]"
    )


def test_three_contributions_fold_through_the_lattice_table(monkeypatch):
    # a takes three contributions under ind, 1 - 0.5^3 = 0.875 above its
    # 0.5; the fold reads the lattice's fold table and composes nothing
    text = "#default_tau(ind).\na : 0.5.\na : 0.5 :- t.\na : 0.5 :- u.\nt.\nu.\n"
    failure = "fold [0.875,0.875] of derived annotations for a exceeds assigned [0.5,0.5]"
    folds = []

    def counting(strategy, intervals):
        folds.append(intervals)
        return compose_fold(strategy, intervals)

    monkeypatch.setattr(dhpp.semantics, "compose_fold", counting)
    assert _report(text, ("a", "0.5"), ("t", "1"), ("u", "1")) == failure
    h = PInterpretation.from_pairs(
        (HybridFormula.atomic(Atom(name)), iv(v)) for name, v in (("a", "0.5"), ("t", "1"), ("u", "1"))
    )
    assert is_answer_set(ground(text), h) == (False, failure)
    assert _report(text, ("a", "0.875"), ("t", "1"), ("u", "1")) is None
    assert folds == []


def test_p_model_check_builds_no_formula_per_lookup(dice_solved, monkeypatch):
    gp = dice_solved.ground
    gp.relevant_formulae  # the cached scope builds its own formulae once
    calls = []
    original = HybridFormula.atomic.__func__

    def counting(cls, atom):
        calls.append(atom)
        return original(cls, atom)

    monkeypatch.setattr(HybridFormula, "atomic", classmethod(counting))
    for h in (H1, NOT_P_MODEL, PInterpretation()):
        satisfies_program(gp, h)
    # the counting patch is in effect: this call is the only one it saw
    assert HybridFormula.atomic(Atom("x")) == original(HybridFormula, Atom("x"))
    assert calls == [Atom("x")]


def test_compound_composition_checked():
    gp = ground("a : 0.5.\nb : 0.4.\nc :- a and[inc] b : 0.2.")
    compound = next(f for f in gp.relevant_formulae if not f.is_atomic)
    a, b = HybridFormula.atomic(Atom("a")), HybridFormula.atomic(Atom("b"))
    c = HybridFormula.atomic(Atom("c"))
    # assigning the compound below the composition of its parts breaks clause 11
    bad = PInterpretation.from_pairs(
        [(a, iv("0.5")), (b, iv("0.4")), (compound, iv("0.1"))]
    )
    assert not satisfies_program(gp, bad).satisfied
    good = PInterpretation.from_pairs(
        [(a, iv("0.5")), (b, iv("0.4")), (compound, iv("0.2")), (c, iv("1"))]
    )
    assert satisfies_program(gp, good).satisfied


def test_a_fold_through_a_rank_without_a_table_row_is_composed(monkeypatch):
    # zero composes everything to [0,0], so p's fold passes through rank 0,
    # which has no row in p's fold table (no annotation of p is ZERO): the
    # check composes that fold itself, and enumeration refuses zero
    registry = builtin_registry()
    registry.register("zero", DISJUNCTIVE, lambda x, y: ZERO)
    gp = ground_program(parse_program("#tau(p, zero). p : 0.3. p : 0.4. p : 0.5.", registry=registry))
    p = HybridFormula.atomic(Atom("p"))
    folds = []

    def counting(strategy, intervals):
        folds.append((strategy.name, intervals))
        return compose_fold(strategy, intervals)

    monkeypatch.setattr(dhpp.semantics, "compose_fold", counting)
    top = PInterpretation.from_pairs([(p, iv("0.5"))])
    assert satisfies_program(gp, top).satisfied
    assert folds == [("zero", [iv("0.3"), iv("0.4"), iv("0.5")])]
    assert is_answer_set(gp, top) == (True, None)
    low = PInterpretation.from_pairs([(p, iv("0.3"))])
    assert is_answer_set(gp, low) == (False, "rule not satisfied: p:0.4.")
    with pytest.raises(NonExpansiveStrategy, match=r"composes \[0.3,0.3\] and \[0.3,0.3\] to \[0,0\]"):
        enumerate_answer_sets(gp)


def test_overderived_atom_rejected():
    gp = ground("a : 0.5.")
    high = PInterpretation.from_pairs([(HybridFormula.atomic(Atom("a")), iv("0.9"))])
    # 0.9 is above the only fold (0.5): clause 9 holds but nothing else forbids it
    report = satisfies_program(gp, high)
    assert report.satisfied  # p-model, just not minimal


def judged_interpretations(gp, rng):
    """The answer sets of gp, points of its lattice product, and
    interpretations that give some formulae, compounds among them, a random
    interval off the lattice."""
    lattice = gp.value_lattice()
    yield from enumerate_answer_sets(gp).interpretations
    for _ in range(3):
        yield PInterpretation.from_pairs((f, rng.choice(lattice[f])) for f in gp.relevant_formulae)
    for _ in range(4):
        yield PInterpretation.from_pairs(
            (f, random_interval(rng) if rng.random() < 0.4 else rng.choice(lattice[f]))
            for f in gp.relevant_formulae
        )


def condition_atoms(gp) -> set[HybridFormula]:
    return {
        HybridFormula.atomic(atom)
        for rule in gp.rules
        for item, _ in rule.pos_body + rule.neg_body
        if isinstance(item, AggregateAtom)
        for pair in item.pset.pairs
        for formula, _ in pair.condition
        for atom in formula.atoms
    }


def test_p_model_check_matches_the_reference():
    # the check over rank masks against the one over PInterpretation
    # lookups: the same verdicts, the same fired rules, the same failure,
    # on programs and on their reducts; some judged interpretations put an
    # aggregate's condition atom or a compound off the lattice
    rng = random.Random(3)
    judged = off_conditions = off_compounds = failures = 0
    for _ in range(100):
        for generator in (
            random_probability_program,
            random_aggregate_program,
            random_recursive_aggregate_program,
        ):
            gp = generator(rng)
            lattice = gp.value_lattice()
            conditions = condition_atoms(gp)
            for h in judged_interpretations(gp, rng):
                want = reference_satisfies_program(gp, h)
                got = satisfies_program(gp, h)
                assert got.rule_verdicts == want.rule_verdicts, (str(gp), str(h))
                assert len(got.fired) == len(want.fired)
                assert all(a is b for a, b in zip(got.fired, want.fired)), (str(gp), str(h))
                assert got.failure == want.failure, (str(gp), str(h))
                red = reduct(gp, want)
                assert satisfies_program(red, h) == reference_satisfies_program(red, h)
                off = {f for f, v in h.entries if v not in lattice[f]}
                off_conditions += bool(off & conditions)
                off_compounds += any(not f.is_atomic for f in off)
                failures += want.failure is not None
                judged += 1
    assert judged > 2000 and failures > 500
    assert off_conditions > 100 and off_compounds > 100


def test_a_point_patches_the_forms_the_reference_walk_makes():
    # masks patched in place on the atoms off the lattice, and every other
    # tuple kept, against every rule walked afresh: for the program's rules
    # and for its reduct's, selected from the patched ones; some points put
    # a condition atom, a negated literal's atom or a compound off the
    # lattice
    rng = random.Random(11)
    judged = patched = off_conditions = off_negated = off_compounds = 0
    for _ in range(100):
        for generator in (
            random_probability_program,
            random_aggregate_program,
            random_recursive_aggregate_program,
        ):
            gp = generator(rng)
            lattice = gp.value_lattice()
            conditions = condition_atoms(gp)
            negated = {
                item for rule in gp.rules for item, _ in rule.neg_body if isinstance(item, HybridFormula)
            }
            for h in judged_interpretations(gp, rng):
                point = lattice.point(h)
                red = reduct(gp, satisfies_program(gp, point))
                for rules in (gp.rules, red.rules):
                    assert point.forms(rules) == reference_point_forms(point, rules), (str(gp), str(h))
                off = {lattice.atoms[k] for k in point.extra}
                patched += bool(off)
                off_conditions += bool(off & conditions)
                off_negated += bool(off & negated)
                off_compounds += any(v not in lattice[f] for f, v in point.compounds.items())
                judged += 1
    assert judged > 2000 and patched > 500
    assert off_conditions > 100 and off_negated > 100 and off_compounds > 100


def test_the_readers_index_is_a_plain_scan_of_the_forms():
    # per atom, the rules whose forms hold a mask on it, once per mask, in
    # program order: body literals, aggregate conditions and head disjuncts
    rng = random.Random(19)
    atoms = in_conditions = 0
    for n in range(400):
        if n % 4 == 3:
            gp = ground_program(translate_dlp(random_classical_program(rng)))
        else:
            generator = (
                random_probability_program,
                random_aggregate_program,
                random_recursive_aggregate_program,
            )[n % 4]
            gp = generator(rng)
        lattice = gp.value_lattice()
        bodies, heads = lattice.rule_forms(gp.rules)
        for k in range(len(lattice.atoms)):
            expected = []
            for p, (body, head) in enumerate(zip(bodies, heads)):
                masks = [j for j, _ in body] + [d[0] for d in head]
                for j, spec in body:
                    if j is None and len(spec) == 4:
                        conditions = [
                            c
                            for j, form in spec[3]
                            for c, _ in ([(j, form)] if j is not None else form)
                        ]
                        in_conditions += k in conditions
                        masks += conditions
                expected += [p] * masks.count(k)
            assert list(lattice.readers(k)) == expected, str(gp)
            atoms += 1
    assert atoms > 800 and in_conditions > 100


def test_a_raised_edge_patches_only_the_rules_that_read_it_once(monkeypatch):
    # one truth_leq per mask on the raised edge, in the rules that read it
    # alone; the reduct's forms are the patched tuples themselves, and the
    # minimality search reads them as they are
    gp = ground(PATH_PROGRAM)
    lattice = gp.value_lattice()
    (h,) = enumerate_answer_sets(gp).interpretations
    edge = HybridFormula.atomic(Atom("edge", (Const("b2"), Const("c1"))))
    raised = PInterpretation.from_pairs([*(e for e in h.entries if e[0] != edge), (edge, ONE)])
    point = lattice.point(raised)
    assert point.extra == {lattice.position[edge.atoms[0]]: ONE}
    bodies, heads = lattice.rule_forms(gp.rules)
    reading = [
        p for p, rule in enumerate(gp.rules)
        if edge.atoms[0] in [atom for atom, _ in rule.head]
        or edge in [item for item, _ in rule.pos_body + rule.neg_body]
    ]
    assert len(reading) == 4

    calls = []
    original = dhpp._lattice.truth_leq

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(dhpp._lattice, "truth_leq", counting)
    patched_bodies, patched_heads = point.forms(gp.rules)
    assert len(calls) == 4
    assert [
        p for p in range(len(gp.rules))
        if patched_bodies[p] is not bodies[p] or patched_heads[p] is not heads[p]
    ] == reading

    red = reduct(gp, satisfies_program(gp, point))
    red_bodies, red_heads = point.forms(red.rules)
    assert len(calls) == 4
    number = {id(rule): p for p, rule in enumerate(gp.rules)}
    assert all(b is patched_bodies[number[id(r)]] for r, b in zip(red.rules, red_bodies))
    assert all(d is patched_heads[number[id(r)]] for r, d in zip(red.rules, red_heads))
    search = _MinimalitySearch(red, point, 1000)
    assert search.bodies is red_bodies and search.heads is red_heads
    assert is_answer_set(gp, raised)[1].startswith("not minimal")


# ---------------------------------------------------------------------------
# Reduct


def test_reduct_of_fact_program_is_identity(dice_solved):
    gp = ground("a:0.5 | b:0.5.\nc:0.3.")
    red = reduct(gp, satisfies_program(gp, PInterpretation()))
    assert [str(r) for r in red.rules] == [str(r) for r in gp.rules]


def test_dice_reduct_under_h1_drops_constraint(dice_solved):
    red = reduct(dice_solved.ground, satisfies_program(dice_solved.ground, H1))
    assert len(red.rules) == 2
    assert all(r.head[0][0].predicate == "a" for r in red.rules)


def test_dice_reduct_keeps_constraint_when_marker_high(dice_solved):
    # __c is an ordinary atom name: setting it must not switch the constraint off
    marked = PInterpretation.from_pairs(
        list(NOT_P_MODEL.entries) + [(HybridFormula.atomic(Atom("__c")), ONE)]
    )
    red = reduct(dice_solved.ground, satisfies_program(dice_solved.ground, marked))
    assert any(not r.head for r in red.rules)
    assert not satisfies_program(dice_solved.ground, marked).satisfied


def test_reduct_properties_on_random_programs():
    rng = random.Random(11)
    for _ in range(30):
        gp = random_probability_program(rng)
        lattice = gp.value_lattice()
        formulae = list(gp.relevant_formulae)
        values = [rng.choice(lattice[f]) for f in formulae]
        h = PInterpretation.from_pairs(zip(formulae, values))
        red = reduct(gp, satisfies_program(gp, h))
        originals = [str(r) for r in gp.rules]
        assert all(str(r) in originals for r in red.rules)
        twice = reduct(red, satisfies_program(red, h))
        assert [str(r) for r in twice.rules] == [str(r) for r in red.rules]
        if satisfies_program(gp, h).satisfied:
            assert all(satisfies_program(red, h).rule_verdicts)


def test_positive_literals_monotone_naf_antimonotone():
    rng = random.Random(23)
    formulae = [HybridFormula.atomic(Atom(n)) for n in "abc"]
    for _ in range(200):
        h1, h2 = random_leq_interpretations(rng, formulae)
        target = rng.choice(formulae)
        ann = random_interval(rng)
        if check_literal(h1, target, ann, positive=True):
            assert check_literal(h2, target, ann, positive=True)
        if check_literal(h2, target, ann, positive=False):
            assert check_literal(h1, target, ann, positive=False)


def test_reduct_keeps_the_formula_scope_of_its_source():
    gp = ground("a : 0.5.  b : 0.5.  c :- not a : 0.5, a and[inc] b : 0.2.")
    assert "a and[inc] b" in {str(f) for f in gp.relevant_formulae}
    h = PInterpretation.from_pairs((HybridFormula.atomic(Atom(n)), iv("0.5")) for n in "ab")
    red = reduct(gp, satisfies_program(gp, h))
    assert [str(r) for r in red.rules] == ["a:0.5.", "b:0.5."]
    assert red.relevant_formulae == gp.relevant_formulae


# ---------------------------------------------------------------------------
# The evaluator on branches of the minimality search


def body_atoms(rule) -> set[Atom]:
    out: set[Atom] = set()
    for item, _ in rule.pos_body + rule.neg_body:
        if isinstance(item, HybridFormula):
            out.update(item.atoms)
        elif isinstance(item, AggregateAtom):
            for pair in item.pset.pairs:
                for formula, _ in pair.condition:
                    out.update(formula.atoms)
    return out


def completions(gp, domains, atoms):
    """Every interpretation that picks, for each given atom, a value of its
    domain; other atoms take their first value, compounds their composition."""
    atoms = sorted(atoms, key=str)
    for values in itertools.product(*(domains[HybridFormula.atomic(a)] for a in atoms)):
        chosen = {f: d[0] for f, d in domains.items()}
        chosen.update((HybridFormula.atomic(a), v) for a, v in zip(atoms, values))
        for f in gp.relevant_formulae:
            if not f.is_atomic:
                component = [chosen[HybridFormula.atomic(a)] for a in f.atoms]
                chosen[f] = compose_fold(gp.formula_strategy(f), component)
        yield PInterpretation.from_pairs(chosen.items())


def branch_programs(paths):
    for path in paths:
        yield ground(path.read_text(encoding="utf-8"))
    rng = random.Random(31)
    for _ in range(60):
        yield random_aggregate_program(rng)
    for _ in range(60):
        yield random_recursive_aggregate_program(rng)


def test_decided_bodies_agree_with_every_completion_of_a_branch(dice_path, diet_path):
    rng = random.Random(7)
    verdicts = []
    for gp in branch_programs([dice_path, diet_path]):
        lattice = gp.value_lattice()
        for _ in range(8):
            top = PInterpretation.from_pairs(
                (f, lattice[f][-1] if rng.random() < 0.7 else rng.choice(lattice[f]))
                for f in gp.relevant_formulae
                if f.is_atomic
            )
            search = _MinimalitySearch(gp, lattice.point(top), node_cap=1)
            for i, d in enumerate(search.domains):
                ranks = [r for r in range(d.bit_length()) if d >> r & 1]
                keep = rng.sample(ranks, rng.randint(1, len(ranks)))
                search.domains[i] = sum(1 << r for r in keep)
            domains = search_domains(search)
            for rule, literals in zip(gp.rules, search.bodies):
                decided = _holds_all(literals, search.domains, search.compound)
                verdicts.append(decided)
                if decided is None:
                    continue
                for h in completions(gp, domains, body_atoms(rule)):
                    assert satisfies_body(h, rule) is decided, (str(rule), str(h))
    assert {True, False, None} <= set(verdicts)


def test_a_pair_with_one_condition_failing_on_its_whole_domain_is_out():
    # a:0.5 fails on every value a may take, while b:0.3 and the compound
    # a and[pcc] b are still open: a pair with a:0.5 is out, so its
    # aggregate literal is decided on this branch, and a pair whose one
    # condition is the open compound leaves its aggregate open
    gp = ground(
        "a : 0.3.\nb : 0.3.\nb : 0.5 :- a : 0.3.\n"
        "c :- countP{<1 : 1 | a : 0.5, b : 0.3>} >= 1.\n"
        "d :- not countP{<1 : 1 | a : 0.5, b : 0.3>} >= 1.\n"
        "e :- countP{<1 : 1 | a and[pcc] b : 0.1, a : 0.5>} >= 1.\n"
        "f :- countP{<1 : 1 | a and[pcc] b : 0.1>} >= 1."
    )
    lattice = gp.value_lattice()
    top = PInterpretation.from_pairs((f, lattice[f][-1]) for f in gp.relevant_formulae)
    search = _MinimalitySearch(gp, lattice.point(top), node_cap=1)
    domains = search_domains(search)
    a, b = (HybridFormula.atomic(Atom(n)) for n in "ab")
    assert not any(truth_leq(iv("0.5"), v) for v in domains[a])
    assert {truth_leq(iv("0.3"), v) for v in domains[b]} == {True, False}
    assert search.compound(next(f for f in gp.relevant_formulae if not f.is_atomic)) is None
    for rule, literals, decided in zip(gp.rules[3:], search.bodies[3:], (False, True, False, None)):
        assert _holds_all(literals, search.domains, search.compound) is decided, str(rule)
        verdicts = {satisfies_body(h, rule) for h in completions(gp, domains, body_atoms(rule))}
        assert verdicts == ({True, False} if decided is None else {decided}), str(rule)
