import random
from fractions import Fraction

from dhpp import (
    ONE,
    AggregateAtom,
    Atom,
    GroundSet,
    HybridFormula,
    PInterpretation,
    ProbInterval,
    ground_program,
    parse_program,
    reduct,
    satisfies_program,
)
from dhpp.model import Num
from dhpp.semantics import satisfies_body, satisfies_literal, satisfies_rule
from generators import (
    random_interval,
    random_leq_interpretations,
    random_probability_program,
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
    assert satisfies_literal(h, dice_atom(1, 2), iv("0.7"), positive=True)
    low = dice_interp((1, 2, "0.6"))
    assert not satisfies_literal(low, dice_atom(1, 2), iv("0.7"), positive=True)


def test_naf_is_the_exact_complement():
    h = dice_interp((1, 2, "0.7"))
    for ann in (iv("0.5"), iv("0.7"), iv("0.9")):
        pos = satisfies_literal(h, dice_atom(1, 2), ann, positive=True)
        neg = satisfies_literal(h, dice_atom(1, 2), ann, positive=False)
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
    assert satisfies_literal(h, agg, iv("0.3"), positive=True)
    assert not satisfies_literal(H1, agg, iv("0.3"), positive=True)  # x=2 < 3


def test_undefined_aggregate_satisfies_naf():
    empty_min = AggregateAtom("minE", GroundSet(()), "<", Num("5"), Num("5"))
    h = PInterpretation()
    assert not satisfies_literal(h, empty_min, ONE, positive=True)
    assert satisfies_literal(h, empty_min, ONE, positive=False)


# ---------------------------------------------------------------------------
# Rules


def test_disjunctive_fact_satisfaction():
    rule = parse_program("a:0.5 | b:0.5.").rules[0]
    h = PInterpretation.from_pairs([(HybridFormula.atomic(Atom("a")), iv("0.5"))])
    assert satisfies_rule(h, rule)
    assert not satisfies_rule(PInterpretation(), rule)


def test_dice_constraint_body_unsatisfied_under_h1(dice_solved):
    constraint = next(r for r in dice_solved.ground.rules if not r.head)
    assert not satisfies_body(H1, constraint)
    assert satisfies_rule(H1, constraint)


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
    report = satisfies_program(dice_solved.ground, H1)
    assert report.satisfied == (
        all(report.rule_verdicts)
        and all(c.ok for c in report.atom_checks)
        and all(c.ok for c in report.formula_checks)
    )


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


def test_overderived_atom_rejected():
    gp = ground("a : 0.5.")
    high = PInterpretation.from_pairs([(HybridFormula.atomic(Atom("a")), iv("0.9"))])
    # 0.9 is above the only fold (0.5): clause 9 holds but nothing else forbids it
    report = satisfies_program(gp, high)
    assert report.satisfied  # p-model, just not minimal


# ---------------------------------------------------------------------------
# Reduct


def test_reduct_of_fact_program_is_identity(dice_solved):
    gp = ground("a:0.5 | b:0.5.\nc:0.3.")
    red = reduct(gp, PInterpretation())
    assert [str(r) for r in red.rules] == [str(r) for r in gp.rules]


def test_dice_reduct_under_h1_drops_constraint(dice_solved):
    red = reduct(dice_solved.ground, H1)
    assert len(red.rules) == 2
    assert all(r.head[0][0].predicate == "a" for r in red.rules)


def test_dice_reduct_keeps_constraint_when_marker_high(dice_solved):
    # __c is an ordinary atom name: setting it must not switch the constraint off
    marked = PInterpretation.from_pairs(
        list(NOT_P_MODEL.entries) + [(HybridFormula.atomic(Atom("__c")), ONE)]
    )
    red = reduct(dice_solved.ground, marked)
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
        red = reduct(gp, h)
        originals = [str(r) for r in gp.rules]
        assert all(str(r) in originals for r in red.rules)
        twice = reduct(red, h)
        assert [str(r) for r in twice.rules] == [str(r) for r in red.rules]
        if satisfies_program(gp, h).satisfied:
            assert all(satisfies_rule(h, r) for r in red.rules)


def test_positive_literals_monotone_naf_antimonotone():
    rng = random.Random(23)
    formulae = [HybridFormula.atomic(Atom(n)) for n in "abc"]
    for _ in range(200):
        h1, h2 = random_leq_interpretations(rng, formulae)
        target = rng.choice(formulae)
        ann = random_interval(rng)
        if satisfies_literal(h1, target, ann, positive=True):
            assert satisfies_literal(h2, target, ann, positive=True)
        if satisfies_literal(h2, target, ann, positive=False):
            assert satisfies_literal(h1, target, ann, positive=False)
