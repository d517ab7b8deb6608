"""End-to-end acceptance suite.

One test per shipped guarantee, named so that `pytest -v` prints a single
pass/fail line for each: the two worked examples solve to their exact
published answer sets, aggregate evaluation and grounding match the
hand-computed values, and the three property suites (answer-set
re-verification, classical subsumption, literal monotonicity) hold on
fixed-seed random corpora.  Everything is exact rational arithmetic; no
tolerances anywhere.
"""

import random
from fractions import Fraction

from dhpp import (
    EValue,
    PValue,
    UNDEFINED,
    Atom,
    HybridFormula,
    PInterpretation,
    ProbInterval,
    enumerate_answer_sets,
    eval_aggregate,
    ground_program,
    satisfies_program,
    translate_dlp,
)
from dhpp.classical import answer_set_atoms, classical_oracle
from dhpp.model import AggregateAtom, Num, ValueInterval, format_rational
from dhpp.solver import pairwise_incomparable
from generators import (
    brute_force_answer_sets,
    check_literal,
    check_selection,
    random_classical_program,
    random_interval,
    random_leq_interpretations,
    random_probability_program,
)
from test_grounder import VITAMIN_A_PAIRS


def project(h: PInterpretation, *predicates: str) -> frozenset[str]:
    out = []
    for formula, value in h.entries:
        text = str(formula)
        if text.startswith(tuple(p + "(" for p in predicates)):
            assert value.lo == value.hi
            out.append(f"{text}:{format_rational(value.lo)}")
    return frozenset(out)


def aggregates_of(gp) -> list[AggregateAtom]:
    return [
        item
        for rule in gp.rules
        for item, _ in rule.pos_body + rule.neg_body
        if isinstance(item, AggregateAtom)
    ]


# -- criterion 1: two-dice golden answer sets ---------------------------------------

DICE_GOLDEN = [
    "{a(1,1):[0.5,0.5], a(1,2):[0.7,0.7]}",
    "{a(1,1):[0.5,0.5], a(2,2):[0.3,0.3]}",
    "{a(2,1):[0.5,0.5], a(2,2):[0.3,0.3]}",
]


def test_criterion_1_dice_golden_answer_sets(dice_solved):
    assert [str(h) for h in dice_solved.result.interpretations] == DICE_GOLDEN
    assert not dice_solved.result.truncated
    assert dice_solved.seconds < 1.0


# -- criterion 2: sumP evaluation on the dice ground set ----------------------------


def test_criterion_2_dice_sum_aggregate_evaluation(dice_solved):
    (agg,) = aggregates_of(dice_solved.ground)
    h = PInterpretation.from_pairs(
        [
            (HybridFormula.atomic(Atom("a", (Num(1), Num(2)))), ProbInterval("0.7", "0.7")),
            (HybridFormula.atomic(Atom("a", (Num(2), Num(1)))), ProbInterval("0.5", "0.5")),
        ]
    )
    ms = check_selection(agg.pset, h)
    result = eval_aggregate("sumP", ms)
    assert result == PValue(Fraction(3), ProbInterval("0.35", "0.35"))
    assert check_literal(h, agg, ProbInterval("0.3", "0.3"), positive=True)


# -- criterion 3: dietary golden answer sets ----------------------------------------

DIET_PCKG_ALL_TWO = {
    "pckg(beef,2,s1):1",
    "pckg(fish,2,s1):1",
    "pckg(turk,2,s1):1",
    "pckg(beef,2,s2):1",
    "pckg(fish,2,s2):1",
    "pckg(turk,2,s2):1",
}

DIET_NUTR_ALL_TWO = {
    "nutr(beef,a,120,s1):0.7",
    "nutr(fish,a,16,s1):0.8",
    "nutr(turk,a,120,s1):0.8",
    "nutr(beef,a,100,s2):0.3",
    "nutr(fish,a,22,s2):0.2",
    "nutr(turk,a,110,s2):0.2",
    "nutr(beef,b,20,s1):0.6",
    "nutr(fish,b,30,s1):0.5",
    "nutr(turk,b,30,s1):0.7",
    "nutr(beef,b,16,s2):0.4",
    "nutr(fish,b,36,s2):0.5",
    "nutr(turk,b,40,s2):0.3",
    "nutr(beef,c,40,s1):0.8",
    "nutr(fish,c,20,s1):0.4",
    "nutr(turk,c,40,s1):0.9",
    "nutr(beef,c,30,s2):0.2",
    "nutr(fish,c,26,s2):0.6",
    "nutr(turk,c,50,s2):0.1",
}


def one_package(food: str, scen: str, nutr: dict[str, str]) -> frozenset[str]:
    """The all-twos family with a single food dropped to one package."""
    pckg = (DIET_PCKG_ALL_TWO - {f"pckg({food},2,{scen}):1"}) | {
        f"pckg({food},1,{scen}):1"
    }
    kept = {s for s in DIET_NUTR_ALL_TWO if not s.startswith(f"nutr({food},")
            or f",{scen}):" not in s}
    return frozenset(pckg | kept | set(nutr.values()))


DIET_GOLDEN = {
    one_package(
        "beef",
        "s2",
        {
            "a": "nutr(beef,a,50,s2):0.3",
            "b": "nutr(beef,b,8,s2):0.4",
            "c": "nutr(beef,c,15,s2):0.2",
        },
    ),
    frozenset(DIET_PCKG_ALL_TWO | DIET_NUTR_ALL_TWO),
    one_package(
        "turk",
        "s2",
        {
            "a": "nutr(turk,a,55,s2):0.2",
            "b": "nutr(turk,b,20,s2):0.3",
            "c": "nutr(turk,c,25,s2):0.1",
        },
    ),
    one_package(
        "fish",
        "s1",
        {
            "a": "nutr(fish,a,8,s1):0.8",
            "b": "nutr(fish,b,15,s1):0.5",
            "c": "nutr(fish,c,10,s1):0.4",
        },
    ),
}


def test_criterion_3_diet_golden_answer_sets(diet_solved):
    result = diet_solved.result
    assert len(result.interpretations) == 4
    assert not result.truncated
    assert {
        project(h, "pckg", "nutr") for h in result.interpretations
    } == DIET_GOLDEN

    # recompute each expected vitamin supply straight from the ground sets
    bounds = {Fraction(230): "a", Fraction(75): "b", Fraction(95): "c"}
    aggs = aggregates_of(diet_solved.ground)
    assert {a.guard_lo.value for a in aggs} == set(bounds)
    for h in result.interpretations:
        for agg in aggs:
            supply = eval_aggregate("valE", check_selection(agg.pset, h))
            assert isinstance(supply, EValue)
            assert supply.value.lo >= agg.guard_lo.value
            assert supply.value.hi >= agg.guard_lo.value

    assert diet_solved.seconds < 60.0


# -- criterion 4: vitamin-a ground instantiation ------------------------------------


def test_criterion_4_vitamin_a_ground_instantiation(diet_solved):
    vitamin_a = [
        agg
        for agg in aggregates_of(diet_solved.ground)
        if agg.guard_lo.value == Fraction(230)
    ]
    assert len(vitamin_a) == 1
    pairs = {str(p) for p in vitamin_a[0].pset.pairs}
    assert pairs >= VITAMIN_A_PAIRS
    assert len(pairs) == 12


# -- criterion 5: empty-multiset conventions ----------------------------------------


def test_criterion_5_empty_multiset_conventions():
    unit = ProbInterval(1, 1)
    assert eval_aggregate("sumE", []) == EValue(ValueInterval(0, 0))
    assert eval_aggregate("timesE", []) == EValue(ValueInterval(1, 1))
    assert eval_aggregate("valE", []) == EValue(ValueInterval(0, 0))
    assert eval_aggregate("countE", []) == EValue(ValueInterval(0, 0))
    assert eval_aggregate("sumP", []) == PValue(Fraction(0), unit)
    assert eval_aggregate("timesP", []) == PValue(Fraction(1), unit)
    assert eval_aggregate("countP", []) == PValue(Fraction(0), unit)
    assert all(
        eval_aggregate(f, []) is UNDEFINED for f in ("minE", "maxE", "minP", "maxP")
    )


# -- criterion 6: answer sets re-verified on a random corpus ------------------------


def test_criterion_6_answer_sets_reverify_on_random_corpus():
    rng = random.Random(2026)
    checked = 0
    while checked < 100:
        gp = random_probability_program(rng, max_atoms=5, max_rules=6)
        expected = brute_force_answer_sets(gp)
        if expected is None:  # lattice too large for the exhaustive pass
            continue
        result = enumerate_answer_sets(gp)
        for h in result.interpretations:
            assert satisfies_program(gp, h).satisfied
        assert [str(h) for h in result.interpretations] == [
            str(h) for h in expected
        ]
        assert pairwise_incomparable(result.interpretations)
        checked += 1
    assert checked == 100


# -- criterion 7: classical subsumption differential --------------------------------


def test_criterion_7_classical_subsumption_differential():
    rng = random.Random(1987)
    mismatches = []
    for n in range(200):
        program = random_classical_program(rng, max_atoms=6, max_rules=8)
        expected = sorted(
            (frozenset(str(a) for a in s) for s in classical_oracle(program)),
            key=sorted,
        )
        result = enumerate_answer_sets(ground_program(translate_dlp(program)))
        got = sorted(
            (
                frozenset(str(a) for a in answer_set_atoms(h))
                for h in result.interpretations
            ),
            key=sorted,
        )
        if got != expected:
            mismatches.append((n, str(program)))
    assert mismatches == []


# -- criterion 8: literal monotonicity ----------------------------------------------


def test_criterion_8_literal_monotonicity_samples():
    rng = random.Random(31415)
    formulae = [HybridFormula.atomic(Atom(name)) for name in "abc"]
    violations = []
    armed_positive = armed_negative = 0
    for _ in range(1000):
        h1, h2 = random_leq_interpretations(rng, formulae)
        target = rng.choice(formulae)
        ann = random_interval(rng)
        if check_literal(h1, target, ann, positive=True):
            armed_positive += 1
            if not check_literal(h2, target, ann, positive=True):
                violations.append(("pos", h1, h2, ann))
        if check_literal(h2, target, ann, positive=False):
            armed_negative += 1
            if not check_literal(h1, target, ann, positive=False):
                violations.append(("neg", h1, h2, ann))
    assert violations == []
    # the fixed seed arms both directions often enough to mean something
    assert armed_positive > 100 and armed_negative > 100
