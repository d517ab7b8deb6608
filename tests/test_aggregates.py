import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from dhpp import (
    ONE,
    UNDEFINED,
    Atom,
    EValue,
    GroundPair,
    GroundSet,
    HybridFormula,
    PInterpretation,
    PValue,
    ProbInterval,
    ValueInterval,
    eval_aggregate,
    truth_leq,
)
from dhpp.model import Const, Num
from dhpp.aggregates import joint_probability, scalar_interval_product
from generators import check_selection


def iv(lo, hi=None) -> ProbInterval:
    return ProbInterval(Fraction(str(lo)), Fraction(str(hi if hi is not None else lo)))


def vi(lo, hi=None) -> ValueInterval:
    return ValueInterval(Fraction(str(lo)), Fraction(str(hi if hi is not None else lo)))


def pair(value: str, prob: str, atom: str, ann: str) -> GroundPair:
    return GroundPair(
        Num(value), iv(prob), ((HybridFormula.atomic(Atom(atom)), iv(ann)),)
    )


def interp(**values) -> PInterpretation:
    return PInterpretation.from_pairs(
        (HybridFormula.atomic(Atom(name)), iv(v)) for name, v in values.items()
    )


DICE_SET = GroundSet(
    (
        pair("1", "0.5", "a11", "0.5"),
        pair("2", "0.5", "a21", "0.5"),
        pair("1", "0.7", "a12", "0.7"),
        pair("2", "0.3", "a22", "0.3"),
    )
)


def test_multiset_selection():
    h = interp(a12="0.7", a21="0.5")
    ms = check_selection(DICE_SET, h)
    assert sorted((str(v), str(p)) for v, p in ms) == [
        ("1", "[0.7,0.7]"),
        ("2", "[0.5,0.5]"),
    ]


def test_multiset_empty_under_empty_interpretation():
    assert check_selection(DICE_SET, PInterpretation()) == []


def test_multiset_keeps_duplicate_members():
    gset = GroundSet(
        (pair("1", "0.5", "x", "0.5"), pair("1", "0.5", "y", "0.5"))
    )
    h = interp(x="0.5", y="0.5")
    ms = check_selection(gset, h)
    assert len(ms) == 2
    assert eval_aggregate("countP", ms) == PValue(Fraction(2), iv("0.25"))


def test_multiset_grows_with_interpretation():
    lower = interp(a12="0.7")
    higher = interp(a12="0.7", a21="0.5", a11="0.5")
    ms_low = check_selection(DICE_SET, lower)
    ms_high = check_selection(DICE_SET, higher)
    for member in ms_low:
        assert member in ms_high


def test_sum_p_dice_value():
    h = interp(a12="0.7", a21="0.5")
    result = eval_aggregate("sumP", check_selection(DICE_SET, h))
    assert result == PValue(Fraction(3), iv("0.35"))


def test_val_e_vitamin_a_expectation():
    ms = [
        (Num("120"), iv("0.7")),
        (Num("50"), iv("0.3")),
        (Num("16"), iv("0.8")),
        (Num("22"), iv("0.2")),
        (Num("120"), iv("0.8")),
        (Num("110"), iv("0.2")),
    ]
    result = eval_aggregate("valE", ms)
    # 120*0.7 + 50*0.3 + 16*0.8 + 22*0.2 + 120*0.8 + 110*0.2 = 234.2
    assert result == EValue(vi("234.2"))
    assert result.value.lo == Fraction(1171, 5)
    assert result.value.lo >= 230


def test_scalar_interval_product():
    assert scalar_interval_product(Fraction(120), iv("0.7")) == vi("84")
    assert scalar_interval_product(Fraction(0), iv("0.2", "0.9")) == vi("0")
    assert scalar_interval_product(Fraction(-2), vi("0.3", "0.5")) == vi("-1", "-0.6")


def test_empty_multiset_conventions():
    assert eval_aggregate("sumE", []) == EValue(vi("0"))
    assert eval_aggregate("timesE", []) == EValue(vi("1"))
    assert eval_aggregate("valE", []) == EValue(vi("0"))
    assert eval_aggregate("countE", []) == EValue(vi("0"))
    assert eval_aggregate("sumP", []) == PValue(Fraction(0), ONE)
    assert eval_aggregate("timesP", []) == PValue(Fraction(1), ONE)
    assert eval_aggregate("countP", []) == PValue(Fraction(0), ONE)
    for func in ("minE", "maxE", "minP", "maxP"):
        assert eval_aggregate(func, []) is UNDEFINED


def test_non_numeric_members():
    ms = [(Const("beef"), iv("0.5")), (Num("2"), iv("0.5"))]
    assert eval_aggregate("sumE", ms) is UNDEFINED
    assert eval_aggregate("maxP", ms) is UNDEFINED
    # counting does not look at the values
    assert eval_aggregate("countP", ms) == PValue(Fraction(2), iv("0.25"))
    assert eval_aggregate("countE", ms) == EValue(vi("0.5", "0.5"))


members = st.lists(
    st.tuples(
        st.integers(min_value=-6, max_value=9),
        st.fractions(min_value=0, max_value=1, max_denominator=10),
        st.fractions(min_value=0, max_value=1, max_denominator=10),
    ),
    max_size=5,
)


def _multiset(raw) -> list:
    return [
        (Num(str(v)), ProbInterval(min(p, q), max(p, q))) for v, p, q in raw
    ]


@given(members)
def test_p_family_pairs_classical_value_with_joint_probability(raw):
    ms = _multiset(raw)
    x = joint_probability(ms)
    values = [v.value for v, _ in ms]
    expected = {
        "sumP": sum(values, Fraction(0)),
        "countP": Fraction(len(values)),
    }
    for func, value in expected.items():
        assert eval_aggregate(func, ms) == PValue(value, x)
    if values:
        assert eval_aggregate("minP", ms) == PValue(min(values), x)
        assert eval_aggregate("maxP", ms) == PValue(max(values), x)


@given(members)
def test_e_family_scales_classical_value_by_joint_probability(raw):
    ms = _multiset(raw)
    x = joint_probability(ms)
    count_e = eval_aggregate("countE", ms)
    assert count_e == EValue(scalar_interval_product(Fraction(len(ms)), x))
    sum_e = eval_aggregate("sumE", ms)
    total = sum((v.value for v, _ in ms), Fraction(0))
    assert sum_e == EValue(scalar_interval_product(total, x))
    if ms:
        low = min(v.value for v, _ in ms)
        assert eval_aggregate("minE", ms) == EValue(scalar_interval_product(low, x))


@given(members)
def test_only_min_max_on_empty_are_undefined(raw):
    ms = _multiset(raw)
    for func in ("valE", "sumE", "timesE", "countE", "sumP", "timesP", "countP"):
        assert eval_aggregate(func, ms) is not UNDEFINED
    if ms:
        for func in ("minE", "maxE", "minP", "maxP"):
            assert eval_aggregate(func, ms) is not UNDEFINED


def test_val_e_equals_sum_e_on_singletons():
    ms = [(Num("7"), iv("0.3", "0.6"))]
    assert eval_aggregate("valE", ms) == eval_aggregate("sumE", ms)


# members whose annotations are often points and often have a 0 endpoint,
# so both of joint_probability's endpoint paths are taken
endpoint = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
annotations = st.one_of(
    endpoint.map(lambda p: ProbInterval(p, p)),
    st.tuples(endpoint, endpoint).map(lambda pq: ProbInterval(min(pq), max(pq))),
)


@given(st.lists(annotations, max_size=9))
@example([])
@example([iv("0"), iv("0.5")])
@example([iv("0", "0.5"), iv("0.25", "1")])
@example([iv("1/3", "1/2")])
@example([iv("1/3"), iv("0.5", "0.75"), iv("1/6")])
def test_joint_probability_is_times_fold(probs):
    ms = [(Num(str(k)), p) for k, p in enumerate(probs)]
    lo = Fraction(1)
    hi = Fraction(1)
    for _, prob in ms:
        lo *= prob.lo
        hi *= prob.hi
    joint = joint_probability(ms)
    assert joint == ProbInterval(lo, hi)
    if not probs:
        assert joint == ONE


@given(
    st.lists(
        st.tuples(st.fractions(min_value=-6, max_value=9, max_denominator=6), annotations),
        max_size=9,
    )
)
@example([])
@example([(Fraction(-2), iv("0.25", "0.5")), (Fraction(1, 3), iv("0.5", "1"))])
@example(
    # many members whose denominators alternate, so an unreduced common
    # denominator would be the product of all of them
    [
        (Fraction(k % 7 - 3, 1 + k % 11), ProbInterval(Fraction(1, 3 + k % 5), Fraction(1, 1 + k % 3)))
        for k in range(400)
    ]
)
def test_sums_match_the_stepwise_fraction_sums(raw):
    # valE and the sum family add on integers and reduce once
    ms = [(Num(v), p) for v, p in raw]
    total = sum((v for v, _ in raw), Fraction(0))
    lo = sum((scalar_interval_product(v, p).lo for v, p in raw), Fraction(0))
    hi = sum((scalar_interval_product(v, p).hi for v, p in raw), Fraction(0))
    assert eval_aggregate("valE", ms) == EValue(ValueInterval(lo, hi))
    joint = joint_probability(ms)
    assert eval_aggregate("sumP", ms) == PValue(total, joint)
    assert eval_aggregate("sumE", ms) == EValue(scalar_interval_product(total, joint))
