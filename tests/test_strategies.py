from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhpp import ProbInterval, builtin_registry, compose_fold
from dhpp.errors import DuplicateName, EmptyMultiset, UnknownStrategy
from dhpp.strategies import CONJUNCTIVE, DISJUNCTIVE

rationals = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def prob_intervals(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    return ProbInterval(a, b)


def iv(lo, hi=None) -> ProbInterval:
    return ProbInterval(Fraction(str(lo)), Fraction(str(hi if hi is not None else lo)))


REGISTRY = builtin_registry()
ALL = [REGISTRY.get(name) for name in ("inc", "ind", "pcc", "pcd")]


def test_builtin_kinds():
    assert REGISTRY.get("inc").kind == CONJUNCTIVE
    assert REGISTRY.get("pcc").kind == CONJUNCTIVE
    assert REGISTRY.get("ind").kind == DISJUNCTIVE
    assert REGISTRY.get("pcd").kind == DISJUNCTIVE


def test_compose_values():
    assert REGISTRY.get("inc").compose(iv("0.7"), iv("0.5")) == iv("0.35")
    assert REGISTRY.get("ind").compose(iv("0.5"), iv("0.5")) == iv("0.75")
    assert REGISTRY.get("pcc").compose(iv("0.2", "0.6"), iv("0.4", "0.5")) == iv("0.2", "0.5")
    assert REGISTRY.get("pcd").compose(iv("0.2", "0.6"), iv("0.4", "0.5")) == iv("0.4", "0.6")


def test_fold_singleton_is_identity():
    for strat in ALL:
        assert compose_fold(strat, [iv("0.3", "0.8")]) == iv("0.3", "0.8")


def test_fold_empty_multiset_raises():
    with pytest.raises(EmptyMultiset):
        compose_fold(REGISTRY.get("pcd"), [])


def test_fold_order_in_sequence():
    # inc over {0.7, 0.5, 0.5} in any order gives 0.175
    strat = REGISTRY.get("inc")
    assert compose_fold(strat, [iv("0.7"), iv("0.5"), iv("0.5")]) == iv("0.175")
    assert compose_fold(strat, [iv("0.5"), iv("0.5"), iv("0.7")]) == iv("0.175")


@given(prob_intervals(), prob_intervals())
def test_compose_commutative(x, y):
    for strat in ALL:
        assert strat.compose(x, y) == strat.compose(y, x)


@given(prob_intervals(), prob_intervals(), prob_intervals())
def test_compose_associative(x, y, z):
    for strat in ALL:
        left = strat.compose(strat.compose(x, y), z)
        right = strat.compose(x, strat.compose(y, z))
        assert left == right


@given(prob_intervals(), prob_intervals())
def test_compose_stays_in_unit_range(x, y):
    for strat in ALL:
        out = strat.compose(x, y)
        assert 0 <= out.lo <= out.hi <= 1


@given(prob_intervals(), prob_intervals())
def test_expansive_strategies_never_shrink(x, y):
    # so the solver's expansiveness check passes every program under them
    for name in REGISTRY.names():
        strategy = REGISTRY.get(name)
        if strategy.kind != DISJUNCTIVE:
            continue
        out = strategy.compose(x, y)
        assert out.lo >= x.lo and out.hi >= x.hi
        assert out.lo >= y.lo and out.hi >= y.hi


def test_registry_rejects_duplicates_and_unknowns():
    registry = builtin_registry()
    with pytest.raises(DuplicateName):
        registry.register("inc", CONJUNCTIVE, registry.get("inc").compose)
    with pytest.raises(UnknownStrategy):
        registry.get("nope")
    with pytest.raises(UnknownStrategy):
        registry.get_kind("inc", DISJUNCTIVE)  # right name, wrong kind


def test_custom_strategy_registration():
    registry = builtin_registry()
    registry.register(
        "first", DISJUNCTIVE, lambda x, y: x
    )
    assert registry.get_kind("first", DISJUNCTIVE).compose(iv("0.3"), iv("0.9")) == iv("0.3")
    assert "first" in registry
    assert "inc" in registry.names()
