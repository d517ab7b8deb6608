import fractions
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dhpp
from dhpp import (
    ONE,
    ZERO,
    AggregateAtom,
    Atom,
    GroundSet,
    HybridFormula,
    InvalidInterval,
    PInterpretation,
    ProbInterval,
    Rule,
    ValueInterval,
    format_rational,
    interp_leq,
    interp_lt,
    truth_leq,
    truth_lt,
)
from dhpp.errors import ConstantOutOfRange, UnknownAnnotationFunction
from dhpp.model import (
    AnnConst,
    AnnFunc,
    AnnVar,
    Annotation,
    Const,
    FuncTerm,
    Num,
    as_fraction,
    COMPARATORS,
    interval_compare,
    scalar_compare,
)

rationals = st.fractions(min_value=0, max_value=1, max_denominator=20)


@st.composite
def prob_intervals(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    return ProbInterval(a, b)


def iv(lo, hi=None) -> ProbInterval:
    if hi is None:
        hi = lo
    return ProbInterval(Fraction(str(lo)), Fraction(str(hi)))


# ---------------------------------------------------------------------------
# Rationals and intervals


def test_as_fraction_accepts_exact_forms():
    assert as_fraction("0.7") == Fraction(7, 10)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(1) == Fraction(1)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)


def test_as_fraction_returns_a_fraction_itself():
    q = Fraction(2, 5)
    assert as_fraction(q) is q


def test_as_fraction_rejects_inexact_forms():
    with pytest.raises(TypeError):
        as_fraction(0.7)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "0.5"
    assert format_rational(Fraction(7, 10)) == "0.7"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(1171, 5)) == "234.2"


def test_interval_construction_rejects_bad_endpoints():
    with pytest.raises(InvalidInterval):
        ValueInterval(Fraction(2), Fraction(1))
    with pytest.raises(InvalidInterval):
        ProbInterval(Fraction(-1, 10), Fraction(1, 2))
    with pytest.raises(InvalidInterval):
        ProbInterval(Fraction(1, 2), Fraction(11, 10))
    assert ValueInterval(Fraction(-5), Fraction(-2)).lo == -5  # values may leave [0,1]


def test_truth_order_examples():
    assert truth_leq(iv("0.2", "0.3"), iv("0.5", "0.9"))
    assert truth_leq(iv("0.3", "0.35"), iv("0.3", "0.35"))
    assert not truth_leq(iv("0.3", "0.6"), iv("0.4", "0.5"))  # upper bound decides
    assert not truth_lt(iv("0.3"), iv("0.3"))
    assert truth_lt(ZERO, ONE)


@given(prob_intervals(), prob_intervals(), prob_intervals())
def test_truth_leq_is_a_partial_order(x, y, z):
    assert truth_leq(x, x)
    if truth_leq(x, y) and truth_leq(y, x):
        assert x == y
    if truth_leq(x, y) and truth_leq(y, z):
        assert truth_leq(x, z)


# ---------------------------------------------------------------------------
# The truth order decides on cached endpoint floats, exactly

TINY = Fraction(1, 2**80)
HUGE = Fraction(10**400)  # beyond the float range


def fraction_leq(x, y) -> bool:
    """The truth order's definition, on the exact endpoints."""
    return x.lo <= y.lo and x.hi <= y.hi


def interval(lo, hi):
    """A ProbInterval when the endpoints allow one, else a ValueInterval."""
    lo, hi = sorted((lo, hi))
    return ProbInterval(lo, hi) if 0 <= lo and hi <= 1 else ValueInterval(lo, hi)


endpoints = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
    st.fractions(min_value=0, max_value=1, max_denominator=20),
    st.floats(-1e300, 1e300).map(Fraction),
    st.integers(-2, 2).map(lambda k: k * HUGE),
)
nudges = st.integers(-2, 2).map(lambda k: k * TINY)


@st.composite
def interval_pairs(draw):
    x = interval(draw(endpoints), draw(endpoints))
    kind = draw(st.sampled_from(["apart", "near", "equal", "same"]))
    if kind == "apart":
        return x, interval(draw(endpoints), draw(endpoints))
    if kind == "near":  # floats usually equal, Fractions not
        return x, interval(x.lo + draw(nudges), x.hi + draw(nudges))
    if kind == "equal":  # built apart from new Fractions
        return x, interval(
            Fraction(x.lo.numerator, x.lo.denominator),
            Fraction(x.hi.numerator, x.hi.denominator),
        )
    return x, x


@given(interval_pairs())
def test_truth_leq_agrees_with_the_fraction_definition(pair):
    x, y = pair
    for _ in range(2):  # floats computed, then read back from the slot
        assert truth_leq(x, y) == fraction_leq(x, y)
        assert truth_leq(y, x) == fraction_leq(y, x)


def tie_pairs() -> list:
    """Pairs whose endpoints differ by less than their floats can show."""
    p = Fraction(1, 3)
    pairs = [(interval(p, p), interval(p + TINY, p + TINY))]
    pairs.append((interval(p, 1 - TINY), interval(p - TINY, 1 - 2 * TINY)))
    pairs.append((ValueInterval(-p - TINY, -p), ValueInterval(-p, -p)))
    pairs.append((ValueInterval(-HUGE - 1, HUGE), ValueInterval(-HUGE, HUGE + TINY)))
    pairs.append((ValueInterval(HUGE, 2 * HUGE), ValueInterval(HUGE, HUGE + 1)))
    pairs.append((interval(p, Fraction(1, 2)), interval(Fraction(1, 3), Fraction(2, 4))))
    same = ValueInterval(-HUGE, p)
    pairs.append((same, same))
    return pairs


def test_float_ties_are_decided_on_fractions():
    for x, y in tie_pairs():
        for p, q in ((x.lo, y.lo), (x.hi, y.hi)):
            beyond = abs(p) > 10**308 and abs(q) > 10**308 and p * q > 0
            assert beyond or float(p) == float(q)
        for a, b in ((x, y), (y, x)):
            assert truth_leq(a, b) == fraction_leq(a, b)
    assert not all(fraction_leq(x, y) for x, y in tie_pairs())
    assert not all(fraction_leq(y, x) for x, y in tie_pairs())


def test_interval_compare_examples():
    v230 = ValueInterval(Fraction(230), Fraction(230))
    assert not interval_compare(v230, "<", v230)
    assert interval_compare(
        ValueInterval(Fraction(180), Fraction(200)),
        "<",
        ValueInterval(Fraction(190), Fraction(230)),
    )
    # componentwise comparison is partial: overlapping intervals decide neither way
    a = ValueInterval(Fraction(1), Fraction(5))
    b = ValueInterval(Fraction(2), Fraction(3))
    assert not interval_compare(a, "<", b)
    assert not interval_compare(b, "<", a)


@given(prob_intervals())
def test_interval_compare_reflexivity(x):
    assert interval_compare(x, "=", x)
    assert not interval_compare(x, "<", x)
    assert not interval_compare(x, "!=", x)
    assert interval_compare(x, "<=", x)


@given(rationals, prob_intervals())
def test_scalar_compare_is_interval_compare_of_the_point(x, t):
    for op in COMPARATORS:
        assert scalar_compare(x, op, t) == interval_compare(ValueInterval.point(x), op, t)


def test_an_aggregate_keeps_its_guard_and_a_reversed_one_fails_when_read():
    atom = AggregateAtom("sumP", GroundSet(()), ">=", Num(Fraction(1)), Num(Fraction(2)))
    assert atom.guard == ValueInterval(Fraction(1), Fraction(2))
    assert atom.guard is atom.guard
    reversed_guard = AggregateAtom("sumP", GroundSet(()), ">=", Num(Fraction(3)), Num(Fraction(1)))
    for _ in range(2):
        with pytest.raises(InvalidInterval):
            reversed_guard.guard


# ---------------------------------------------------------------------------
# Formulae and rules


def test_compound_formula_validation():
    a, b = Atom("a"), Atom("b")
    f = HybridFormula((a, b), "and", "inc")
    assert str(f) == "a and[inc] b"
    with pytest.raises(ValueError):
        HybridFormula((a, a), "or", "ind")  # atoms must be distinct
    with pytest.raises(ValueError):
        HybridFormula((a, b))  # connective required
    with pytest.raises(ValueError):
        HybridFormula((a,), "and", "inc")  # single atom takes no connective


def test_rule_requires_head():
    with pytest.raises(ValueError):
        Rule(head=())


def test_e_aggregate_annotation_forced_to_one():
    agg = AggregateAtom("sumE", GroundSet(()), ">=", Num("1"), Num("1"))
    rule = Rule(
        head=((Atom("a"), ONE),),
        pos_body=((agg, iv("0.4")),),
    )
    assert rule.pos_body[0][1] == ONE


def test_p_aggregate_annotation_kept():
    agg = AggregateAtom("sumP", GroundSet(()), ">=", Num("1"), Num("1"))
    rule = Rule(head=((Atom("a"), ONE),), pos_body=((agg, iv("0.4")),))
    assert rule.pos_body[0][1] == iv("0.4")


def test_a_rule_from_normal_fields_keeps_them_and_needs_a_head_or_a_body():
    agg = AggregateAtom("sumE", GroundSet(()), ">=", Num("1"), Num("1"))
    head = ((Atom("a"), ONE),)
    pos = ((agg, ONE),)
    neg = ((HybridFormula.atomic(Atom("b")), iv("0.4")),)
    rule = Rule.from_normal(head, pos, neg)
    made = Rule(head, pos, neg)
    assert rule == made and hash(rule) == hash(made) and str(rule) == str(made)
    assert rule.head is head and rule.pos_body is pos and rule.neg_body is neg
    with pytest.raises(ValueError, match="a head or a body"):
        Rule.from_normal((), (), ())


# ---------------------------------------------------------------------------
# Interpretations


def test_empty_interpretation_defaults_to_zero():
    h = PInterpretation()
    assert h.value(HybridFormula.atomic(Atom("b"))) == ZERO


def test_unstored_compound_defaults_to_zero():
    a = HybridFormula.atomic(Atom("a"))
    h = PInterpretation.from_pairs([(a, iv("0.5"))])
    compound = HybridFormula((Atom("a"), Atom("b")), "and", "inc")
    assert h.value(compound) == ZERO


def test_interpretation_normalizes_zero_entries():
    a = HybridFormula.atomic(Atom("a"))
    b = HybridFormula.atomic(Atom("b"))
    h = PInterpretation.from_pairs([(a, iv("0.5")), (b, ZERO)])
    assert h.support() == (a,)
    assert h == PInterpretation.from_pairs([(a, iv("0.5"))])


def test_interp_order():
    a = HybridFormula.atomic(Atom("a"))
    b = HybridFormula.atomic(Atom("b"))
    small = PInterpretation.from_pairs([(a, iv("0.5"))])
    big = PInterpretation.from_pairs([(a, iv("0.5")), (b, iv("0.3"))])
    assert interp_leq(small, big)
    assert interp_lt(small, big)
    assert not interp_leq(big, small)


# ---------------------------------------------------------------------------
# Annotations


def test_annotation_constant_range():
    with pytest.raises(ConstantOutOfRange):
        AnnConst("1.5")


def test_annotation_function_arity_checked():
    with pytest.raises(UnknownAnnotationFunction):
        AnnFunc("pcomp", (AnnConst("0.3"), AnnConst("0.4")))
    with pytest.raises(UnknownAnnotationFunction):
        AnnFunc("nope", (AnnConst("0.3"),))


def test_annotation_evaluation():
    env = {"P1": Num("0.5"), "P2": Num("0.7")}
    pmul = AnnFunc("pmul", (AnnVar("P1"), AnnVar("P2")))
    ann = Annotation(pmul, pmul)
    assert ann.evaluate(env) == iv("0.35")
    padd = Annotation(AnnFunc("padd", (AnnVar("P1"), AnnVar("P2"))), AnnConst("1"))
    assert padd.evaluate(env) == iv("1")  # sums cap at 1
    pcomp = Annotation(AnnFunc("pcomp", (AnnVar("P2"),)), AnnConst("0.5"))
    assert pcomp.evaluate(env) == iv("0.3", "0.5")
    assert Annotation(AnnVar("P1"), AnnVar("P2")).is_ground() is False


# ---------------------------------------------------------------------------
# Hashing: each value hashes once, and the cached hash stays in its process

# each call builds a new value, equal to the one the last call built
HASHED_VALUES = {
    "ValueInterval": lambda: ValueInterval(Fraction(-3, 2), Fraction(7)),
    "ProbInterval": lambda: iv("0.2", "1/3"),
    "Const": lambda: Const("x"),
    "Num": lambda: Num("2/3"),
    "FuncTerm": lambda: FuncTerm("f", (Const("x"), Num("0.5"))),
    "Atom": lambda: Atom("p", (Const("x"), FuncTerm("f", (Num("3"),)))),
    "HybridFormula": lambda: HybridFormula((Atom("a"), Atom("b", (Num("1"),))), "or", "ncd"),
}


@pytest.mark.parametrize("name", sorted(HASHED_VALUES))
def test_equal_values_hash_equal_and_find_each_other(name):
    build = HASHED_VALUES[name]
    x, y = build(), build()
    assert x is not y and x == y
    assert hash(x) == hash(y) == hash(x)
    assert {x: name}[y] == name
    assert y in {x}
    assert not hasattr(x, "__dict__")


def test_interval_hashes_its_fractions_once(monkeypatch):
    calls = []
    fraction_hash = fractions.Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(fractions.Fraction, "__hash__", counted)
    x = iv("0.2", "1/3")
    first = hash(x)
    assert hash(x) == first
    assert len(calls) == 2  # lo and hi, on the first hash only


def test_an_interval_renders_once_and_only_its_fields_compare_print_and_pickle(monkeypatch):
    calls = []
    original = dhpp.model.format_rational

    def counted(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(dhpp.model, "format_rational", counted)
    x, y = iv("0.2", "1/3"), iv("0.2", "1/3")
    assert str(x) == str(x) == "[0.2,1/3]"
    assert len(calls) == 2  # lo and hi, on the first str only
    hash(x)
    truth_leq(x, y)
    assert x == y and repr(x) == repr(y) == "ProbInterval(lo=Fraction(1, 5), hi=Fraction(1, 3))"
    loaded = pickle.loads(pickle.dumps(x))
    assert not any(hasattr(loaded, slot) for slot in ("_text", "_floats", "_hash"))
    assert loaded == x and str(loaded) == str(x)


PICKLED = """
import pickle, sys
from fractions import Fraction
from dhpp.model import Atom, Const, HybridFormula, ProbInterval
values = [
    Atom("p", (Const("x"),)),
    HybridFormula((Atom("a"), Atom("b", (Const("y"),))), "and", "inc"),
    ProbInterval(Fraction(1, 3), Fraction(1, 2)),
]
for v in values:
    hash(v)
"""


def run_under_seed(seed: str, code: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dhpp.__file__).resolve().parent.parent), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_pickled_values_hash_afresh_under_another_hash_seed():
    dumped = run_under_seed("1", PICKLED + "sys.stdout.buffer.write(pickle.dumps(values))")
    found = run_under_seed(
        "2",
        PICKLED + "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "print([v == w and v in set(values) for v, w in zip(loaded, values)])",
        dumped,
    )
    assert found.decode().strip() == "[True, True, True]"


def test_unpickled_intervals_order_as_their_fractions_under_another_hash_seed():
    pairs = tie_pairs()
    for x, y in pairs:
        truth_leq(x, y)  # fills the float slots, which pickling leaves behind
    found = run_under_seed(
        "2",
        "import pickle, sys\n"
        "from dhpp.model import truth_leq\n"
        "pairs = pickle.loads(sys.stdin.buffer.read())\n"
        "print(any(hasattr(v, '_floats') for pair in pairs for v in pair))\n"
        "print([(truth_leq(x, y), truth_leq(y, x)) for x, y in pairs])",
        pickle.dumps(pairs),
    )
    cached, orders = found.decode().splitlines()
    assert cached == "False"
    assert orders == str([(fraction_leq(x, y), fraction_leq(y, x)) for x, y in pairs])
