"""Probability aggregate evaluation.

A ground set is a collection of <value : prob | condition> pairs. Under an
interpretation h the pairs whose conditions h satisfies form a multiset of
(value, prob) entries; the eleven aggregate functions map that multiset
either to a value interval (expectation family, suffix E) or to a pair of a
plain value and the joint probability of the selected members (suffix P).
This module holds that arithmetic alone: the pairs are selected where
interpretations are judged, in semantics.build_multiset.

Empty multisets follow the neutral-element conventions: additive functions
start from 0, multiplicative ones from 1, and the joint probability of no
members is [1,1]. min and max have no neutral element and come out
undefined, which is a value here, not an error.

The arithmetic runs on integer numerators and denominators and reduces
each result endpoint to a Fraction once, so it stays exact. A member's
parts are read once per value object: an interval keeps its endpoints'
(model.interval_parts) and a number its own (model.number_parts) in a
slot from the first evaluation that meets it on, so the members a ground
set holds, evaluated again under every interpretation judged, are split
into integers once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .model import interval_parts, Num, number_parts, ProbInterval, Term, ValueInterval


class _Undefined:
    """Result of applying an aggregate outside its domain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _Undefined()


@dataclass(frozen=True)
class EValue:
    """Expectation-family result: a value interval."""

    value: ValueInterval


@dataclass(frozen=True)
class PValue:
    """Probability-family result: plain value plus joint probability."""

    value: Fraction
    prob: ProbInterval


AggregateResult = EValue | PValue | _Undefined

Multiset = list[tuple[Term, ProbInterval]]


def scalar_interval_product(c: Fraction, iv: ValueInterval) -> ValueInterval:
    """c * [lo, hi]; a negative scalar flips the endpoints."""
    a, b = c * iv.lo, c * iv.hi
    if a <= b:
        return ValueInterval(a, b)
    return ValueInterval(b, a)


def joint_probability(ms: Multiset) -> ProbInterval:
    """Componentwise product of the member annotations; [1,1] when empty."""
    return eval_aggregate("countP", ms).prob


def eval_aggregate(func: str, ms: Multiset) -> AggregateResult:
    """Apply one of the eleven aggregate functions to a selected multiset,
    in one walk of it over its members' integer parts.

    The classical value is n/m, and the joint probability of the members
    [lo_n/lo_d, hi_n/hi_d]; valE sums v * prob into [n/m, e/f] instead.
    Sums keep m the lcm of the denominators seen, not their product, so the
    integers stay about as small as a stepwise Fraction sum's; that step is
    written out at each sum, as a call per member would cost more."""
    kind = func[:-1]  # the name without the family suffix
    if not ms and (kind == "min" or kind == "max"):
        return UNDEFINED
    lo_n = lo_d = hi_n = hi_d = 1
    n, m, e, f = (1 if kind == "times" else 0), 1, 0, 1
    best = None
    for term, prob in ms:
        try:
            a, b, c, d = prob._parts
        except AttributeError:
            a, b, c, d = interval_parts(prob)
        if kind != "val":
            lo_n *= a
            lo_d *= b
            hi_n *= c
            hi_d *= d
            if kind == "count":
                continue
        try:
            p, q = term._parts
        except AttributeError:
            if not isinstance(term, Num):
                return UNDEFINED  # non-numeric members fall outside the domain
            p, q = number_parts(term)
        if kind == "sum":
            if q == m:
                n += p
            else:
                g = gcd(m, q)
                n = n * (q // g) + p * (m // g)
                m = m // g * q
        elif kind == "val":
            # v * prob, whose ends a negative v swaps
            if p < 0:
                a, b, c, d = c, d, a, b
            p, q, s, t = p * a, q * b, p * c, q * d
            if q == m:
                n += p
            else:
                g = gcd(m, q)
                n = n * (q // g) + p * (m // g)
                m = m // g * q
            if t == f:
                e += s
            else:
                g = gcd(f, t)
                e = e * (t // g) + s * (f // g)
                f = f // g * t
        elif kind == "times":
            n *= p
            m *= q
        elif best is None or (p * m < n * q if kind == "min" else p * m > n * q):
            best, n, m = term, p, q
    if kind == "val":
        return EValue(ValueInterval.from_parts(n, m, e, f))
    if kind == "count":
        n = len(ms)
    if func[-1] == "P":
        value = best.value if best is not None else Fraction(n, m)
        return PValue(value, ProbInterval.from_parts(lo_n, lo_d, hi_n, hi_d))
    # n/m times the joint probability, whose ends a negative n/m swaps
    if n < 0:
        lo_n, lo_d, hi_n, hi_d = hi_n, hi_d, lo_n, lo_d
    return EValue(ValueInterval.from_parts(n * lo_n, m * lo_d, n * hi_n, m * hi_d))
