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

Sums and the joint probability run on integer numerators and denominators
and are reduced to a Fraction once, so the arithmetic stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .model import Num, ProbInterval, Term, ValueInterval


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
    """Componentwise product of the member annotations; [1,1] when empty.

    The numerators and the denominators are multiplied as integers and each
    endpoint is reduced once; when the two products agree, as they do when
    every member is a point, hi is lo."""
    lo_num = lo_den = hi_num = hi_den = 1
    for _, prob in ms:
        lo_num *= prob.lo.numerator
        lo_den *= prob.lo.denominator
        hi_num *= prob.hi.numerator
        hi_den *= prob.hi.denominator
    lo = Fraction(lo_num, lo_den)
    hi = lo if (hi_num, hi_den) == (lo_num, lo_den) else Fraction(hi_num, hi_den)
    return ProbInterval(lo, hi)


def _numeric_values(ms: Multiset) -> list[Fraction] | None:
    values = []
    for term, _ in ms:
        if not isinstance(term, Num):
            return None
        values.append(term.value)
    return values


def _exact_sum(terms) -> Fraction:
    """The sum of n/d over (n, d) integer pairs, on integers, reduced once.

    den stays the lcm of the denominators seen, not their product, so the
    integers stay about as small as a stepwise Fraction sum's."""
    num, den = 0, 1
    for n, d in terms:
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def eval_aggregate(func: str, ms: Multiset) -> AggregateResult:
    """Apply one of the eleven aggregate functions to a selected multiset."""
    if func == "countE":
        return EValue(scalar_interval_product(Fraction(len(ms)), joint_probability(ms)))
    if func == "countP":
        return PValue(Fraction(len(ms)), joint_probability(ms))

    values = _numeric_values(ms)
    if values is None:
        return UNDEFINED  # non-numeric members fall outside the domain

    if func == "valE":
        # v * prob summed over the members; a negative v flips prob's ends
        lows, highs = [], []
        for v, (_, p) in zip(values, ms):
            lo, hi = (p.lo, p.hi) if v.numerator >= 0 else (p.hi, p.lo)
            lows.append((v.numerator * lo.numerator, v.denominator * lo.denominator))
            highs.append((v.numerator * hi.numerator, v.denominator * hi.denominator))
        return EValue(ValueInterval(_exact_sum(lows), _exact_sum(highs)))

    if func in ("minE", "maxE", "minP", "maxP") and not ms:
        return UNDEFINED

    if func.startswith("sum"):
        x = _exact_sum((v.numerator, v.denominator) for v in values)
    elif func.startswith("times"):
        x = Fraction(1)
        for v in values:
            x *= v
    elif func.startswith("min"):
        x = min(values)
    else:
        x = max(values)

    if func.endswith("E"):
        return EValue(scalar_interval_product(x, joint_probability(ms)))
    return PValue(x, joint_probability(ms))
