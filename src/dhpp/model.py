"""Core data model: intervals, terms, formulae, annotations, rules, interpretations.

Probabilities are closed rational intervals inside [0, 1] ordered by the
truth order (componentwise <=). Every structure is a frozen dataclass so
values can be shared freely and used as dictionary keys. Intervals,
constants, numbers, function terms, atoms and hybrid formulae, the keys of
the solver's maps, are slotted and hash each value once: the first hash()
is kept in a slot, so a lookup does not walk the value's tree down to its
Fractions. All arithmetic is exact via fractions.Fraction; floats are
rejected to keep golden values bit-for-bit reproducible. The truth order
reads each interval's endpoints rounded to floats, kept in a slot like the
hash, but only to settle comparisons those floats decide exactly (see
truth_leq); an interval's text is kept the same way from its first str(),
and the integer parts of its endpoints, like a number's, from the first
aggregate evaluation that reads them (interval_parts, number_parts).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import inf, prod
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Union

from .errors import (
    AnnotationRangeError,
    ConstantOutOfRange,
    InvalidInterval,
    UnboundAnnotationVariable,
    UnknownAggregateFunction,
    UnknownAnnotationFunction,
)

Rational = Union[Fraction, int, str]


def as_fraction(value: Rational) -> Fraction:
    """Coerce to Fraction, rejecting floats so precision never leaks away."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected Fraction, int or str, got {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Exact decimal when the denominator is 2^a * 5^b, else num/den."""
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    e2 = e5 = 0
    while d % 2 == 0:
        d //= 2
        e2 += 1
    while d % 5 == 0:
        d //= 5
        e5 += 1
    if d != 1:
        return f"{q.numerator}/{q.denominator}"
    exp = max(e2, e5)
    scaled = q.numerator * 10**exp // q.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(exp + 1, "0")
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


class _HashOnce:
    """Base of the value classes made by _value_class.

    The _hash slot holds the hash of the compared fields from the first
    hash() on. It is no dataclass field, so pickling leaves it behind: a
    value loaded under another PYTHONHASHSEED hashes afresh.
    """

    __slots__ = ("_hash",)


def _value_class(cls):
    """A frozen slotted dataclass whose hash is computed on first use and
    kept: a value that keys no map is never hashed, and one that keys many,
    as each ground atom does, made once by the grounder, is hashed once."""
    cls = dataclass(frozen=True, slots=True)(cls)
    key = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
            return h

    # set after the decorator, which would otherwise generate a hash of its own
    cls.__hash__ = __hash__
    return cls


def _quotient_float(n: int, d: int) -> float:
    """n/d, d > 0, correctly rounded to a float, or -inf/inf beyond the
    float range. Integer true division rounds the exact quotient, so n/d
    need not be reduced."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


class _Interval(_HashOnce):
    """Base of the interval classes.

    The _floats slot holds (lo, hi) rounded to floats from the first
    truth_leq on, _text the interval's str from the first str on, and
    _parts (lo numerator, lo denominator, hi numerator, hi denominator)
    from the first interval_parts on. Like _hash they are no dataclass
    fields, so equality, repr and pickling ignore them, and a loaded value
    rounds, renders and splits afresh.
    """

    __slots__ = ("_floats", "_text", "_parts")


# the kept slots are set through their descriptors, which a frozen class's
# __setattr__ does not guard, and faster than object.__setattr__ finds them
_keep_floats = _Interval._floats.__set__
_keep_interval_parts = _Interval._parts.__set__


def _endpoint_floats(x: "ValueInterval") -> tuple[float, float]:
    lo, hi = x.lo, x.hi
    floats = (_quotient_float(lo.numerator, lo.denominator), _quotient_float(hi.numerator, hi.denominator))
    _keep_floats(x, floats)
    return floats


@_value_class
class ValueInterval(_Interval):
    """Closed rational interval [lo, hi], not restricted to [0, 1]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise InvalidInterval(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: Rational):
        v = as_fraction(value)
        return cls(v, v)

    @classmethod
    def from_parts(cls, lo_n: int, lo_d: int, hi_n: int, hi_d: int):
        """[lo_n/lo_d, hi_n/hi_d] from integer parts, denominators positive,
        known to make a valid cls (lo <= hi and, for a ProbInterval, both
        within [0, 1]), as aggregate results are built, so not checked
        again. Each endpoint is reduced to a Fraction once, hi is lo when
        the parts agree, and the floats truth_leq reads are kept at once,
        rounded from the parts."""
        lo, lo_f = Fraction(lo_n, lo_d), _quotient_float(lo_n, lo_d)
        if hi_n == lo_n and hi_d == lo_d:
            hi, hi_f = lo, lo_f
        else:
            hi, hi_f = Fraction(hi_n, hi_d), _quotient_float(hi_n, hi_d)
        x = object.__new__(cls)
        _set_lo(x, lo)
        _set_hi(x, hi)
        _keep_floats(x, (lo_f, hi_f))
        return x

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = f"[{format_rational(self.lo)},{format_rational(self.hi)}]"
            object.__setattr__(self, "_text", text)
            return text


class ProbInterval(ValueInterval):
    """Probability interval, endpoints within [0, 1].

    No dataclass of its own: that would replace the inherited hash.
    """

    __slots__ = ()

    def __post_init__(self):
        ValueInterval.__post_init__(self)
        if self.lo < 0 or self.hi > 1:
            raise InvalidInterval(f"probability interval outside [0,1]: [{self.lo}, {self.hi}]")


# from_parts sets a new interval's fields as the kept slots are set
_set_lo, _set_hi = ValueInterval.lo.__set__, ValueInterval.hi.__set__

ZERO = ProbInterval(0, 0)
ONE = ProbInterval(1, 1)


def interval_parts(x: ValueInterval) -> tuple[int, int, int, int]:
    """(lo numerator, lo denominator, hi numerator, hi denominator) of x,
    kept in its _parts slot by the first call, and read from it after."""
    try:
        return x._parts
    except AttributeError:
        parts = x.lo.as_integer_ratio() + x.hi.as_integer_ratio()
        _keep_interval_parts(x, parts)
        return parts


def truth_leq(x: ValueInterval, y: ValueInterval) -> bool:
    """Truth order: [a1,b1] <=_t [a2,b2] iff a1 <= a2 and b1 <= b2.

    Exact, though decided mostly on floats. An endpoint's float is its
    Fraction correctly rounded (integer true division), or -inf/inf beyond
    the float range, and rounding is monotone: p <= q implies fl(p) <=
    fl(q). So fl(p) > fl(q) proves p > q, and fl(p) < fl(q) proves p < q;
    only endpoints whose floats are equal are compared as Fractions.
    """
    if x is y:
        return True
    try:
        xlo, xhi = x._floats
    except AttributeError:
        xlo, xhi = _endpoint_floats(x)
    try:
        ylo, yhi = y._floats
    except AttributeError:
        ylo, yhi = _endpoint_floats(y)
    if xlo > ylo or xhi > yhi:
        return False
    return (xlo < ylo or x.lo <= y.lo) and (xhi < yhi or x.hi <= y.hi)


def lo_hi_key(x: ValueInterval) -> tuple:
    """A sort key that orders intervals by (lo, hi). Tuples compare their
    first unequal items, so an endpoint's float decides where it differs
    from the other's, as rounding is monotone (see truth_leq), and only
    endpoints whose floats tie are compared as Fractions."""
    try:
        lo, hi = x._floats
    except AttributeError:
        lo, hi = _endpoint_floats(x)
    return lo, x.lo, hi, x.hi


def truth_lt(x: ValueInterval, y: ValueInterval) -> bool:
    return truth_leq(x, y) and (x.lo, x.hi) != (y.lo, y.hi)


COMPARATORS = ("=", "!=", "<", ">", "<=", ">=")


def interval_compare(x: ValueInterval, op: str, t: ValueInterval) -> bool:
    """Componentwise guard comparison; both operands must compare on both ends.

    Note this is not a total order: [1,5] < [2,3] is false and so is the
    reverse, while = / != always decide.
    """
    if op == "=":
        return x.lo == t.lo and x.hi == t.hi
    if op == "!=":
        return x.lo != t.lo or x.hi != t.hi
    if op == "<":
        return x.lo < t.lo and x.hi < t.hi
    if op == "<=":
        return x.lo <= t.lo and x.hi <= t.hi
    if op == ">":
        return x.lo > t.lo and x.hi > t.hi
    if op == ">=":
        return x.lo >= t.lo and x.hi >= t.hi
    raise ValueError(f"unknown comparator {op!r}")


def scalar_compare(x: Fraction, op: str, t: ValueInterval) -> bool:
    """interval_compare of the point interval [x, x] with t, without
    building it; t.lo <= t.hi, so one end of t decides an inequality."""
    if op == "=":
        return x == t.lo and x == t.hi
    if op == "!=":
        return x != t.lo or x != t.hi
    if op == "<":
        return x < t.lo
    if op == "<=":
        return x <= t.lo
    if op == ">":
        return x > t.hi
    if op == ">=":
        return x >= t.hi
    raise ValueError(f"unknown comparator {op!r}")


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@_value_class
class Const(_HashOnce):
    name: str

    def __str__(self) -> str:
        return self.name


class _Number(_HashOnce):
    """Base of Num. The _parts slot holds (numerator, denominator) of the
    value from the first number_parts on; like _hash it is no dataclass
    field, so equality, repr and pickling ignore it."""

    __slots__ = ("_parts",)


_keep_number_parts = _Number._parts.__set__


@_value_class
class Num(_Number):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))

    def __str__(self) -> str:
        return format_rational(self.value)


def number_parts(t: Num) -> tuple[int, int]:
    """(numerator, denominator) of t's value, kept in its _parts slot as
    interval_parts keeps an interval's."""
    parts = t.value.as_integer_ratio()
    _keep_number_parts(t, parts)
    return parts


@_value_class
class FuncTerm(_HashOnce):
    name: str
    args: "tuple[Term, ...]"

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


_ARITH_PREC = {"+": 1, "-": 1, "*": 2}


@dataclass(frozen=True)
class ArithTerm:
    """Deferred arithmetic over terms, evaluated during grounding."""

    op: str
    left: "Term"
    right: "Term"

    def __post_init__(self):
        if self.op not in _ARITH_PREC:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self) -> str:
        def wrap(child, tight: bool) -> str:
            if isinstance(child, ArithTerm):
                if _ARITH_PREC[child.op] < _ARITH_PREC[self.op] or (
                    tight and _ARITH_PREC[child.op] == _ARITH_PREC[self.op]
                ):
                    return f"({child})"
            return str(child)

        # right operand of - and any operand under * may need parens
        return f"{wrap(self.left, False)}{self.op}{wrap(self.right, self.op == '-')}"


Term = Union[Var, Const, Num, FuncTerm, ArithTerm]


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, FuncTerm):
        out: set[str] = set()
        for a in t.args:
            out |= term_variables(a)
        return out
    if isinstance(t, ArithTerm):
        return term_variables(t.left) | term_variables(t.right)
    return set()


def term_is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, FuncTerm):
        return all(term_is_ground(a) for a in t.args)
    if isinstance(t, ArithTerm):
        # arithmetic must be evaluated away before a term counts as ground
        return False
    return True


def substitute_term(t: Term, env: Mapping[str, Term]) -> Term | None:
    """Apply env and evaluate arithmetic; None when arithmetic hits non-numbers."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, FuncTerm):
        args = []
        for a in t.args:
            s = substitute_term(a, env)
            if s is None:
                return None
            args.append(s)
        return FuncTerm(t.name, tuple(args))
    if isinstance(t, ArithTerm):
        left = substitute_term(t.left, env)
        right = substitute_term(t.right, env)
        if left is None or right is None:
            return None
        if isinstance(left, Num) and isinstance(right, Num):
            if t.op == "+":
                return Num(left.value + right.value)
            if t.op == "-":
                return Num(left.value - right.value)
            return Num(left.value * right.value)
        if term_variables(left) or term_variables(right):
            return ArithTerm(t.op, left, right)
        return None
    return t


# ---------------------------------------------------------------------------
# Atoms and hybrid formulae


@_value_class
class Atom(_HashOnce):
    predicate: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        inner = ",".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"

    def is_ground(self) -> bool:
        return all(term_is_ground(a) for a in self.args)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= term_variables(a)
        return out


@_value_class
class HybridFormula(_HashOnce):
    """Single atom, or two or more distinct atoms under one p-strategy."""

    atoms: tuple[Atom, ...]
    connective: str | None = None  # "and" | "or"
    strategy: str | None = None

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("formula needs at least one atom")
        if len(self.atoms) == 1:
            if self.connective is not None or self.strategy is not None:
                raise ValueError("single-atom formula takes no connective")
        else:
            if self.connective not in ("and", "or") or not self.strategy:
                raise ValueError("compound formula needs a connective and a strategy")
            if len(set(self.atoms)) != len(self.atoms):
                raise ValueError("compound formula atoms must be distinct")

    @classmethod
    def atomic(cls, atom: Atom) -> "HybridFormula":
        return cls((atom,))

    @property
    def is_atomic(self) -> bool:
        return len(self.atoms) == 1

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.atoms)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.atoms:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        if self.is_atomic:
            return str(self.atoms[0])
        joint = f" {self.connective}[{self.strategy}] "
        return joint.join(str(a) for a in self.atoms)


# ---------------------------------------------------------------------------
# Annotations

ANNOTATION_FUNCTIONS: dict[str, tuple[int, int | None, Callable[[list[Fraction]], Fraction]]] = {
    # name -> (min arity, max arity or None for variadic, function)
    "pmul": (2, None, lambda args: prod(args, start=Fraction(1))),
    "pcomp": (1, 1, lambda args: 1 - args[0]),
    "pmin": (2, None, min),
    "pmax": (2, None, max),
    "padd": (2, None, lambda args: min(Fraction(1), sum(args, Fraction(0)))),
}


@dataclass(frozen=True)
class AnnConst:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if self.value < 0 or self.value > 1:
            raise ConstantOutOfRange(f"annotation constant {format_rational(self.value)} outside [0,1]")

    def __str__(self) -> str:
        return format_rational(self.value)


@dataclass(frozen=True)
class AnnVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AnnFunc:
    name: str
    args: "tuple[AnnItem, ...]"

    def __post_init__(self):
        spec = ANNOTATION_FUNCTIONS.get(self.name)
        if spec is None:
            raise UnknownAnnotationFunction(f"unknown annotation function {self.name!r}")
        lo, hi, _ = spec
        if len(self.args) < lo or (hi is not None and len(self.args) > hi):
            raise UnknownAnnotationFunction(
                f"annotation function {self.name!r} does not take {len(self.args)} arguments"
            )

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


AnnItem = Union[AnnConst, AnnVar, AnnFunc]


def _eval_annotation_item(item: AnnItem, env: Mapping[str, Term]) -> Fraction:
    if isinstance(item, AnnConst):
        return item.value
    if isinstance(item, AnnVar):
        bound = env.get(item.name)
        if bound is None:
            raise UnboundAnnotationVariable(f"annotation variable {item.name} is unbound")
        if not isinstance(bound, Num):
            raise UnboundAnnotationVariable(
                f"annotation variable {item.name} bound to non-numeric term {bound}"
            )
        if bound.value < 0 or bound.value > 1:
            raise ConstantOutOfRange(
                f"annotation variable {item.name} bound to {format_rational(bound.value)} outside [0,1]"
            )
        return bound.value
    value = ANNOTATION_FUNCTIONS[item.name][2]([_eval_annotation_item(a, env) for a in item.args])
    if value < 0 or value > 1:
        raise AnnotationRangeError(f"{item} evaluated to {format_rational(value)} outside [0,1]")
    return value


@dataclass(frozen=True)
class Annotation:
    """Interval annotation whose endpoints may mention variables or functions."""

    lo: AnnItem
    hi: AnnItem

    def is_ground(self) -> bool:
        return not annotation_variables(self)

    def evaluate(self, env: Mapping[str, Term]) -> ProbInterval:
        return ProbInterval(_eval_annotation_item(self.lo, env), _eval_annotation_item(self.hi, env))

    def __str__(self) -> str:
        return _annotation_text(self)


AnnotationLike = Union[Annotation, ProbInterval]


def _annotation_text(ann: AnnotationLike) -> str:
    """The annotation as written: p for a point [p,p], else [lo,hi]."""
    text = format_rational if isinstance(ann, ProbInterval) else str
    if ann.lo == ann.hi:
        return text(ann.lo)
    return f"[{text(ann.lo)},{text(ann.hi)}]"


def _item_variables(item: AnnItem) -> set[str]:
    if isinstance(item, AnnVar):
        return {item.name}
    if isinstance(item, AnnFunc):
        out: set[str] = set()
        for a in item.args:
            out |= _item_variables(a)
        return out
    return set()


def annotation_variables(ann: AnnotationLike) -> set[str]:
    if isinstance(ann, ProbInterval):
        return set()
    return _item_variables(ann.lo) | _item_variables(ann.hi)


def evaluate_annotation(ann: AnnotationLike, env: Mapping[str, Term]) -> ProbInterval:
    if isinstance(ann, ProbInterval):
        return ann
    return ann.evaluate(env)


def annotation_suffix(ann: AnnotationLike) -> str:
    """Render ':ann', or nothing for the implicit [1,1]."""
    return "" if ann == ONE else f":{_annotation_text(ann)}"


# ---------------------------------------------------------------------------
# Probability sets and aggregate atoms

E_FUNCS = ("valE", "sumE", "timesE", "minE", "maxE", "countE")
P_FUNCS = ("sumP", "timesP", "minP", "maxP", "countP")
AGG_FUNCS = E_FUNCS + P_FUNCS

Condition = tuple[tuple[HybridFormula, AnnotationLike], ...]


def _member_text(value: Term, prob: AnnotationLike, condition: Condition) -> str:
    conds = ", ".join(str(f) + annotation_suffix(a) for f, a in condition)
    return f"{value} : {_annotation_text(prob)} | {conds}"


@dataclass(frozen=True)
class ProbabilitySet:
    """Symbolic set { value : prob | condition } awaiting grounding."""

    value: Term
    prob: Annotation
    condition: Condition

    def __str__(self) -> str:
        return _member_text(self.value, self.prob, self.condition)


@dataclass(frozen=True)
class GroundPair:
    """One ground member <value : prob | condition> of a ground set."""

    value: Term
    prob: ProbInterval
    condition: tuple[tuple[HybridFormula, ProbInterval], ...]

    def __str__(self) -> str:
        return f"<{_member_text(self.value, self.prob, self.condition)}>"


@dataclass(frozen=True)
class GroundSet:
    pairs: tuple[GroundPair, ...]

    def __str__(self) -> str:
        return ", ".join(str(p) for p in self.pairs)


SetLike = Union[ProbabilitySet, GroundSet]


@dataclass(frozen=True)
class AggregateAtom:
    """Aggregate application compared against a guard interval."""

    func: str
    pset: SetLike
    cmp: str
    guard_lo: Term
    guard_hi: Term

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise UnknownAggregateFunction(f"unknown aggregate function {self.func!r}")
        if self.cmp not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.cmp!r}")

    @property
    def is_e_family(self) -> bool:
        return self.func in E_FUNCS

    def guard_interval(self) -> ValueInterval:
        if not (isinstance(self.guard_lo, Num) and isinstance(self.guard_hi, Num)):
            raise ValueError(f"guard of {self} is not ground")
        return ValueInterval(self.guard_lo.value, self.guard_hi.value)

    @cached_property
    def guard(self) -> ValueInterval:
        """guard_interval(), built on first use and kept with the atom, so a
        guard that is out of order still fails only when it is compared."""
        return self.guard_interval()

    def is_ground(self) -> bool:
        return (
            isinstance(self.pset, GroundSet)
            and isinstance(self.guard_lo, Num)
            and isinstance(self.guard_hi, Num)
        )

    def __str__(self) -> str:
        if self.guard_lo == self.guard_hi:
            guard = str(self.guard_lo)
        else:
            guard = f"[{self.guard_lo},{self.guard_hi}]"
        return f"{self.func}{{{self.pset}}} {self.cmp} {guard}"


@dataclass(frozen=True)
class BuiltinComparison:
    """Comparison over terms, resolved and removed at grounding time."""

    left: Term
    op: str
    right: Term

    def __post_init__(self):
        if self.op not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def holds(self) -> bool:
        """Decide a ground comparison; ordered ops on non-numbers are false."""
        left, right = self.left, self.right
        if isinstance(left, Num) and isinstance(right, Num):
            x = ValueInterval.point(left.value)
            t = ValueInterval.point(right.value)
            return interval_compare(x, self.op, t)
        if self.op == "=":
            return left == right
        if self.op == "!=":
            return left != right
        return False


BodyItem = Union[HybridFormula, AggregateAtom, BuiltinComparison]
BodyLiteral = tuple[BodyItem, AnnotationLike]
HeadLiteral = tuple[Atom, AnnotationLike]


def item_variables(item: BodyItem) -> set[str]:
    """The body item's variables outside any symbolic set."""
    if isinstance(item, HybridFormula):
        return item.variables()
    if isinstance(item, BuiltinComparison):
        return term_variables(item.left) | term_variables(item.right)
    return term_variables(item.guard_lo) | term_variables(item.guard_hi)


# ---------------------------------------------------------------------------
# Rules and programs


def _normalize_body(body: Iterable[BodyLiteral]) -> tuple[BodyLiteral, ...]:
    out = []
    for item, ann in body:
        if isinstance(item, AggregateAtom) and item.is_e_family:
            ann = ONE  # expectation-style aggregates always carry [1,1]
        out.append((item, ann))
    return tuple(out)


@dataclass(frozen=True)
class Rule:
    """Disjunctive rule; an empty head makes it a constraint."""

    head: tuple[HeadLiteral, ...]
    pos_body: tuple[BodyLiteral, ...] = ()
    neg_body: tuple[BodyLiteral, ...] = ()

    def __post_init__(self):
        if not (self.head or self.pos_body or self.neg_body):
            raise ValueError("a rule needs a head or a body")
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "pos_body", _normalize_body(self.pos_body))
        object.__setattr__(self, "neg_body", _normalize_body(self.neg_body))

    @classmethod
    def from_normal(cls, head: tuple, pos_body: tuple, neg_body: tuple) -> "Rule":
        """The rule of tuples already as __post_init__ leaves them, every
        expectation-style aggregate in them at [1,1], kept as they are: the
        translator and the grounder build their bodies so, and normalizing
        them again would copy every body for nothing."""
        if not (head or pos_body or neg_body):
            raise ValueError("a rule needs a head or a body")
        rule = object.__new__(cls)
        object.__setattr__(rule, "head", head)
        object.__setattr__(rule, "pos_body", pos_body)
        object.__setattr__(rule, "neg_body", neg_body)
        return rule

    def is_ground(self) -> bool:
        for atom, ann in self.head:
            if not atom.is_ground() or not isinstance(ann, ProbInterval):
                return False
        for item, ann in self.pos_body + self.neg_body:
            if not isinstance(ann, ProbInterval):
                return False
            if isinstance(item, HybridFormula):
                if not item.is_ground():
                    return False
            elif isinstance(item, AggregateAtom):
                if not item.is_ground():
                    return False
            elif not (term_is_ground(item.left) and term_is_ground(item.right)):
                return False
        return True

    def __str__(self) -> str:
        head = " | ".join(str(a) + annotation_suffix(ann) for a, ann in self.head)
        parts = []
        for item, ann in self.pos_body:
            if isinstance(item, BuiltinComparison):
                parts.append(str(item))
            else:
                parts.append(str(item) + annotation_suffix(ann))
        for item, ann in self.neg_body:
            parts.append("not " + str(item) + annotation_suffix(ann))
        if parts and head:
            return f"{head} :- {', '.join(parts)}."
        if parts:
            return f":- {', '.join(parts)}."
        return f"{head}."


@dataclass
class Program:
    """Rules plus the per-predicate disjunctive strategy assignment."""

    rules: list[Rule]
    tau: dict[str, str] = field(default_factory=dict)
    default_tau: str = "pcd"
    registry: object | None = field(default=None, compare=False, repr=False)

    def tau_name(self, predicate: str) -> str:
        return self.tau.get(predicate, self.default_tau)

    def directives_text(self) -> str:
        lines = [f"#default_tau({self.default_tau})."]
        for pred in sorted(self.tau):
            lines.append(f"#tau({pred}, {self.tau[pred]}).")
        return "\n".join(lines)

    def __str__(self) -> str:
        chunks = [self.directives_text()]
        chunks += [str(r) for r in self.rules]
        return "\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# Interpretations


@dataclass(frozen=True)
class PInterpretation:
    """Finite-support map from hybrid formulae to probability intervals.

    Formulae not in the support implicitly sit at [0,0], so lookups are
    total. Entries are normalized (zero values dropped, canonical order),
    which makes structural equality mean pointwise equality.
    """

    entries: tuple[tuple[HybridFormula, ProbInterval], ...] = ()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[HybridFormula, ProbInterval]]) -> "PInterpretation":
        table: dict[HybridFormula, ProbInterval] = {}
        for formula, value in pairs:
            if formula in table and table[formula] != value:
                raise ValueError(f"conflicting values for {formula}")
            table[formula] = value
        kept = [(f, v) for f, v in table.items() if v != ZERO]
        kept.sort(key=lambda fv: str(fv[0]))
        return cls(tuple(kept))

    @cached_property
    def _table(self) -> dict[HybridFormula, ProbInterval]:
        return dict(self.entries)

    def value(self, formula: HybridFormula) -> ProbInterval:
        return self._table.get(formula, ZERO)

    def support(self) -> tuple[HybridFormula, ...]:
        return tuple(f for f, _ in self.entries)

    def __str__(self) -> str:
        inner = ", ".join(f"{f}:{v}" for f, v in self.entries)
        return "{" + inner + "}"


def interp_leq(h1: PInterpretation, h2: PInterpretation) -> bool:
    """Pointwise truth order over the union of supports.

    Formulae outside supp(h1) sit at [0,0] and cannot break the order, so
    checking supp(h1) suffices.
    """
    return all(truth_leq(v, h2.value(f)) for f, v in h1.entries)


def interp_lt(h1: PInterpretation, h2: PInterpretation) -> bool:
    return interp_leq(h1, h2) and h1 != h2
