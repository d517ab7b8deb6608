"""Probabilistic combination strategies.

A p-strategy is a commutative, associative composition over probability
intervals, tagged conjunctive or disjunctive. Disjunctive strategies combine
the evidence that several satisfied rules give one atom; conjunctive ones
evaluate and-formulae. Composition of a multiset folds the binary function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import DuplicateName, EmptyMultiset, UnknownStrategy
from .model import ProbInterval

Compose = Callable[[ProbInterval, ProbInterval], ProbInterval]

CONJUNCTIVE = "conjunctive"
DISJUNCTIVE = "disjunctive"


@dataclass(frozen=True)
class PStrategy:
    name: str
    kind: str
    compose: Compose = field(compare=False)

    def __post_init__(self):
        if self.kind not in (CONJUNCTIVE, DISJUNCTIVE):
            raise ValueError(f"strategy kind must be conjunctive or disjunctive, got {self.kind!r}")


def compose_fold(strategy: PStrategy, intervals: Iterable[ProbInterval]) -> ProbInterval:
    """Fold the strategy over a nonempty multiset of intervals."""
    items = list(intervals)
    if not items:
        raise EmptyMultiset(f"cannot fold {strategy.name} over an empty multiset")
    acc = items[0]
    for iv in items[1:]:
        acc = strategy.compose(acc, iv)
    return acc


class StrategyRegistry:
    """Mutable name -> strategy table; read-only once a program is loaded."""

    def __init__(self):
        self._table: dict[str, PStrategy] = {}

    def register(self, name: str, kind: str, compose: Compose) -> "StrategyRegistry":
        if name in self._table:
            raise DuplicateName(f"strategy {name!r} is already registered")
        self._table[name] = PStrategy(name, kind, compose)
        return self

    def get(self, name: str) -> PStrategy:
        strategy = self._table.get(name)
        if strategy is None:
            raise UnknownStrategy(f"unknown strategy {name!r}")
        return strategy

    def get_kind(self, name: str, kind: str) -> PStrategy:
        strategy = self.get(name)
        if strategy.kind != kind:
            raise UnknownStrategy(f"strategy {name!r} is {strategy.kind}, expected {kind}")
        return strategy

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._table))

    def __contains__(self, name: str) -> bool:
        return name in self._table


def _independence_and(x: ProbInterval, y: ProbInterval) -> ProbInterval:
    return ProbInterval(x.lo * y.lo, x.hi * y.hi)


def _independence_or(x: ProbInterval, y: ProbInterval) -> ProbInterval:
    return ProbInterval(x.lo + y.lo - x.lo * y.lo, x.hi + y.hi - x.hi * y.hi)


def _positive_and(x: ProbInterval, y: ProbInterval) -> ProbInterval:
    return ProbInterval(min(x.lo, y.lo), min(x.hi, y.hi))


def _positive_or(x: ProbInterval, y: ProbInterval) -> ProbInterval:
    return ProbInterval(max(x.lo, y.lo), max(x.hi, y.hi))


def builtin_registry() -> StrategyRegistry:
    """Fresh registry with the four built-in strategies.

    inc / ind assume independent events, pcc / pcd assume positive
    correlation. pcd (componentwise max) is the default head strategy.
    """
    registry = StrategyRegistry()
    registry.register("inc", CONJUNCTIVE, _independence_and)
    registry.register("ind", DISJUNCTIVE, _independence_or)
    registry.register("pcc", CONJUNCTIVE, _positive_and)
    registry.register("pcd", DISJUNCTIVE, _positive_or)
    return registry

