"""Classical disjunctive programs and their probability embedding.

A classical program is the annotation-free fragment: ground atoms, default
negation, and optionally aggregates whose members are value/atom pairs.
translate_dlp maps such a program to a probability program in which every
annotation is [1,1]; answer sets then correspond one to one with the
classical ones ("assigned [1,1] exactly when the atom is in the answer
set").  classical_oracle is an independent brute-force reference used to
test that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import TooLarge, UnsupportedConstruct
from .model import (
    COMPARATORS,
    ONE,
    AggregateAtom,
    Atom,
    GroundPair,
    GroundSet,
    HybridFormula,
    Num,
    Program,
    Rule,
    Term,
)
from .parser import _Parser
from .strategies import builtin_registry

# classical aggregate name -> probability counterpart
CLASSICAL_AGG_FUNCS = {
    "count": "countP",
    "sum": "sumP",
    "times": "timesP",
    "min": "minP",
    "max": "maxP",
}


@dataclass(frozen=True)
class ClassicalAggregate:
    """func { v1 : a1, ..., vn : an } cmp bound over the member atoms."""

    func: str
    members: tuple[tuple[Term, Atom], ...]
    cmp: str
    bound: Fraction

    def __post_init__(self):
        if self.func not in CLASSICAL_AGG_FUNCS:
            raise ValueError(f"unknown classical aggregate {self.func!r}")
        if self.cmp not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.cmp!r}")

    def __str__(self) -> str:
        inner = ", ".join(f"{v} : {a}" for v, a in self.members)
        bound = Num(self.bound)
        return f"{self.func}{{{inner}}} {self.cmp} {bound}"


@dataclass(frozen=True)
class ClassicalRule:
    """Disjunctive rule; an empty head makes it a constraint."""

    head: tuple[Atom, ...] = ()
    pos: tuple[Atom | ClassicalAggregate, ...] = ()
    neg: tuple[Atom, ...] = ()

    def __post_init__(self):
        if not (self.head or self.pos or self.neg):
            raise ValueError("a rule needs a head or a body")

    def __str__(self) -> str:
        head = " | ".join(str(a) for a in self.head)
        parts = [str(p) for p in self.pos]
        parts += [f"not {a}" for a in self.neg]
        if parts and head:
            return f"{head} :- {', '.join(parts)}."
        if parts:
            return f":- {', '.join(parts)}."
        return f"{head}."


@dataclass
class ClassicalProgram:
    rules: list[ClassicalRule] = field(default_factory=list)

    def atoms(self) -> list[Atom]:
        seen: set[Atom] = set()
        for rule in self.rules:
            seen.update(rule.head)
            seen.update(rule.neg)
            for item in rule.pos:
                if isinstance(item, Atom):
                    seen.add(item)
                else:
                    seen.update(a for _, a in item.members)
        return sorted(seen, key=str)

    def has_aggregates(self) -> bool:
        return any(
            isinstance(item, ClassicalAggregate)
            for rule in self.rules
            for item in rule.pos
        )

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules) + "\n"


# ---------------------------------------------------------------------------
# Classical satisfaction and the brute-force oracle


def _aggregate_holds(agg: ClassicalAggregate, interp: frozenset[Atom]) -> bool:
    selected = [value for value, atom in agg.members if atom in interp]
    if agg.func == "count":
        x = Fraction(len(selected))
    else:
        if not all(isinstance(v, Num) for v in selected):
            return False  # non-numeric members fall outside the domain
        values = [v.value for v in selected]
        if agg.func == "sum":
            x = sum(values, Fraction(0))
        elif agg.func == "times":
            x = Fraction(1)
            for v in values:
                x *= v
        elif not values:
            return False  # min/max of nothing is undefined
        elif agg.func == "min":
            x = min(values)
        else:
            x = max(values)
    return {
        "=": x == agg.bound,
        "!=": x != agg.bound,
        "<": x < agg.bound,
        ">": x > agg.bound,
        "<=": x <= agg.bound,
        ">=": x >= agg.bound,
    }[agg.cmp]


def body_holds(rule: ClassicalRule, interp: frozenset[Atom]) -> bool:
    for item in rule.pos:
        if isinstance(item, Atom):
            if item not in interp:
                return False
        elif not _aggregate_holds(item, interp):
            return False
    return all(a not in interp for a in rule.neg)


def rule_holds(rule: ClassicalRule, interp: frozenset[Atom]) -> bool:
    return not body_holds(rule, interp) or any(a in interp for a in rule.head)


def is_model(program: ClassicalProgram, interp: frozenset[Atom]) -> bool:
    return all(rule_holds(r, interp) for r in program.rules)


def _gl_reduct(
    program: ClassicalProgram, interp: frozenset[Atom]
) -> list[tuple[tuple[Atom, ...], tuple[Atom, ...]]]:
    # negation-free reduct: drop blocked rules, strip "not" from the rest
    out = []
    for rule in program.rules:
        if any(a in interp for a in rule.neg):
            continue
        pos = tuple(item for item in rule.pos if isinstance(item, Atom))
        out.append((rule.head, pos))
    return out


def _subsets_below(mask: int):
    # proper submasks of mask, largest first; nothing below the empty mask
    sub = (mask - 1) & mask
    while mask:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def classical_oracle(
    program: ClassicalProgram, max_atoms: int = 12
) -> list[frozenset[Atom]]:
    """All answer sets by exhaustive search, for small ground programs.

    Negation is handled with the standard negation-free reduct.  When
    aggregates are present the whole body is kept instead and re-evaluated
    inside the minimality check, which agrees with the reduct semantics on
    aggregate-free programs.
    """
    atoms = program.atoms()
    if len(atoms) > max_atoms:
        raise TooLarge(f"{len(atoms)} atoms exceed the oracle limit {max_atoms}")
    if not all(a.is_ground() for a in atoms):
        raise UnsupportedConstruct("the oracle handles ground programs only")

    whole_body = program.has_aggregates()
    answer_sets: list[frozenset[Atom]] = []
    for mask in range(1 << len(atoms)):
        interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if not is_model(program, interp):
            continue
        kept = ClassicalProgram([r for r in program.rules if body_holds(r, interp)])
        reduct = _gl_reduct(program, interp)
        minimal = True
        for sub in _subsets_below(mask):
            sub_interp = frozenset(a for i, a in enumerate(atoms) if sub >> i & 1)
            if whole_body:
                smaller = is_model(kept, sub_interp)
            else:
                smaller = all(
                    not set(pos) <= sub_interp or any(a in sub_interp for a in head)
                    for head, pos in reduct
                )
            if smaller:
                minimal = False
                break
        if minimal:
            answer_sets.append(interp)
    answer_sets.sort(key=lambda s: sorted(str(a) for a in s))
    return answer_sets


# ---------------------------------------------------------------------------
# Embedding into the probability language


def _translate_aggregate(agg: ClassicalAggregate) -> AggregateAtom:
    pairs = []
    for value, atom in agg.members:
        if not atom.is_ground():
            raise UnsupportedConstruct("aggregate members must be ground")
        pairs.append(
            GroundPair(value, ONE, ((HybridFormula.atomic(atom), ONE),))
        )
    bound = Num(agg.bound)
    return AggregateAtom(
        CLASSICAL_AGG_FUNCS[agg.func], GroundSet(tuple(pairs)), agg.cmp, bound, bound
    )


def translate_dlp(program: ClassicalProgram) -> Program:
    """Annotate everything with [1,1]; aggregates go to their P-family twin,
    and constraints stay headless.

    An interpretation of the result assigns each atom [1,1] or [0,0], and
    it is an answer set exactly when the [1,1] atoms form a classical
    answer set of the input.
    """
    rules = []
    for rule in program.rules:
        pos = []
        neg = [(HybridFormula.atomic(a), ONE) for a in rule.neg]
        for item in rule.pos:
            if isinstance(item, Atom):
                pos.append((HybridFormula.atomic(item), ONE))
            else:
                pos.append((_translate_aggregate(item), ONE))
        head = tuple((a, ONE) for a in rule.head)
        rules.append(Rule.from_normal(head, tuple(pos), tuple(neg)))
    return Program(rules=rules, registry=builtin_registry())


def answer_set_atoms(h) -> frozenset[Atom]:
    """Atoms assigned [1,1]; the inverse of the embedding on answer sets."""
    out = set()
    for formula, value in h.entries:
        if formula.is_atomic and value == ONE:
            out.add(formula.atoms[0])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Reader for the classical surface syntax


class _ClassicalParser(_Parser):
    def parse_classical_program(self) -> ClassicalProgram:
        program = ClassicalProgram()
        while not self.at("eof"):
            parts = self.parse_rule(self.parse_plain_atom, self.parse_classical_literal)
            program.rules.append(ClassicalRule(*parts))
        return program

    def parse_classical_literal(self) -> tuple[Atom | ClassicalAggregate, bool]:
        if self.accept_not():
            return self.parse_plain_atom(), True
        tok = self.peek()
        if tok.kind == "ident" and tok.text in CLASSICAL_AGG_FUNCS and self.peek(1).kind == "{":
            return self.parse_classical_aggregate(), False
        return self.parse_plain_atom(), False

    def parse_plain_atom(self) -> Atom:
        tok = self.peek()
        atom = self.parse_atom()
        if not atom.is_ground():
            raise self.error("classical atoms must be ground", tok)
        return atom

    def parse_classical_member(self) -> tuple[Term, Atom]:
        value = self.parse_term()
        self.expect(":")
        return value, self.parse_plain_atom()

    def parse_classical_aggregate(self) -> ClassicalAggregate:
        func = self.next().text
        self.expect("{")
        members = () if self.at("}") else self.sequence(self.parse_classical_member)
        self.expect("}")
        cmp_tok = self.next()
        if cmp_tok.kind not in COMPARATORS:
            raise self.error(f"expected a comparator, found {cmp_tok.text!r}", cmp_tok)
        bound_tok = self.peek()
        bound = self.parse_term()
        if not isinstance(bound, Num):
            raise self.error("aggregate bound must be a number", bound_tok)
        return ClassicalAggregate(func, members, cmp_tok.kind, bound.value)


def parse_classical(text: str, filename: str = "<string>") -> ClassicalProgram:
    """Read a ground classical program: `a | b :- c, not d, count{...} >= n.`"""
    return _ClassicalParser(text, filename).parse_classical_program()
