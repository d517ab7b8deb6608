"""Surface syntax, one method of _Parser per production.

    rule       :=  head [ ":-" body ] "."  |  ":-" body "."
    head       :=  atom [":" ann] ( "|" atom [":" ann] )*
    body       :=  literal ( "," literal )*
    literal    :=  ["not"] ( aggregate | comparison | formula [":" ann] )
    formula    :=  atom ( ("and"|"or") "[" name "]" atom )*
    aggregate  :=  fname "{" set "}" cmp guard [":" ann]
    set        :=  member                                  (symbolic)
               |   [ "<" member ">" ( "," "<" member ">" )* ]    (ground)
    member     :=  term ":" ann "|" formula [":" ann] ( "," formula [":" ann] )*
    ann        :=  item | "[" item "," item "]"        (item: constant,
                   variable, or pmul/pcomp/pmin/pmax/padd application)
    guard      :=  term | "[" term "," term "]"
    cmp        :=  "=" "!=" "<" ">" "<=" ">="
    directive  :=  "#" ( "tau" "(" pred "," | "default_tau" "(" ) strategy ")" "."

Every "x ( sep x )*" above, and the argument lists of function terms and
annotation functions, is read by _Parser.sequence. Comments run from % to
end of line. An omitted annotation means [1,1] and a single annotation item
p means [p,p]. A headless rule ":- body." is a constraint: it derives
nothing, and no model may satisfy its body. The classical reader in
classical.py reads its rules with the same rule, sequence and atom
productions.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Callable, NamedTuple, TypeVar

from .errors import DhppError, ParseError, UnknownAggregateFunction, UnsafeVariable
from .model import (
    AGG_FUNCS,
    AggregateAtom,
    AnnConst,
    AnnFunc,
    AnnItem,
    Annotation,
    AnnotationLike,
    AnnVar,
    ANNOTATION_FUNCTIONS,
    annotation_variables,
    ArithTerm,
    Atom,
    BuiltinComparison,
    BodyLiteral,
    COMPARATORS,
    Const,
    FuncTerm,
    GroundPair,
    GroundSet,
    HybridFormula,
    item_variables,
    Num,
    ONE,
    ProbabilitySet,
    ProbInterval,
    Program,
    Rule,
    Term,
    term_variables,
    Var,
)
from .strategies import CONJUNCTIVE, DISJUNCTIVE, StrategyRegistry, builtin_registry

_T = TypeVar("_T")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<implies>:-)"
    r"|(?P<le><=)|(?P<ge>>=)|(?P<ne>!=)"
    r"|(?P<rat>\d+/\d+)"
    r"|(?P<dec>\d+\.\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<var>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<ident>[a-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[.,|()\[\]{}:<>=*+\-#])"
)

_NEGATED_CMP = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


class Token(NamedTuple):
    kind: str  # "num" | "var" | "ident" | punctuation text | "eof"
    text: str
    line: int
    col: int


# token kind per group of _TOKEN_RE: whitespace and comments (None) make no
# token, and a group not listed (":-", comparators, punctuation) is its text
_KINDS = {
    "ws": None, "comment": None, "rat": "num", "dec": "num", "int": "num", "var": "var", "ident": "ident",
}


def tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # the current line and the offset where it starts
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = _KINDS.get(m.lastgroup, "")
        end = m.end()
        if kind is None:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                start = text.rindex("\n", pos, end) + 1
        else:
            raw = m.group()
            tokens.append(Token(kind or raw, raw, line, pos - start + 1))
        pos = end
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", filename, line, pos - start + 1)
    tokens.append(Token("eof", "", line, pos - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, filename: str, registry: StrategyRegistry | None = None):
        self.tokens = tokenize(text, filename)
        self.tokens.append(self.tokens[-1])  # a lookahead from eof sees eof
        self.filename = filename
        self.registry = registry if registry is not None else builtin_registry()
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # pos stops at the first eof, so ahead <= 1 stays inside the tokens
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.tokens[self.pos].kind == kind:
            return self.next()
        return None

    def accept_not(self) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind == "ident" and tok.text == "not":
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            expected = what or repr(kind)
            raise self.error(f"expected {expected}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.filename, tok.line, tok.col)

    @contextmanager
    def located(self, tok: Token):
        """A block in which an error raised by a validation of the model,
        which has no source position, gets that of tok, where the construct
        it rejects starts."""
        try:
            yield
        except DhppError as exc:
            if exc.line is None:
                exc.filename, exc.line, exc.col = self.filename, tok.line, tok.col
            raise

    def sequence(self, parse_item: Callable[[], _T], separator: str = ",") -> tuple[_T, ...]:
        """item ( separator item )*"""
        items = [parse_item()]
        while self.accept(separator):
            items.append(parse_item())
        return tuple(items)

    # -- programs and rules -------------------------------------------------

    def parse_program(self, program: Program) -> Program:
        while not self.at("eof"):
            if self.accept("#"):
                self.parse_directive(program)
                continue
            start = self.peek()
            rule = Rule(*self.parse_rule(self.parse_head_literal, self.parse_body_literal))
            self.check_safety(rule, start)
            program.rules.append(rule)
        return program

    def parse_directive(self, program: Program) -> None:
        name = self.expect("ident", "a directive name")
        if name.text not in ("tau", "default_tau"):
            raise self.error(f"unknown directive #{name.text}", name)
        self.expect("(")
        pred = None
        if name.text == "tau":
            pred = self.expect("ident", "a predicate name").text
            self.expect(",")
        strat = self.expect("ident", "a strategy name")
        self.expect(")")
        self.expect(".")
        with self.located(strat):
            self.registry.get_kind(strat.text, DISJUNCTIVE)
        if pred is None:
            program.default_tau = strat.text
        else:
            program.tau[pred] = strat.text

    def parse_rule(
        self, head_literal: Callable[[], object], body_literal: Callable[[], tuple[object, bool]]
    ) -> tuple[tuple, tuple, tuple]:
        """The head, positive body and negative body of a rule whose body
        literals are read as (literal, negated)."""
        head = () if self.at(":-") else self.sequence(head_literal, "|")
        pos = []
        neg = []
        if self.accept(":-"):
            for literal, negated in self.sequence(body_literal):
                (neg if negated else pos).append(literal)
        self.expect(".")
        return head, tuple(pos), tuple(neg)

    def parse_head_literal(self) -> tuple[Atom, AnnotationLike]:
        return self.parse_atom(), self.parse_optional_annotation()

    def parse_body_literal(self) -> tuple[BodyLiteral, bool]:
        """A literal and whether it is negative; a negated comparison is its
        complement, a positive literal."""
        negated = self.accept_not()
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind == "{":
            if tok.text not in AGG_FUNCS:
                with self.located(tok):
                    raise UnknownAggregateFunction(
                        f"{self.filename}:{tok.line}:{tok.col}: unknown aggregate function {tok.text!r}"
                    )
            return self.parse_aggregate(), negated
        term = self.parse_term()
        cmp_tok = self.peek()
        if cmp_tok.kind in COMPARATORS:
            self.next()
            right = self.parse_term()
            op = cmp_tok.kind if not negated else _NEGATED_CMP[cmp_tok.kind]
            if self.at(":"):
                raise self.error("comparisons cannot be annotated")
            return (BuiltinComparison(term, op, right), ONE), False
        return self.parse_formula_literal(self.term_to_atom(term, tok)), negated

    def parse_formula_literal(self, first: Atom | None = None) -> tuple[HybridFormula, AnnotationLike]:
        return self.parse_formula(first), self.parse_optional_annotation()

    # -- aggregates and sets ------------------------------------------------

    def parse_aggregate(self) -> BodyLiteral:
        name = self.expect("ident")
        self.expect("{")
        pset = self.parse_set()
        self.expect("}")
        cmp_tok = self.peek()
        if cmp_tok.kind not in COMPARATORS:
            raise self.error("expected a comparator after the aggregate set")
        self.next()
        if self.accept("["):
            lo = self.parse_term()
            self.expect(",")
            hi = self.parse_term()
            self.expect("]")
        else:
            lo = hi = self.parse_term()
        atom = AggregateAtom(name.text, pset, cmp_tok.kind, lo, hi)
        return atom, self.parse_optional_annotation()

    def parse_set(self) -> ProbabilitySet | GroundSet:
        if self.at("}"):
            return GroundSet(())
        if self.at("<"):
            return GroundSet(self.sequence(self.parse_ground_pair))
        return ProbabilitySet(*self.parse_member())

    def parse_member(self) -> tuple[Term, Annotation, tuple[tuple[HybridFormula, AnnotationLike], ...]]:
        value = self.parse_term()
        self.expect(":")
        start = self.peek()
        prob = self.parse_annotation()
        # constant ends out of order raise here, as on heads and bodies; the
        # annotation itself is evaluated when the set is ground
        with self.located(start):
            _constant_interval(prob)
        self.expect("|")
        return value, prob, self.sequence(self.parse_formula_literal)

    def parse_ground_pair(self) -> GroundPair:
        start = self.expect("<")
        value, prob, condition = self.parse_member()
        self.expect(">")
        interval = _constant_interval(prob)
        if interval is None:
            raise self.error("ground pair annotations must be constants", start)
        for formula, ann in condition:
            if not isinstance(ann, ProbInterval) or not formula.is_ground():
                raise self.error("ground pair conditions must be ground", start)
        return GroundPair(value, interval, condition)

    # -- formulae, atoms, terms ---------------------------------------------

    def term_to_atom(self, term: Term, tok: Token) -> Atom:
        if isinstance(term, Const):
            return Atom(term.name)
        if isinstance(term, FuncTerm):
            return Atom(term.name, term.args)
        raise self.error(f"expected an atom, found {term}", tok)

    def parse_atom(self) -> Atom:
        tok = self.peek()
        return self.term_to_atom(self.parse_term(), tok)

    def parse_formula(self, first: Atom | None = None) -> HybridFormula:
        """The formula, or the rest of it after its first atom."""
        atoms = [first if first is not None else self.parse_atom()]
        connective = strategy = None
        while True:
            tok = self.peek()
            if not (tok.kind == "ident" and tok.text in ("and", "or") and self.peek(1).kind == "["):
                break
            if connective is None:
                connective = tok.text
            elif tok.text != connective:
                raise self.error("a formula uses a single connective", tok)
            self.next()
            self.expect("[")
            strat = self.expect("ident", "a strategy name")
            if strategy is None:
                strategy = strat.text
                with self.located(strat):
                    self.registry.get_kind(strategy, CONJUNCTIVE if connective == "and" else DISJUNCTIVE)
            elif strat.text != strategy:
                raise self.error("a formula uses a single strategy", strat)
            self.expect("]")
            atoms.append(self.parse_atom())
        try:
            return HybridFormula(tuple(atoms), connective, strategy)
        except ValueError as exc:
            raise self.error(str(exc), tok)

    def parse_term(self) -> Term:
        left = self.parse_term_factor()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            right = self.parse_term_factor()
            left = ArithTerm(op, left, right)
        return left

    def parse_term_factor(self) -> Term:
        left = self.parse_term_primary()
        while self.at("*"):
            self.next()
            right = self.parse_term_primary()
            left = ArithTerm("*", left, right)
        return left

    def parse_term_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(tok.text)
        if tok.kind == "-":
            self.next()
            num = self.expect("num", "a number after unary minus")
            return Num(f"-{num.text}")
        if tok.kind == "var":
            self.next()
            return Var(tok.text)
        if tok.kind == "ident":
            self.next()
            if self.accept("("):
                args = self.sequence(self.parse_term)
                self.expect(")")
                return FuncTerm(tok.text, args)
            return Const(tok.text)
        if self.accept("("):
            inner = self.parse_term()
            self.expect(")")
            return inner
        raise self.error(f"expected a term, found {tok.text or 'end of input'!r}", tok)

    # -- annotations ----------------------------------------------------------

    def parse_optional_annotation(self) -> AnnotationLike:
        """[":" ann], as an interval when both ends are constants; [1,1]
        when omitted."""
        if not self.accept(":"):
            return ONE
        start = self.peek()
        ann = self.parse_annotation()
        with self.located(start):
            return _constant_interval(ann) or ann

    def parse_annotation(self) -> Annotation:
        if self.accept("["):
            lo = self.parse_annotation_item()
            self.expect(",")
            hi = self.parse_annotation_item()
            self.expect("]")
            return Annotation(lo, hi)
        item = self.parse_annotation_item()
        return Annotation(item, item)

    def parse_annotation_item(self) -> AnnItem:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            with self.located(tok):
                return AnnConst(tok.text)
        if tok.kind == "-":
            self.next()
            num = self.expect("num", "a number after unary minus")
            with self.located(tok):
                return AnnConst(f"-{num.text}")
        if tok.kind == "var":
            self.next()
            return AnnVar(tok.text)
        if tok.kind == "ident":
            self.next()
            if tok.text not in ANNOTATION_FUNCTIONS:
                raise self.error(f"unknown annotation function {tok.text!r}", tok)
            self.expect("(")
            args = self.sequence(self.parse_annotation_item)
            self.expect(")")
            with self.located(tok):
                return AnnFunc(tok.text, args)
        raise self.error(f"expected an annotation, found {tok.text or 'end of input'!r}", tok)

    # -- safety ----------------------------------------------------------------

    def check_safety(self, rule: Rule, start: Token) -> None:
        """Head and negative-body variables need a positive occurrence.

        Variables local to a symbolic set must be bound inside that set's
        condition. Positive-body occurrences outside plain formulae (guards,
        set globals) are allowed and ground by universe enumeration.
        """
        outside: set[str] = set()  # the rule's variables outside its sets
        sets: list[ProbabilitySet] = []
        for item, ann in rule.pos_body:
            outside |= annotation_variables(ann) | item_variables(item)
            if isinstance(item, AggregateAtom) and isinstance(item.pset, ProbabilitySet):
                sets.append(item.pset)
        positive = outside.union(*map(_set_variables, sets))

        demanded: set[str] = set()
        for atom, ann in rule.head:
            demanded |= atom.variables() | annotation_variables(ann)
        for item, ann in rule.neg_body:
            demanded |= annotation_variables(ann) | item_variables(item)
            if isinstance(item, AggregateAtom) and isinstance(item.pset, ProbabilitySet):
                sets.append(item.pset)
        outside |= demanded

        unsafe = demanded - positive
        if unsafe:
            name = sorted(unsafe)[0]
            raise UnsafeVariable(
                f"variable {name} has no positive body occurrence",
                self.filename,
                start.line,
                start.col,
            )

        # set-local variables must be bindable by the set's own condition
        for pset in sets:
            cond_vars: set[str] = set()
            for formula, ann in pset.condition:
                cond_vars |= formula.variables() | annotation_variables(ann)
            floating = _set_variables(pset) - outside - cond_vars
            if floating:
                name = sorted(floating)[0]
                raise UnsafeVariable(
                    f"set variable {name} does not occur in the set condition",
                    self.filename,
                    start.line,
                    start.col,
                )


def _constant_interval(ann: Annotation) -> ProbInterval | None:
    """ann as an interval when both ends are constants, else None; raises
    InvalidInterval when the constants are out of order."""
    if isinstance(ann.lo, AnnConst) and isinstance(ann.hi, AnnConst):
        return ProbInterval(ann.lo.value, ann.hi.value)
    return None


def _set_variables(pset: ProbabilitySet) -> set[str]:
    out = term_variables(pset.value) | annotation_variables(pset.prob)
    for formula, ann in pset.condition:
        out |= formula.variables() | annotation_variables(ann)
    return out


def parse_program(
    text: str,
    registry: StrategyRegistry | None = None,
    filename: str = "<string>",
    into: Program | None = None,
) -> Program:
    """Parse program text into rules plus strategy directives, in a new
    program or appended to into, as if the texts were concatenated: only a
    directive the text states changes a strategy of into."""
    parser = _Parser(text, filename, registry)
    return parser.parse_program(into if into is not None else Program(rules=[], registry=parser.registry))


def parse_formula(text: str, registry: StrategyRegistry | None = None) -> HybridFormula:
    """Parse a standalone hybrid formula, e.g. from a model file."""
    parser = _Parser(text, "<formula>", registry)
    formula = parser.parse_formula()
    parser.expect("eof", "end of formula")
    return formula


def parse_annotation_item(text: str) -> AnnItem:
    parser = _Parser(text, "<annotation>")
    item = parser.parse_annotation_item()
    parser.expect("eof", "end of annotation")
    return item
