"""Surface syntax.

    rule       :=  head [ ":-" body ] "."  |  ":-" body "."
    head       :=  atom [":" ann] ( "|" atom [":" ann] )*
    body       :=  literal ( "," literal )*
    literal    :=  ["not"] ( aggregate | comparison | formula [":" ann] )
    formula    :=  atom ( ("and"|"or") "[" name "]" atom )*
    aggregate  :=  fname "{" set "}" cmp guard [":" ann]
    set        :=  term ":" ann "|" condition          (symbolic)
               |   [ "<" term ":" ann "|" condition ">" , ... ]   (ground)
    ann        :=  item | "[" item "," item "]"        (item: constant,
                   variable, or pmul/pcomp/pmin/pmax/padd application)
    guard      :=  term | "[" term "," term "]"
    cmp        :=  "=" "!=" "<" ">" "<=" ">="

Directives: #tau(pred, strategy). #default_tau(strategy). Comments run from
% to end of line. An omitted annotation means [1,1] and a single annotation
item p means [p,p]. A headless rule ":- body." is a constraint: it derives
nothing, and no model may satisfy its body.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UnknownAggregateFunction, UnsafeVariable
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


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "var" | "ident" | punctuation text | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", filename, line, col)
        group = m.lastgroup
        raw = m.group()
        if group not in ("ws", "comment"):
            if group in ("rat", "dec", "int"):
                tokens.append(Token("num", raw, line, col))
            elif group == "var":
                tokens.append(Token("var", raw, line, col))
            elif group == "ident":
                tokens.append(Token("ident", raw, line, col))
            elif group == "implies":
                tokens.append(Token(":-", raw, line, col))
            else:
                tokens.append(Token(raw, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], filename: str, registry: StrategyRegistry):
        self.tokens = tokens
        self.filename = filename
        self.registry = registry
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or repr(kind)
            raise self.error(f"expected {expected}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.filename, tok.line, tok.col)

    # -- entry points -------------------------------------------------------

    def parse_program(self, program: Program) -> Program:
        while not self.at("eof"):
            if self.accept("#"):
                self.parse_directive(program)
                continue
            start = self.peek()
            rule = self.parse_rule()
            self.check_safety(rule, start)
            program.rules.append(rule)
        return program

    def parse_directive(self, program: Program) -> None:
        name = self.expect("ident", "a directive name")
        if name.text == "tau":
            self.expect("(")
            pred = self.expect("ident", "a predicate name").text
            self.expect(",")
            strat = self.expect("ident", "a strategy name")
            self.expect(")")
            self.expect(".")
            self.registry.get_kind(strat.text, DISJUNCTIVE)
            program.tau[pred] = strat.text
        elif name.text == "default_tau":
            self.expect("(")
            strat = self.expect("ident", "a strategy name")
            self.expect(")")
            self.expect(".")
            self.registry.get_kind(strat.text, DISJUNCTIVE)
            program.default_tau = strat.text
        else:
            raise self.error(f"unknown directive #{name.text}", name)

    def parse_rule(self) -> Rule:
        head: list[tuple[Atom, AnnotationLike]] = []
        if not self.at(":-"):
            head.append(self.parse_head_literal())
            while self.accept("|"):
                head.append(self.parse_head_literal())
        pos: list[BodyLiteral] = []
        neg: list[BodyLiteral] = []
        if self.accept(":-"):
            pos, neg = self.parse_body()
        self.expect(".")
        return Rule(head=tuple(head), pos_body=tuple(pos), neg_body=tuple(neg))

    def parse_head_literal(self) -> tuple[Atom, AnnotationLike]:
        atom = self.parse_atom()
        ann: AnnotationLike = ONE
        if self.accept(":"):
            ann = self.parse_annotation()
        return atom, ann

    def parse_body(self) -> tuple[list[BodyLiteral], list[BodyLiteral]]:
        pos: list[BodyLiteral] = []
        neg: list[BodyLiteral] = []
        while True:
            negated = False
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "not":
                self.next()
                negated = True
            item, ann = self.parse_body_literal(negated)
            if negated and not isinstance(item, BuiltinComparison):
                neg.append((item, ann))
            else:
                pos.append((item, ann))
            if not self.accept(","):
                break
        return pos, neg

    def parse_body_literal(self, negated: bool) -> BodyLiteral:
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind == "{":
            if tok.text not in AGG_FUNCS:
                raise UnknownAggregateFunction(
                    f"{self.filename}:{tok.line}:{tok.col}: unknown aggregate function {tok.text!r}"
                )
            return self.parse_aggregate()
        term = self.parse_term()
        cmp_tok = self.peek()
        if cmp_tok.kind in COMPARATORS:
            self.next()
            right = self.parse_term()
            op = cmp_tok.kind if not negated else _NEGATED_CMP[cmp_tok.kind]
            if self.at(":"):
                raise self.error("comparisons cannot be annotated")
            return BuiltinComparison(term, op, right), ONE
        formula = self.parse_formula_tail(self.term_to_atom(term, tok))
        ann: AnnotationLike = ONE
        if self.accept(":"):
            ann = self.parse_annotation()
        return formula, ann

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
        ann: AnnotationLike = ONE
        if self.accept(":"):
            ann = self.parse_annotation()
        return atom, ann

    def parse_set(self) -> ProbabilitySet | GroundSet:
        if self.at("}"):
            return GroundSet(())
        if self.at("<"):
            pairs = [self.parse_ground_pair()]
            while self.accept(","):
                pairs.append(self.parse_ground_pair())
            return GroundSet(tuple(pairs))
        value = self.parse_term()
        self.expect(":")
        lo, hi = self.parse_annotation_pair()
        self.expect("|")
        condition = [self.parse_condition_conjunct()]
        while self.accept(","):
            condition.append(self.parse_condition_conjunct())
        return ProbabilitySet(value, lo, hi, tuple(condition))

    def parse_ground_pair(self) -> GroundPair:
        start = self.expect("<")
        value = self.parse_term()
        self.expect(":")
        lo, hi = self.parse_annotation_pair()
        self.expect("|")
        condition = [self.parse_condition_conjunct()]
        while self.accept(","):
            condition.append(self.parse_condition_conjunct())
        self.expect(">")
        if not (isinstance(lo, AnnConst) and isinstance(hi, AnnConst)):
            raise self.error("ground pair annotations must be constants", start)
        ground_condition = []
        for formula, ann in condition:
            if not isinstance(ann, ProbInterval) or not formula.is_ground():
                raise self.error("ground pair conditions must be ground", start)
            ground_condition.append((formula, ann))
        return GroundPair(value, ProbInterval(lo.value, hi.value), tuple(ground_condition))

    def parse_condition_conjunct(self) -> tuple[HybridFormula, AnnotationLike]:
        tok = self.peek()
        term = self.parse_term()
        formula = self.parse_formula_tail(self.term_to_atom(term, tok))
        ann: AnnotationLike = ONE
        if self.accept(":"):
            ann = self.parse_annotation()
        return formula, ann

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

    def parse_formula_tail(self, first: Atom) -> HybridFormula:
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text in ("and", "or") and self.peek(1).kind == "["):
            return HybridFormula.atomic(first)
        connective = tok.text
        atoms = [first]
        strategy = None
        while True:
            tok = self.peek()
            if not (tok.kind == "ident" and tok.text in ("and", "or") and self.peek(1).kind == "["):
                break
            if tok.text != connective:
                raise self.error("a formula uses a single connective", tok)
            self.next()
            self.expect("[")
            strat = self.expect("ident", "a strategy name")
            if strategy is None:
                strategy = strat.text
                kind = CONJUNCTIVE if connective == "and" else DISJUNCTIVE
                self.registry.get_kind(strategy, kind)
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
                args = [self.parse_term()]
                while self.accept(","):
                    args.append(self.parse_term())
                self.expect(")")
                return FuncTerm(tok.text, tuple(args))
            return Const(tok.text)
        if self.accept("("):
            inner = self.parse_term()
            self.expect(")")
            return inner
        raise self.error(f"expected a term, found {tok.text or 'end of input'!r}", tok)

    # -- annotations ----------------------------------------------------------

    def parse_annotation(self) -> AnnotationLike:
        lo, hi = self.parse_annotation_pair()
        return self.make_annotation(lo, hi)

    def parse_annotation_pair(self) -> tuple[AnnItem, AnnItem]:
        if self.accept("["):
            lo = self.parse_annotation_item()
            self.expect(",")
            hi = self.parse_annotation_item()
            self.expect("]")
            return lo, hi
        item = self.parse_annotation_item()
        return item, item

    def make_annotation(self, lo: AnnItem, hi: AnnItem) -> AnnotationLike:
        if isinstance(lo, AnnConst) and isinstance(hi, AnnConst):
            return ProbInterval(lo.value, hi.value)
        return Annotation(lo, hi)

    def parse_annotation_item(self) -> AnnItem:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return AnnConst(tok.text)
        if tok.kind == "-":
            self.next()
            num = self.expect("num", "a number after unary minus")
            return AnnConst(f"-{num.text}")
        if tok.kind == "var":
            self.next()
            return AnnVar(tok.text)
        if tok.kind == "ident":
            self.next()
            if tok.text not in ANNOTATION_FUNCTIONS:
                raise self.error(f"unknown annotation function {tok.text!r}", tok)
            self.expect("(")
            args = [self.parse_annotation_item()]
            while self.accept(","):
                args.append(self.parse_annotation_item())
            self.expect(")")
            return AnnFunc(tok.text, tuple(args))
        raise self.error(f"expected an annotation, found {tok.text or 'end of input'!r}", tok)

    # -- safety ----------------------------------------------------------------

    def check_safety(self, rule: Rule, start: Token) -> None:
        """Head and negative-body variables need a positive occurrence.

        Variables local to a symbolic set must be bound inside that set's
        condition. Positive-body occurrences outside plain formulae (guards,
        set globals) are allowed and ground by universe enumeration.
        """
        pos_vars: set[str] = set()
        sets: list[ProbabilitySet] = []
        for item, ann in rule.pos_body:
            pos_vars |= annotation_variables(ann) | item_variables(item)
            if isinstance(item, AggregateAtom) and isinstance(item.pset, ProbabilitySet):
                pos_vars |= _set_variables(item.pset)
                sets.append(item.pset)

        demanded: set[str] = set()
        for atom, ann in rule.head:
            demanded |= atom.variables() | annotation_variables(ann)
        for item, ann in rule.neg_body:
            demanded |= annotation_variables(ann) | item_variables(item)
            if isinstance(item, AggregateAtom) and isinstance(item.pset, ProbabilitySet):
                sets.append(item.pset)

        unsafe = demanded - pos_vars
        if unsafe:
            name = sorted(unsafe)[0]
            raise UnsafeVariable(
                f"variable {name} has no positive body occurrence",
                self.filename,
                start.line,
                start.col,
            )

        # set-local variables must be bindable by the set's own condition
        rule_text_vars = _rule_variables_outside_sets(rule)
        for pset in sets:
            cond_vars: set[str] = set()
            for formula, ann in pset.condition:
                cond_vars |= formula.variables() | annotation_variables(ann)
            local = _set_variables(pset) - rule_text_vars
            floating = local - cond_vars
            if floating:
                name = sorted(floating)[0]
                raise UnsafeVariable(
                    f"set variable {name} does not occur in the set condition",
                    self.filename,
                    start.line,
                    start.col,
                )


def _set_variables(pset: ProbabilitySet) -> set[str]:
    out = term_variables(pset.value)
    for item in (pset.lo, pset.hi):
        out |= annotation_variables(Annotation(item, item))
    for formula, ann in pset.condition:
        out |= formula.variables() | annotation_variables(ann)
    return out


def _rule_variables_outside_sets(rule: Rule) -> set[str]:
    out: set[str] = set()
    for atom, ann in rule.head:
        out |= atom.variables() | annotation_variables(ann)
    for item, ann in rule.pos_body + rule.neg_body:
        out |= annotation_variables(ann) | item_variables(item)
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
    registry = registry if registry is not None else builtin_registry()
    parser = _Parser(tokenize(text, filename), filename, registry)
    return parser.parse_program(into if into is not None else Program(rules=[], registry=registry))


def parse_formula(text: str, registry: StrategyRegistry | None = None) -> HybridFormula:
    """Parse a standalone hybrid formula, e.g. from a model file."""
    registry = registry if registry is not None else builtin_registry()
    parser = _Parser(tokenize(text, "<formula>"), "<formula>", registry)
    formula = parser.parse_formula_tail(parser.parse_atom())
    parser.expect("eof", "end of formula")
    return formula


def parse_annotation_item(text: str) -> AnnItem:
    parser = _Parser(tokenize(text, "<annotation>"), "<annotation>", builtin_registry())
    item = parser.parse_annotation_item()
    parser.expect("eof", "end of annotation")
    return item
