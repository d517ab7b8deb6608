import random
from fractions import Fraction

import pytest

from dhpp import (
    ONE,
    AggregateAtom,
    Atom,
    GroundSet,
    HybridFormula,
    ParseError,
    ProbInterval,
    Rule,
    UnsafeVariable,
    ground_program,
    parse_annotation_item,
    parse_classical,
    parse_formula,
    parse_program,
)
from dhpp.errors import (
    ConstantOutOfRange,
    InvalidInterval,
    UnknownAggregateFunction,
    UnknownAnnotationFunction,
    UnknownStrategy,
)
from dhpp.model import AnnFunc, Annotation, BuiltinComparison, Num, Var
from generators import (
    random_aggregate_program,
    random_classical_program,
    random_nonground_program,
    random_probability_program,
    rule_text,
)


def iv(lo, hi=None) -> ProbInterval:
    return ProbInterval(Fraction(str(lo)), Fraction(str(hi if hi is not None else lo)))


def single_rule(text: str) -> Rule:
    program = parse_program(text)
    assert len(program.rules) == 1
    return program.rules[0]


def test_disjunctive_fact():
    rule = single_rule("a(1,1):0.5 | a(2,1):0.5.")
    assert len(rule.head) == 2
    assert rule.head[0] == (Atom("a", (Num("1"), Num("1"))), iv("0.5"))
    assert rule.head[1][1] == iv("0.5")
    assert rule.pos_body == () and rule.neg_body == ()


def test_annotation_desugaring():
    rule = single_rule("a :- b : 0.7, c.")
    assert rule.head[0][1] == ONE  # unannotated head gets [1,1]
    assert rule.pos_body[0][1] == iv("0.7")  # scalar becomes a point interval
    assert rule.pos_body[1][1] == ONE


def test_interval_annotation():
    rule = single_rule("a : [0.2, 0.9].")
    assert rule.head[0][1] == iv("0.2", "0.9")


def test_negative_literal_and_e_aggregate():
    rule = single_rule("g :- not g, valE{ X : P | nutr(F, a, X, S) : P } < 230.")
    assert rule.neg_body[0][0] == HybridFormula.atomic(Atom("g"))
    assert rule.neg_body[0][1] == ONE
    agg = rule.pos_body[0][0]
    assert isinstance(agg, AggregateAtom)
    assert agg.func == "valE" and agg.cmp == "<"
    assert agg.guard_lo == Num("230") and agg.guard_hi == Num("230")
    assert rule.pos_body[0][1] == ONE


def test_missing_body_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_program("p(X) :-")


def test_constraint_desugars_to_fresh_head():
    program = parse_program(":- win, not lose.")
    rule = program.rules[0]
    assert rule.head == ()
    assert rule.pos_body == ((HybridFormula.atomic(Atom("win")), ONE),)
    assert rule.neg_body == ((HybridFormula.atomic(Atom("lose")), ONE),)


def test_negated_comparison_complements_the_operator():
    rule = single_rule("a(X) :- b(X), not X = 2.")
    builtins = [item for item, _ in rule.pos_body if isinstance(item, BuiltinComparison)]
    assert len(builtins) == 1
    assert builtins[0].op == "!="
    assert rule.neg_body == ()


def test_annotated_comparison_rejected():
    with pytest.raises(ParseError, match="annotated"):
        parse_program("a(X) :- b(X), X = 2 : 0.5.")


def test_compound_formula_with_strategy():
    formula = parse_formula("a and[inc] b")
    assert formula == HybridFormula((Atom("a"), Atom("b")), "and", "inc")
    rule = single_rule("c :- a or[ind] b : 0.6.")
    assert rule.pos_body[0][0].connective == "or"
    assert rule.pos_body[0][1] == iv("0.6")


def test_mixed_connectives_rejected():
    with pytest.raises(ParseError):
        parse_program("c :- a and[inc] b or[ind] d.")


def test_unknown_strategy_in_formula():
    with pytest.raises((ParseError, UnknownStrategy)):
        parse_program("c :- a and[mystery] b.")


def test_unknown_aggregate_function():
    with pytest.raises(UnknownAggregateFunction):
        parse_program("a :- avgE{X : P | b(X) : P} > 1.")


def test_ground_pair_set():
    rule = single_rule("a :- sumP{<1 : 0.5 | b : 0.5>, <2 : 0.3 | c : 0.3>} >= 3 : 0.3.")
    agg = rule.pos_body[0][0]
    assert isinstance(agg.pset, GroundSet)
    assert len(agg.pset.pairs) == 2
    assert agg.pset.pairs[0].prob == iv("0.5")
    assert rule.pos_body[0][1] == iv("0.3")


def test_directives():
    program = parse_program("#default_tau(ind).\n#tau(win, pcd).\nwin : 0.5.")
    assert program.default_tau == "ind"
    assert program.tau == {"win": "pcd"}
    assert program.tau_name("win") == "pcd"
    assert program.tau_name("other") == "ind"


def test_directive_rejects_conjunctive_strategy():
    with pytest.raises((ParseError, UnknownStrategy)):
        parse_program("#tau(win, inc).\nwin.")


def test_annotation_items():
    item = parse_annotation_item("0.7")
    assert item.value == Fraction(7, 10)
    with pytest.raises(ConstantOutOfRange):
        parse_annotation_item("1.5")
    func = parse_annotation_item("pmul(P1,P2)")
    assert isinstance(func, AnnFunc)
    assert func.name == "pmul" and len(func.args) == 2


def test_annotation_function_in_rule():
    rule = single_rule("c(X) : pmul(P1,P2) :- a(X) : P1, b(X) : P2.")
    ann = rule.head[0][1]
    assert isinstance(ann, Annotation)
    assert str(ann) == "pmul(P1,P2)"


def test_error_position_reported():
    text = "a.\nb :- ,\n"
    with pytest.raises(ParseError) as err:
        parse_program(text, filename="bad.dhpp")
    assert err.value.filename == "bad.dhpp"
    assert err.value.line == 2


def test_a_body_comparison_on_a_function_term_stays_a_comparison():
    rule = single_rule("p(Y) :- q(X), r(Y), f(X) = Y.")
    assert [str(item) for item, _ in rule.pos_body] == ["q(X)", "r(Y)", "f(X) = Y"]
    assert isinstance(rule.pos_body[2][0], BuiltinComparison)
    # an atom whose term an operator extends is no atom, in a head or a formula
    for text, message in (
        ("a(1)*3 | b.", "<string>:1:1: expected an atom, found a(1)*3"),
        ("p :- q(1) and[inc] r*2.", "<string>:1:20: expected an atom, found r*2"),
    ):
        with pytest.raises(ParseError) as caught:
            parse_program(text)
        assert str(caught.value) == message


def _decorated(rng: random.Random, text: str) -> tuple[str, list[int]]:
    """text, one rule or directive a line, with comments, blank lines,
    tabs and CRLF line ends around its lines, and the offset where each of
    its lines starts in the result."""
    out, starts = [], []
    end = "\r\n" if rng.random() < 0.5 else "\n"
    for line in text.splitlines():
        for _ in range(rng.randint(0, 2)):
            out.append(rng.choice(["", "% a comment", "\t", "  % more, with a . and a ?"]) + end)
        out.append(rng.choice(["", " ", "\t", "\t \t"]))
        starts.append(sum(map(len, out)))
        out.append(line + rng.choice(["", " ", "\t% trailing ? comment"]) + end)
    return "".join(out), starts


def _counted_position(text: str, offset: int) -> tuple[int, int]:
    before = text[:offset].split("\n")
    return len(before), len(before[-1]) + 1


@pytest.mark.parametrize("reader", ["program", "classical"])
def test_error_positions_are_computed_from_offsets(reader):
    # an illegal character anywhere outside a comment, or a token no rule
    # can start with at the start of a rule, is reported at the line and
    # column that counting the newlines before it gives
    rng = random.Random(41)
    checked = 0
    for _ in range(150):
        if reader == "program":
            generator = rng.choice([random_probability_program, random_aggregate_program])
            source = str(generator(rng))
        else:
            source = str(random_classical_program(rng))
        text, starts = _decorated(rng, source)
        comments = [(m, text.find("\n", m)) for m in range(len(text)) if text[m] == "%"]
        if rng.random() < 0.5:
            offset = rng.choice(
                [o for o in range(len(text) + 1) if not any(m <= o <= e for m, e in comments)]
            )
            bad, message = "?", "unexpected character '?'"
        else:
            offset = rng.choice(starts)
            bad, message = ")", "expected a term, found ')'"
        broken = text[:offset] + bad + text[offset:]
        with pytest.raises(ParseError) as caught:
            READERS[reader](broken)
        line, col = _counted_position(broken, offset)
        assert str(caught.value) == f"<string>:{line}:{col}: {message}", repr(broken)
        checked += "\n" in broken[:offset]
    assert checked > 100


def test_unsafe_head_variable():
    with pytest.raises(UnsafeVariable):
        parse_program("a(X).")


def test_unsafe_negative_variable():
    with pytest.raises(UnsafeVariable):
        parse_program("a :- not b(X).")


def test_unsafe_annotation_variable():
    with pytest.raises(UnsafeVariable):
        parse_program("a : P :- b.")


def test_set_local_variable_must_occur_in_its_condition():
    with pytest.raises(UnsafeVariable):
        parse_program("a :- sumP{X : P | b(Y) : P} > 1 : 0.5.")


def test_guard_variable_bound_by_body():
    program = parse_program("a :- b(T), sumP{X : P | c(X) : P} >= T : 0.5.")
    assert len(program.rules) == 1


def test_comments_ignored():
    program = parse_program("% header\na. % trailing\n%%% b.\n")
    assert len(program.rules) == 1


ROUND_TRIP_PROGRAMS = [
    "a(1,1):0.5 | a(2,1):0.5.\n",
    "#default_tau(ind).\n#tau(p, pcd).\np(1):0.3.\n",
    "c(X):pmul(P1,P2) :- a(X):P1, b(X):P2.\n",
    "a :- b or[ind] c:[0.2,0.9], not d:0.3.\n",
    ":- sumP{X : P | a(X,Y) : P} >= 3:0.3.\n",
    "a :- valE{X : P | n(F,X) : P} < 230.\n",
    "a :- minP{<1 : 0.5 | b:0.5>} > 0 : 0.5.\n",
    "a(X) :- b(X), X < 2.\n",
    "d(X*2) :- b(X).\n",
    # the remaining productions: annotation functions and variables as
    # interval ends, nested arithmetic, a negated comparison, negated
    # aggregates, a set condition of two literals, an empty set
    "c(X) : pmul(P1,pcomp(P2)) :- a(X) : P1, b(X) : [P2,pmax(P1,P2)].\n",
    "a : [1/3,0.9] | b : 0.2 :- c and[inc] d : [0.1,0.5], not e or[ind] f or[ind] g : pmin(0.5,0.7).\n",
    "d(X*2+1,Y-(X-1)) :- b(X), b(Y), X <= Y, X != 3, not X > 1.\n",
    ":- not sumP{X : P | a(X,Y) : P, c(Y)} >= [1,3] : 0.3.\n",
    "a :- not countE{<1 : [0.2,0.4] | b and[pcc] c : 0.5>, <2 : 0.5 | d>} < 2, maxP{} = -1.\n",
    "a :- valE{X : [P,padd(P,0.1)] | n(F,X) : P} < 230.\n",
]


@pytest.mark.parametrize("text", ROUND_TRIP_PROGRAMS)
def test_print_parse_fixpoint(text):
    first = parse_program(text)
    second = parse_program(str(first))
    assert second.rules == first.rules
    assert second.tau == first.tau
    assert second.default_tau == first.default_tau
    assert str(second) == str(first)


def test_round_trip_example_files(dice_path, diet_path):
    for path in (dice_path, diet_path):
        program = parse_program(path.read_text(), filename=str(path))
        again = parse_program(str(program))
        assert again.rules == program.rules
        assert again.default_tau == program.default_tau


def test_no_bare_scalars_survive_parsing(diet_path):
    program = parse_program(diet_path.read_text())
    for rule in program.rules:
        for _, ann in rule.head + rule.pos_body + rule.neg_body:
            assert isinstance(ann, (ProbInterval, Annotation))


def assert_print_parse_round_trip(program):
    again = parse_program(str(program))
    assert again.rules == program.rules, str(program)
    assert (again.tau, again.default_tau) == (program.tau, program.default_tau)


def test_random_programs_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        text = "\n".join(rule_text(rule) for rule in random_nonground_program(rng))
        program = parse_program(text)
        assert_print_parse_round_trip(program)
        assert_print_parse_round_trip(ground_program(program))
    rng = random.Random(6)
    for _ in range(200):
        assert_print_parse_round_trip(random_aggregate_program(rng))
        assert_print_parse_round_trip(random_probability_program(rng))


READERS = {
    "program": parse_program,
    "formula": parse_formula,
    "item": parse_annotation_item,
    "classical": parse_classical,
}

# one input per error the readers raise, and per validation they reach:
# (reader, text, exception type, message, line, column)
PARSE_ERRORS = [
    ("program", "a :- b ? c.", ParseError, "<string>:1:8: unexpected character '?'", 1, 8),
    ("program", "a.\nb :- c", ParseError, "<string>:2:7: expected '.', found 'end of input'", 2, 7),
    ("program", "#(x).", ParseError, "<string>:1:2: expected a directive name, found '('", 1, 2),
    ("program", "#foo(x).", ParseError, "<string>:1:2: unknown directive #foo", 1, 2),
    ("program", "#tau(1, ind).", ParseError, "<string>:1:6: expected a predicate name, found '1'", 1, 6),
    ("program", "#tau(p ind).", ParseError, "<string>:1:8: expected ',', found 'ind'", 1, 8),
    ("program", "#default_tau(1).", ParseError, "<string>:1:14: expected a strategy name, found '1'", 1, 14),
    ("program", "#default_tau(ind.", ParseError, "<string>:1:17: expected ')', found '.'", 1, 17),
    ("program", "#default_tau(ind)", ParseError, "<string>:1:18: expected '.', found 'end of input'", 1, 18),
    ("program", "#default_tau(inc).", UnknownStrategy, "strategy 'inc' is conjunctive, expected disjunctive", 1, 14),
    ("program", "a :- avgE{X : P | b(X) : P} > 1.", UnknownAggregateFunction, "<string>:1:6: unknown aggregate function 'avgE'", 1, 6),
    ("program", "a(X) :- b(X), X = 2 : 0.5.", ParseError, "<string>:1:21: comparisons cannot be annotated", 1, 21),
    ("program", "a :- sumP{<1 : 0.5 | b>} ~ 1.", ParseError, "<string>:1:26: unexpected character '~'", 1, 26),
    ("program", "a :- sumP{<1 : 0.5 | b>} foo.", ParseError, "<string>:1:26: expected a comparator after the aggregate set", 1, 26),
    ("program", "a :- sumP{<1 : 0.5 | b> 1.", ParseError, "<string>:1:25: expected '}', found '1'", 1, 25),
    ("program", "a :- sumP{<1 : 0.5 | b>} >= [1, 2.", ParseError, "<string>:1:34: expected ']', found '.'", 1, 34),
    ("program", "a :- sumP{<1 : 0.5 | b>} >= [1 2].", ParseError, "<string>:1:32: expected ',', found '2'", 1, 32),
    ("program", "a :- sumP{<1 0.5 | b>} > 1.", ParseError, "<string>:1:14: expected ':', found '0.5'", 1, 14),
    ("program", "a :- sumP{<1 : 0.5 b>} > 1.", ParseError, "<string>:1:20: expected '|', found 'b'", 1, 20),
    ("program", "a :- sumP{<1 : 0.5 | b} > 1.", ParseError, "<string>:1:23: expected '>', found '}'", 1, 23),
    ("program", "a :- sumP{<1 : P | b>} > 1.", ParseError, "<string>:1:11: ground pair annotations must be constants", 1, 11),
    ("program", "a :- sumP{<1 : [0.2, P] | b>} > 1.", ParseError, "<string>:1:11: ground pair annotations must be constants", 1, 11),
    ("program", "a :- sumP{<1 : 0.5 | b(X)>} > 1.", ParseError, "<string>:1:11: ground pair conditions must be ground", 1, 11),
    ("program", "a :- sumP{<1 : 0.5 | b : P>} > 1.", ParseError, "<string>:1:11: ground pair conditions must be ground", 1, 11),
    ("program", "a :- sumP{<1 : [0.7, 0.3] | b>} > 1.", InvalidInterval, "interval endpoints out of order: [7/10, 3/10]", 1, 16),
    ("program", "a :- sumP{X 0.5 | b(X)} > 1.", ParseError, "<string>:1:13: expected ':', found '0.5'", 1, 13),
    ("program", "a :- sumP{X : 0.5 b(X)} > 1.", ParseError, "<string>:1:19: expected '|', found 'b'", 1, 19),
    ("program", "X :- b.", ParseError, "<string>:1:1: expected an atom, found X", 1, 1),
    ("program", "a :- 1.", ParseError, "<string>:1:6: expected an atom, found 1", 1, 6),
    ("program", "c :- a and[inc] b or[ind] d.", ParseError, "<string>:1:19: a formula uses a single connective", 1, 19),
    ("program", "c :- a and[inc] b and[pcc] d.", ParseError, "<string>:1:23: a formula uses a single strategy", 1, 23),
    ("program", "c :- a and[inc] a.", ParseError, "<string>:1:18: compound formula atoms must be distinct", 1, 18),
    ("program", "c :- a and[1] b.", ParseError, "<string>:1:12: expected a strategy name, found '1'", 1, 12),
    ("program", "c :- a and[inc b.", ParseError, "<string>:1:16: expected ']', found 'b'", 1, 16),
    ("program", "c :- a and[nosuch] b.", UnknownStrategy, "unknown strategy 'nosuch'", 1, 12),
    ("program", "c :- a or[inc] b.", UnknownStrategy, "strategy 'inc' is conjunctive, expected disjunctive", 1, 11),
    ("program", "a :- .", ParseError, "<string>:1:6: expected a term, found '.'", 1, 6),
    ("program", "a(-X).", ParseError, "<string>:1:4: expected a number after unary minus, found 'X'", 1, 4),
    ("program", "a(b,.", ParseError, "<string>:1:5: expected a term, found '.'", 1, 5),
    ("program", "a :- (1 + 2.", ParseError, "<string>:1:12: expected ')', found '.'", 1, 12),
    ("program", "a : pfoo(0.5).", ParseError, "<string>:1:5: unknown annotation function 'pfoo'", 1, 5),
    ("program", "a : pmul 0.5.", ParseError, "<string>:1:10: expected '(', found '0.5'", 1, 10),
    ("program", "a : pmul(0.5 0.5).", ParseError, "<string>:1:14: expected ')', found '0.5'", 1, 14),
    ("program", "a : .", ParseError, "<string>:1:5: expected an annotation, found '.'", 1, 5),
    ("program", "a : -P.", ParseError, "<string>:1:6: expected a number after unary minus, found 'P'", 1, 6),
    ("program", "a : [0.2 0.3].", ParseError, "<string>:1:10: expected ',', found '0.3'", 1, 10),
    ("program", "a : [0.2, 0.3.", ParseError, "<string>:1:14: expected ']', found '.'", 1, 14),
    ("program", "a : 1.5.", ConstantOutOfRange, "annotation constant 1.5 outside [0,1]", 1, 5),
    ("program", "a : -1.", ConstantOutOfRange, "annotation constant -1 outside [0,1]", 1, 5),
    ("program", "a : pcomp(0.5, 0.5).", UnknownAnnotationFunction, "annotation function 'pcomp' does not take 2 arguments", 1, 5),
    ("program", "a : pmul(0.5).", UnknownAnnotationFunction, "annotation function 'pmul' does not take 1 arguments", 1, 5),
    ("program", "a : [0.7, 0.3].", InvalidInterval, "interval endpoints out of order: [7/10, 3/10]", 1, 5),
    ("program", "a :- b : [0.5, 0.4].", InvalidInterval, "interval endpoints out of order: [1/2, 2/5]", 1, 10),
    ("program", "a(X).", UnsafeVariable, "<string>:1:1: variable X has no positive body occurrence", 1, 1),
    ("program", "a :- not b(X).", UnsafeVariable, "<string>:1:1: variable X has no positive body occurrence", 1, 1),
    ("program", "a : P :- b.", UnsafeVariable, "<string>:1:1: variable P has no positive body occurrence", 1, 1),
    ("program", "a :- b, sumP{X : P | b(Y) : P} > 1 : 0.5.", UnsafeVariable, "<string>:1:1: set variable X does not occur in the set condition", 1, 1),
    ("program", "a :- b, not sumP{X : Q | c(Y) : P} > 1 : 0.5.", UnsafeVariable, "<string>:1:1: set variable Q does not occur in the set condition", 1, 1),
    ("formula", "a b", ParseError, "<formula>:1:3: expected end of formula, found 'b'", 1, 3),
    ("formula", "X", ParseError, "<formula>:1:1: expected an atom, found X", 1, 1),
    ("item", "0.5 0.5", ParseError, "<annotation>:1:5: expected end of annotation, found '0.5'", 1, 5),
    ("item", "1.5", ConstantOutOfRange, "annotation constant 1.5 outside [0,1]", 1, 1),
    ("classical", "p(X) :- q.", ParseError, "<string>:1:1: classical atoms must be ground", 1, 1),
    ("classical", "big :- sum{3 : a} ~ 5.", ParseError, "<string>:1:19: unexpected character '~'", 1, 19),
    ("classical", "big :- sum{3 : a} foo 5.", ParseError, "<string>:1:19: expected a comparator, found 'foo'", 1, 19),
    ("classical", "big :- sum{3 : a} >= foo.", ParseError, "<string>:1:22: aggregate bound must be a number", 1, 22),
    ("classical", "big :- sum{3 a} >= 1.", ParseError, "<string>:1:14: expected ':', found 'a'", 1, 14),
    ("classical", "big :- sum{3 : a >= 1.", ParseError, "<string>:1:18: expected '}', found '>='", 1, 18),
    ("classical", "a :- not count{1 : b} > 0.", ParseError, "<string>:1:15: expected '.', found '{'", 1, 15),
    ("classical", "a | :- b.", ParseError, "<string>:1:5: expected a term, found ':-'", 1, 5),
    ("classical", "a :- b", ParseError, "<string>:1:7: expected '.', found 'end of input'", 1, 7),
]


@pytest.mark.parametrize("reader, text, error, message, line, col", PARSE_ERRORS)
def test_parse_errors_are_pinned(reader, text, error, message, line, col):
    with pytest.raises(error) as caught:
        READERS[reader](text)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert (getattr(caught.value, "line", None), getattr(caught.value, "col", None)) == (line, col)


def test_constant_set_interval_is_checked_when_the_set_is_ground():
    # a constant interval out of order is rejected when it is read, as on
    # heads and bodies, whether or not the rule holding the set is ever
    # instantiated
    for text in (
        "b(1).\na :- sumP{X : [0.7, 0.3] | b(X)} > 0 : 0.5.",
        "b(1).\na :- c, sumP{X : [0.7, 0.3] | b(X)} > 0 : 0.5.",
    ):
        with pytest.raises(InvalidInterval, match="out of order"):
            parse_program(text)


def test_variable_set_interval_is_checked_when_the_set_is_ground():
    program = parse_program("b(1, 0.3).\na :- sumP{X : [0.7, P] | b(X, P)} > 0 : 0.5.")
    with pytest.raises(InvalidInterval, match="out of order"):
        ground_program(program)
