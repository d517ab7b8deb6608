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
    parse_annotation_item,
    parse_formula,
    parse_program,
)
from dhpp.errors import ConstantOutOfRange, UnknownAggregateFunction, UnknownStrategy
from dhpp.model import AnnFunc, Annotation, BuiltinComparison, Num, Var


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
