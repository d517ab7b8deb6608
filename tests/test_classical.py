import dataclasses
import random
from fractions import Fraction

import pytest

from dhpp import (
    Atom,
    ClassicalAggregate,
    ClassicalProgram,
    ClassicalRule,
    ParseError,
    TooLarge,
    UnsupportedConstruct,
    answer_set_atoms,
    classical_oracle,
    enumerate_answer_sets,
    ground_program,
    parse_classical,
    translate_dlp,
)
from dhpp.model import Num, Var
from generators import pass_by_pass_ground, random_classical_aggregate_program, random_classical_program


def oracle_sets(text: str) -> list[set[str]]:
    return [
        {str(a) for a in s} for s in classical_oracle(parse_classical(text))
    ]


def translated_sets(text: str) -> list[set[str]]:
    program = translate_dlp(parse_classical(text))
    gp = ground_program(program)
    res = enumerate_answer_sets(gp)
    return sorted(
        ({str(a) for a in answer_set_atoms(h)} for h in res.interpretations),
        key=sorted,
    )


# -- the exhaustive oracle ---------------------------------------------------------


def test_oracle_disjunctive_fact():
    assert oracle_sets("a | b.") == [{"a"}, {"b"}]


def test_oracle_empty_program():
    assert oracle_sets("") == [set()]


def test_oracle_positive_loop():
    assert oracle_sets("a :- a.") == [set()]


def test_oracle_even_negation_loop():
    assert oracle_sets("a :- not b.  b :- not a.") == [{"a"}, {"b"}]


def test_oracle_constraint_prunes():
    assert oracle_sets("a | b.  :- a.") == [{"b"}]


def test_oracle_constraint_wipes_everything():
    assert oracle_sets(":- not a.") == []


def test_oracle_count_aggregate():
    text = "a.  b.  big :- count{1 : a, 2 : b} >= 2."
    assert oracle_sets(text) == [{"a", "b", "big"}]


def test_oracle_sum_aggregate_below_bound():
    text = "a.  big :- sum{3 : a, 4 : b} >= 5."
    assert oracle_sets(text) == [{"a"}]


def test_oracle_size_cap():
    rules = tuple(ClassicalRule(head=(Atom(f"p{i}"),)) for i in range(13))
    with pytest.raises(TooLarge):
        classical_oracle(ClassicalProgram(rules))


def test_oracle_rejects_variables():
    rule = ClassicalRule(head=(Atom("p", (Var("X"),)),))
    with pytest.raises(UnsupportedConstruct):
        classical_oracle(ClassicalProgram((rule,)))


# -- the embedding -----------------------------------------------------------------

EMBEDDING_CASES = [
    "a | b.",
    "a :- a.",
    "a :- not b.  b :- not a.",
    "a | b.  :- a.",
    ":- not a.",
    "a.  b :- a, not c.",
    "a | b | c.  :- b.",
    "a.  b.  big :- count{1 : a, 2 : b} >= 2.",
    "a.  big :- sum{3 : a, 4 : b} >= 5.",
    "a.  b.  top :- max{3 : a, 7 : b} = 7.",
]


@pytest.mark.parametrize("text", EMBEDDING_CASES)
def test_translation_matches_oracle(text):
    assert translated_sets(text) == sorted(oracle_sets(text), key=sorted)


@pytest.mark.parametrize("text", ["__c.  a.  :- a.", "a | __c.  :- a."])
def test_translation_treats_c_as_an_ordinary_atom(text):
    assert translated_sets(text) == sorted(oracle_sets(text), key=sorted)


def test_translation_assigns_unit_intervals():
    program = translate_dlp(parse_classical("a :- not b."))
    gp = ground_program(program)
    res = enumerate_answer_sets(gp)
    assert len(res.interpretations) == 1
    (h,) = res.interpretations
    for _, value in h.entries:
        assert value.lo == value.hi == 1


def test_answer_set_atoms_hides_constraint_marker():
    # a model may mention the constraint guard atom; the projection drops it
    sets = translated_sets("a.  b :- not c.")
    assert sets == [{"a", "b"}]
    for s in sets:
        assert not any(name.startswith("__") for name in s)


def test_translation_matches_oracle_on_random_programs():
    rng = random.Random(77)
    for _ in range(50):
        program = random_classical_program(rng)
        expected = sorted(
            ({str(a) for a in s} for s in classical_oracle(program)), key=sorted
        )
        gp = ground_program(translate_dlp(program))
        res = enumerate_answer_sets(gp)
        got = sorted(
            ({str(a) for a in answer_set_atoms(h)} for h in res.interpretations),
            key=sorted,
        )
        assert got == expected, str(program)


def test_translated_programs_print_as_the_pass_by_pass_fixpoint():
    # translated rules have no variables, so each binds once, by looking
    # its body atoms up; in program order and shuffled, the ground program
    # prints as the fixpoint that binds every rule on every pass
    rng = random.Random(31)
    for _ in range(150):
        for make in (random_classical_program, random_classical_aggregate_program):
            program = translate_dlp(make(rng))
            for rules in (program.rules, rng.sample(program.rules, len(program.rules))):
                ordered = dataclasses.replace(program, rules=rules)
                assert str(ground_program(ordered)) == str(pass_by_pass_ground(ordered)), str(ordered)


def test_translation_matches_oracle_on_recursive_aggregate_programs():
    # theorem (a) with aggregates over the program's own atoms, so recursive
    # and often nonmonotone: every function, comparator and sign of weight
    rng = random.Random(11)
    answered = with_aggregates = 0
    for _ in range(1000):
        program = random_classical_aggregate_program(rng)
        expected = sorted(
            ({str(a) for a in s} for s in classical_oracle(program)), key=sorted
        )
        res = enumerate_answer_sets(ground_program(translate_dlp(program)))
        got = sorted(
            ({str(a) for a in answer_set_atoms(h)} for h in res.interpretations),
            key=sorted,
        )
        assert got == expected, str(program)
        answered += bool(expected)
        with_aggregates += program.has_aggregates()
    assert answered > 700 and with_aggregates > 600


# -- surface syntax ----------------------------------------------------------------


def test_parse_classical_round_trips_shapes():
    program = parse_classical("a | b :- c, not d.  :- a.")
    assert len(program.rules) == 2
    assert program.rules[0].head == (Atom("a"), Atom("b"))
    assert program.rules[0].neg == (Atom("d"),)
    assert program.rules[1].head == ()


def test_parse_classical_aggregate_shape():
    program = parse_classical("big :- sum{3 : a, 4 : b} >= 5.")
    (agg,) = [x for x in program.rules[0].pos if isinstance(x, ClassicalAggregate)]
    assert agg.func == "sum"
    assert agg.bound == Fraction(5)
    assert agg.members == ((Num(Fraction(3)), Atom("a")), (Num(Fraction(4)), Atom("b")))


@pytest.mark.parametrize(
    "text, message",
    [
        # an arithmetic operator after an atom makes it a term, named whole
        ("a(1)+2.", "<string>:1:1: expected an atom, found a(1)+2"),
        ("p :- q(1)*2.", "<string>:1:6: expected an atom, found q(1)*2"),
        ("p :- not q(1)-r.", "<string>:1:10: expected an atom, found q(1)-r"),
        ("c :- count{1 : a+1} >= 2.", "<string>:1:16: expected an atom, found a+1"),
        ("a(X).", "<string>:1:1: classical atoms must be ground"),
        ("p :- q, r(f(Y)).", "<string>:1:9: classical atoms must be ground"),
        ("X :- q.", "<string>:1:1: expected an atom, found X"),
        ("f(1)(2).", "<string>:1:5: expected '.', found '('"),
    ],
)
def test_parse_classical_atom_errors_keep_their_columns(text, message):
    with pytest.raises(ParseError) as caught:
        parse_classical(text)
    assert str(caught.value) == message


def test_parse_classical_reads_atoms_with_arguments_and_aggregate_members():
    program = parse_classical("c :- count{1 : a, 2 : b(1)} >= 2, d(e, f(2)), not g((1)).\n(h).")
    (agg, atom), neg = program.rules[0].pos, program.rules[0].neg
    assert agg == ClassicalAggregate(
        "count", ((Num(Fraction(1)), Atom("a")), (Num(Fraction(2)), Atom("b", (Num(Fraction(1)),)))), ">=", Fraction(2)
    )
    assert str(atom) == "d(e,f(2))"
    assert neg == (Atom("g", (Num(Fraction(1)),)),)
    # an atom in parentheses is read through the term grammar
    assert program.rules[1].head == (Atom("h"),)


def test_parse_classical_rejects_variables():
    with pytest.raises(ParseError, match="ground"):
        parse_classical("p(X) :- q(X).")


def test_parse_classical_rejects_bad_bound():
    with pytest.raises(ParseError):
        parse_classical("big :- sum{3 : a} >= foo.")


def test_parse_classical_rejects_bad_comparator():
    with pytest.raises(ParseError):
        parse_classical("big :- sum{3 : a} ~ 5.")


def test_classical_rule_validates_aggregate_func():
    with pytest.raises(ValueError):
        ClassicalAggregate(func="median", members=(), cmp=">=", bound=Fraction(1))


def test_classical_rule_needs_a_head_or_a_body():
    with pytest.raises(ValueError, match="a rule needs a head or a body"):
        ClassicalRule()
