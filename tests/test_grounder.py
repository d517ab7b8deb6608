import random
from fractions import Fraction
from pathlib import Path

import pytest

from dhpp import (
    AggregateAtom,
    Atom,
    ProbInterval,
    UniverseOverflow,
    enumerate_answer_sets,
    ground_program,
    is_answer_set,
    parse_classical,
    parse_program,
    translate_dlp,
)
from dhpp.model import ZERO, HybridFormula, Num
from generators import (
    PATH_PROGRAM,
    naive_ground,
    pass_by_pass_ground,
    random_annotated_program,
    random_nonground_program,
    random_probability_program,
    random_recursive_aggregate_program,
    rule_text,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def ground(text: str, **kwargs):
    return ground_program(parse_program(text), **kwargs)


def rule_strings(gp) -> set[str]:
    return {str(r) for r in gp.rules}


def first_aggregate(gp) -> AggregateAtom:
    for rule in gp.rules:
        for item, _ in rule.pos_body + rule.neg_body:
            if isinstance(item, AggregateAtom):
                return item
    raise AssertionError("no aggregate in program")


def test_ground_rule_without_variables_is_identity():
    gp = ground("a(1):0.5 :- b(2):0.3.\nb(2):0.3.")
    assert "a(1):0.5 :- b(2):0.3." in rule_strings(gp)


def test_object_variable_instantiation():
    gp = ground("p(X) :- q(X).\nq(1).\nq(2).")
    assert rule_strings(gp) == {"q(1).", "q(2).", "p(1) :- q(1).", "p(2) :- q(2)."}


def test_false_builtins_drop_rules():
    gp = ground("a(X) :- b(X), X < 2.\nb(1).\nb(3).")
    texts = rule_strings(gp)
    assert "a(1) :- b(1)." in texts
    assert all("a(3)" not in t for t in texts)


def test_arithmetic_evaluated():
    gp = ground("d(X*2) :- b(X).\nb(3).")
    assert "d(6) :- b(3)." in rule_strings(gp)


def test_annotation_variable_bound_from_index():
    gp = ground("a : P :- b : P.\nb : 0.4.")
    assert "a:0.4 :- b:0.4." in rule_strings(gp)


def test_annotation_interval_variables_bind_positionally():
    gp = ground("a : [P1,P2] :- b : [P1,P2].\nb : [0.2,0.6].")
    assert "a:[0.2,0.6] :- b:[0.2,0.6]." in rule_strings(gp)


def test_dice_ground_set(dice_solved):
    agg = first_aggregate(dice_solved.ground)
    assert {str(p) for p in agg.pset.pairs} == {
        "<1 : 0.5 | a(1,1):0.5>",
        "<2 : 0.5 | a(2,1):0.5>",
        "<1 : 0.7 | a(1,2):0.7>",
        "<2 : 0.3 | a(2,2):0.3>",
    }


VITAMIN_A_PAIRS = {
    "<60 : 0.7 | nutr(beef,a,60,s1):0.7>",
    "<120 : 0.7 | nutr(beef,a,120,s1):0.7>",
    "<50 : 0.3 | nutr(beef,a,50,s2):0.3>",
    "<100 : 0.3 | nutr(beef,a,100,s2):0.3>",
    "<8 : 0.8 | nutr(fish,a,8,s1):0.8>",
    "<16 : 0.8 | nutr(fish,a,16,s1):0.8>",
    "<11 : 0.2 | nutr(fish,a,11,s2):0.2>",
    "<22 : 0.2 | nutr(fish,a,22,s2):0.2>",
    "<60 : 0.8 | nutr(turk,a,60,s1):0.8>",
    "<120 : 0.8 | nutr(turk,a,120,s1):0.8>",
    "<55 : 0.2 | nutr(turk,a,55,s2):0.2>",
    "<110 : 0.2 | nutr(turk,a,110,s2):0.2>",
}


def test_vitamin_a_constraint_grounds_to_twelve_pairs(diet_solved):
    aggregates = [
        item
        for rule in diet_solved.ground.rules
        for item, _ in rule.pos_body
        if isinstance(item, AggregateAtom)
    ]
    vit_a = [
        agg
        for agg in aggregates
        if any("nutr" in str(p) and ",a," in str(p) for p in agg.pset.pairs)
    ]
    assert len(vit_a) == 1
    assert {str(p) for p in vit_a[0].pset.pairs} == VITAMIN_A_PAIRS


def test_pckg_rule_grounds_per_food_and_scenario(diet_solved):
    pckg_rules = [
        r for r in diet_solved.ground.rules if r.head and r.head[0][0].predicate == "pckg"
    ]
    assert len(pckg_rules) == 6  # 3 foods x 2 scenarios


def test_nutr_rule_multiplies_units(diet_solved):
    texts = rule_strings(diet_solved.ground)
    assert (
        "nutr(beef,a,120,s1):0.7 :- units(beef,a,60,s1):0.7, pckg(beef,2,s1)."
        in texts
    )


def test_unmatched_condition_gives_empty_set():
    gp = ground("a :- sumP{X : P | b(X) : P} >= 1 : 0.5.")
    agg = first_aggregate(gp)
    assert agg.pset.pairs == ()


def test_vacuous_annotation_enumerates_universe():
    # a [0,0]-annotated conjunct holds under every interpretation
    gp = ground("p(X) :- q(X) : 0.\nq(1).\nr(2).")
    texts = rule_strings(gp)
    assert "p(1) :- q(1):0." in texts
    assert "p(2) :- q(2):0." in texts


def test_ground_output_has_no_variables(dice_solved, diet_solved):
    for gp in (dice_solved.ground, diet_solved.ground):
        for rule in gp.rules:
            assert rule.is_ground(), str(rule)


def test_constraint_on_comparisons_alone_keeps_them():
    # a constraint whose comparisons all hold still fires; one that fails goes
    gp = ground("a.\n:- 1 < 2.\n:- 2 < 1.")
    assert rule_strings(gp) == {"a.", ":- 1 < 2."}
    assert all(rule.is_ground() for rule in gp.rules)
    assert enumerate_answer_sets(gp).interpretations == []


def test_head_is_indexed_whole_or_not_at_all():
    # under X = a the head atom p(a+1) does not ground, so that instance
    # derives neither disjunct and nothing derives q(a)
    text = "r(a). r(1). p(X+1) | q(X) :- r(X). s :- q(a)."
    gp = ground(text)
    assert rule_strings(gp) == {"r(a).", "r(1).", "p(2) | q(1) :- r(1)."}
    assert sorted(str(h) for h in enumerate_answer_sets(gp).interpretations) == [
        "{p(2):[1,1], r(1):[1,1], r(a):[1,1]}",
        "{q(1):[1,1], r(1):[1,1], r(a):[1,1]}",
    ]


def assert_grounds_pass_by_pass(text: str) -> None:
    program = parse_program(text)
    assert str(ground_program(program)) == str(pass_by_pass_ground(program)), text


def test_matches_naive_grounder_in_any_rule_order():
    # each pass binds the rules in program order, so shuffling them changes
    # which pass derives what; the ground program must not change, and it
    # prints as the fixpoint that binds every rule on every pass does
    rng = random.Random(11)
    for _ in range(300):
        rules = random_nonground_program(rng)
        expected = naive_ground(rules)
        lines = [rule_text(rule) for rule in rules]
        for order in (lines, rng.sample(lines, len(lines))):
            assert rule_strings(ground("\n".join(order))) == expected, order
            assert_grounds_pass_by_pass("\n".join(order))


def test_rules_out_of_dependency_order_print_as_the_pass_by_pass_fixpoint():
    chain = "".join(f"edge(n{i},n{i + 1}).\n" for i in range(1, 8))
    for rules in (
        # the recursive literal first, last, and both literals recursive
        ["path(X,Y) :- edge(X,Y).", "path(X,Z) :- path(X,Y), edge(Y,Z)."],
        ["path(X,Y) :- edge(X,Y).", "path(X,Z) :- edge(X,Y), path(Y,Z)."],
        ["path(X,Y) :- edge(X,Y).", "path(X,Z) :- path(X,Y), path(Y,Z)."],
        # each layer derived by a rule listed before the one it reads
        ["d(X) :- c(X), edge(X,Y).", "c(Y) :- b(X), edge(X,Y).", "b(Y) :- a(X), edge(X,Y).", "a(n1)."],
    ):
        for order in (rules, rules[::-1]):
            assert_grounds_pass_by_pass(chain + "\n".join(order))
    assert_grounds_pass_by_pass(PATH_PROGRAM)


def test_annotation_variables_over_several_values_print_as_the_pass_by_pass_fixpoint():
    # :P and [P1,P2] bind every value of an atom, and derived atoms gain
    # values over several passes, which can reorder an atom's set of values
    assert_grounds_pass_by_pass(
        "b(1) : 0.3. b(1) : 0.5. b(2) : [0.2,0.6]. d(1).\n"
        "c(X) : P :- a(X) : P, d(Y).\n"
        "a(X) : P :- b(X) : P.\n"
        "b(X) : 0.7 :- c(X) : 0.3.\n"
        "e(X) : [P1,P2] :- a(X) : [P1,P2], not c(X).\n"
    )


def test_mixed_bodies_print_as_the_pass_by_pass_fixpoint():
    # compound conjuncts, vacuous [0,0] literals, symbolic-set aggregates,
    # `not` and comparisons, in program order and shuffled
    rng = random.Random(29)
    for _ in range(200):
        lines = random_annotated_program(rng)
        for order in (lines, rng.sample(lines, len(lines))):
            assert_grounds_pass_by_pass("\n".join(order))


# programs whose rules have no variables, and the rules they ground to
VARIABLE_FREE = [
    # a rule listed before the rule that derives its body atom
    ("derived-later", "a :- b.\nb :- c.\nc.", {"a :- b.", "b :- c.", "c."}),
    # a body atom derived at two values, the second a pass later
    (
        "two-values",
        "a :- b.\nb : 0.3.\nb : 0.5 :- c.\nc.",
        {"a :- b.", "b:0.3.", "b:0.5 :- c.", "c."},
    ),
    # [0,0] literals on atoms that nothing derives; [0,0.5] is not vacuous
    (
        "vacuous",
        "a :- b : 0.\nc :- a, d(1) : 0.\ne :- b : [0, 0.5].",
        {"a :- b:0.", "c :- a, d(1):0."},
    ),
    # compound literals, one on an atom that nothing derives
    (
        "compound",
        "a :- b and[pcc] c : 0.5.\nd :- b and[pcc] e : 0.5.\nf :- c or[pcd] b.\nb.\nc.",
        {"a :- b and[pcc] c:0.5.", "f :- c or[pcd] b.", "b.", "c."},
    ),
    # rules on comparisons alone, headless ones among them, one false
    (
        "comparisons",
        ":- 1 < 2.\n:- 2 < 1.\na :- 1 < 2.\n:- not a, 1 < 2.",
        {":- 1 < 2.", "a.", ":- not a."},
    ),
    # arguments that arithmetic grounds, or fails to
    (
        "arithmetic",
        "q(1+1).\np :- q(2).\nr :- q(1+1).\ns :- q(a+1).\nt(f(1+1)).\nu :- t(f(2)).",
        {"q(2).", "p :- q(2).", "r :- q(2).", "t(f(2)).", "u :- t(f(2))."},
    ),
]


@pytest.mark.parametrize(
    "text, expected", [case[1:] for case in VARIABLE_FREE], ids=[case[0] for case in VARIABLE_FREE]
)
def test_rules_without_variables_print_as_the_pass_by_pass_fixpoint(text, expected):
    assert rule_strings(ground(text)) == expected
    lines = text.splitlines()
    for order in (lines, lines[::-1]):
        assert_grounds_pass_by_pass("\n".join(order))


def test_a_set_condition_without_variables_matches_only_derived_atoms():
    # grounding `a :- not d` indexes d with no value; the set's condition
    # d, looked up by its key, must not match it
    gp = ground("r(1).\na :- not d.\nq(X) :- r(X), sumP{X : 0.5 | d} > 0.")
    assert rule_strings(gp) == {"r(1).", "a :- not d.", "q(1) :- r(1), sumP{} > 0."}


def test_a_rule_without_variables_is_bound_once_by_key_lookups(monkeypatch):
    # b gains a second value in the pass after `a :- b, c` binds; the rule
    # is not bound again, and no literal is unified or scanned for, not
    # even d(1) when it joins d(2) a pass after its rule first binds
    import dhpp.grounder

    bound: list[tuple[str, list]] = []
    rule_bindings = dhpp.grounder.rule_bindings

    def counting_bindings(plan, *args):
        envs = rule_bindings(plan, *args)
        bound.append((str(plan.rule), envs))
        return envs

    def refuse(*args):
        raise AssertionError("a literal with no variables was unified or scanned for")

    monkeypatch.setattr(dhpp.grounder, "rule_bindings", counting_bindings)
    monkeypatch.setattr(dhpp.grounder, "unify_atom", refuse)
    monkeypatch.setattr(dhpp.grounder.AtomIndex, "lookup", refuse)
    gp = ground("c.\nd(2).\nb : 0.3.\na :- b, c.\nb : 0.5 :- d(1).\nd(1) :- c.")
    assert rule_strings(gp) == {"c.", "d(2).", "b:0.3.", "a :- b, c.", "b:0.5 :- d(1).", "d(1) :- c."}
    assert [envs for rule, envs in bound if rule == "a :- b, c."] == [[{}]]
    assert [envs for rule, envs in bound if rule == "b:0.5 :- d(1)."] == [[], [{}]]


CHAIN = "".join(f"edge(n{i},n{i + 1}).\n" for i in range(1, 30)) + (
    "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n"
)


def test_joins_look_up_bound_arguments(monkeypatch):
    # the transitive closure of a 30-node chain: scanning every path atom
    # for each edge makes 257,491 unifications, looking up Y about 17,500
    import dhpp.grounder

    calls = 0
    unify = dhpp.grounder.unify_atom

    def counting(*args):
        nonlocal calls
        calls += 1
        return unify(*args)

    monkeypatch.setattr(dhpp.grounder, "unify_atom", counting)
    gp = ground(CHAIN)
    assert len(gp.rules) == 29 + 29 + 29 * 28 // 2
    assert calls < 40_000


@pytest.mark.parametrize("left", [True, False], ids=["left-recursive", "right-recursive"])
def test_each_binding_grounds_its_head_once(monkeypatch, left):
    # the chain takes a pass per path length, yet a fact is bound once and
    # no binding's head is grounded twice; a left-recursive rule is joined
    # against new path atoms only, and a right-recursive one, joined
    # against every path atom on each pass, reuses the heads of the
    # bindings it met, those whose comparison fails too
    import dhpp.grounder

    bound: list[tuple[str, int]] = []
    heads: list[tuple[str, frozenset]] = []
    rule_bindings = dhpp.grounder.rule_bindings
    ground_head = dhpp.grounder._ground_head

    def counting_bindings(plan, *args):
        envs = rule_bindings(plan, *args)
        bound.append((str(plan.rule), len(envs)))
        return envs

    def counting_heads(rule, env, index):
        heads.append((str(rule), frozenset(env.items())))
        return ground_head(rule, env, index)

    monkeypatch.setattr(dhpp.grounder, "rule_bindings", counting_bindings)
    monkeypatch.setattr(dhpp.grounder, "_ground_head", counting_heads)
    text = CHAIN if left else CHAIN.replace("path(X,Y), edge(Y,Z)", "edge(X,Y), path(Y,Z), X != n1")
    gp = ground(text)
    facts = [r for r in gp.rules if not r.pos_body]
    assert sorted(rule for rule, _ in bound if not rule.startswith("path")) == sorted(map(str, facts))
    assert len(heads) == len(set(heads))
    recursive = sum(n for rule, n in bound if rule.startswith("path(X,Z)"))
    if left:
        assert len(heads) == len(gp.rules)
        assert recursive == 29 * 28 // 2
    else:
        assert len(heads) > len(gp.rules)
        assert recursive > 29 * 28 // 2


def test_work_budget_bounds_a_join_that_matches_nothing():
    # for each of 1001 u atoms the compound scans every u atom for one with
    # two equal arguments and finds none: a million unifications, all work
    text = "".join(f"u(a{i},b{i}).\n" for i in range(1001))
    with pytest.raises(UniverseOverflow, match="grounding work exceeded"):
        ground(text + "q :- u(A,B), u(X,X) and[pcc] u(Y,Y) : 0.5.\n", max_rules=2000)


def test_work_budget_bounds_an_atomic_join_that_matches_nothing():
    # the same join on an atomic literal: each scan of the u atoms spends
    # the budget whether or not a fact unifies
    text = "".join(f"u(a{i},b{i}).\n" for i in range(1001))
    with pytest.raises(UniverseOverflow, match="grounding work exceeded"):
        ground(text + "q :- u(A,B), u(X,X).\n", max_rules=2000)


def test_grounding_is_monotone_in_facts():
    base = "p(X) :- q(X).\nq(1)."
    bigger = base + "\nq(2)."
    assert rule_strings(ground(base)) <= rule_strings(ground(bigger))


def test_random_programs_ground_clean():
    rng = random.Random(7)
    for _ in range(25):
        gp = random_probability_program(rng)
        for rule in gp.rules:
            assert rule.is_ground()


def test_universe_overflow_on_tiny_caps():
    text = "p(X,Y) :- q(X), q(Y).\n" + "\n".join(f"q({i})." for i in range(12))
    with pytest.raises(UniverseOverflow):
        ground(text, max_rules=20)


def test_value_lattice_contains_zero_and_head_folds(dice_solved):
    lattice = dice_solved.ground.value_lattice()
    half = ProbInterval(Fraction(1, 2), Fraction(1, 2))
    a11 = HybridFormula.atomic(Atom("a", (Num("1"), Num("1"))))
    assert ZERO in lattice[a11]
    assert half in lattice[a11]
    for formula, values in lattice.items():
        assert ZERO in values
        assert len(values) < 10


def test_relevant_formulae_include_aggregate_conditions(dice_solved):
    names = {str(f) for f in dice_solved.ground.relevant_formulae}
    assert {"a(1,1)", "a(2,1)", "a(1,2)", "a(2,2)"} <= names


def test_compound_lattice_composes_components():
    gp = ground("a : 0.5.\nb : 0.4.\nc :- a and[inc] b : 0.2.")
    compound = next(f for f in gp.relevant_formulae if not f.is_atomic)
    lattice = gp.value_lattice()
    product = ProbInterval(Fraction(1, 5), Fraction(1, 5))  # 0.5 * 0.4
    assert product in lattice[compound]
    assert ZERO in lattice[compound]


def shared_atom_programs():
    for path in sorted(PROGRAMS.glob("*.dhpp")):
        yield path.name, ground(path.read_text())
    yield "path", ground(PATH_PROGRAM)
    # a compound, and atoms no head derives: under `not`, in a vacuous
    # literal and in a condition that never matches a set member
    yield "outside", ground(
        "a : 0.5.\nb : 0.4.\nc :- a and[inc] b : 0.2, not d(1).\n"
        "p(X) :- q(X) : 0.\nq(1).\nr(2).\n"
        "s :- sumP{<1 : 0.5 | t(1) : 0.5>} >= 0 : 0, sumP{X : P | u(X) : P} >= 0 : 0."
    )
    yield "translated", ground_program(
        translate_dlp(parse_classical("a | b.  c :- a, not d.  big :- sum{3 : a, 4 : c} >= 5."))
    )
    rng = random.Random(19)
    for n in range(30):
        yield f"recursive {n}", random_recursive_aggregate_program(rng)


def test_rules_share_the_atoms_of_the_value_lattice():
    # one object per ground atom, and per atom one atomic formula, so every
    # lookup the lattice build and the judging make hits on identity
    for name, gp in shared_atom_programs():
        lattice = gp.value_lattice()
        scope = {f: f for f in gp.relevant_formulae}

        def shared_atom(atom):
            assert lattice.atoms[lattice.position[atom]].atoms[0] is atom, (name, str(atom))

        def shared_formula(formula):
            if formula.is_atomic:
                assert scope[formula] is formula, (name, str(formula))
            for atom in formula.atoms:
                shared_atom(atom)

        for rule in gp.rules:
            for atom, _ in rule.head:
                shared_atom(atom)
            for item, _ in rule.pos_body + rule.neg_body:
                if isinstance(item, HybridFormula):
                    shared_formula(item)
                elif isinstance(item, AggregateAtom):
                    for pair in item.pset.pairs:
                        for formula, _ in pair.condition:
                            shared_formula(formula)


def test_a_ground_set_is_made_once_for_all_instances_of_its_rule():
    gp = ground("q(1). q(2). q(3).\np(X) :- q(X), sumP{<1 : 0.5 | a : 0.5>} >= 0 : 0.5.")
    sets = [item.pset for rule in gp.rules for item, _ in rule.pos_body if isinstance(item, AggregateAtom)]
    assert len(sets) == 3
    assert sets[0] is sets[1] is sets[2]


def test_solving_and_judging_compare_no_two_equal_atoms(monkeypatch):
    gp = ground(PATH_PROGRAM)
    eq = Atom.__eq__
    calls = 0

    def counting(self, other):
        nonlocal calls
        calls += self is not other
        return eq(self, other)

    monkeypatch.setattr(Atom, "__eq__", counting)
    answer_sets = enumerate_answer_sets(gp).interpretations
    assert [is_answer_set(gp, h) for h in answer_sets] == [(True, None)]
    assert calls == 0
