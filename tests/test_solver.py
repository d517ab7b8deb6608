import itertools
import random
import re
import threading
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

import dhpp._lattice
import dhpp.semantics
import dhpp.solver
from dhpp import (
    ONE,
    Atom,
    HybridFormula,
    InvalidInterval,
    NonExpansiveStrategy,
    PInterpretation,
    ProbInterval,
    Program,
    Rule,
    SearchSpaceOverflow,
    UniverseOverflow,
    builtin_registry,
    enumerate_answer_sets,
    ground_program,
    interp_leq,
    interp_lt,
    is_answer_set,
    parse_classical,
    parse_program,
    reduct,
    satisfies_program,
    translate_dlp,
    truth_leq,
    ZERO,
)
from dhpp._lattice import _Point, _Row, _RowTable, _sorted_row
from dhpp.grounder import GroundProgram
from dhpp.model import AGG_FUNCS, AggregateAtom
from dhpp.solver import (
    _Compiled,
    _leaves,
    _MinimalitySearch,
    find_smaller_model,
    pairwise_incomparable,
)
from dhpp.strategies import compose_fold, CONJUNCTIVE, DISJUNCTIVE
from generators import (
    brute_force_answer_sets,
    check_selection,
    definite_fixpoint,
    LEAN_PROGRAM,
    lean_registry,
    original_dhpp_answer_sets,
    random_aggregate_program,
    random_classical_program,
    random_definite_program,
    random_interval,
    random_probability_program,
    random_recursive_aggregate_program,
    reference_candidate,
    reference_atom_lattices,
    reference_closure,
    reference_satisfies_program,
    search_domains,
)


def solve_text(text: str):
    gp = ground_program(parse_program(text))
    return gp, enumerate_answer_sets(gp)


def interp_strings(result) -> list[str]:
    return [str(h) for h in result.interpretations]


# -- the two-dice program ----------------------------------------------------------

DICE_ANSWER_SETS = [
    "{a(1,1):[0.5,0.5], a(1,2):[0.7,0.7]}",
    "{a(1,1):[0.5,0.5], a(2,2):[0.3,0.3]}",
    "{a(2,1):[0.5,0.5], a(2,2):[0.3,0.3]}",
]


def test_dice_answer_sets_exact(dice_solved):
    assert interp_strings(dice_solved.result) == DICE_ANSWER_SETS
    assert not dice_solved.result.truncated


def test_dice_excludes_the_discarded_roll(dice_solved):
    # faces 2 and 1 sum to 3 with joint probability 0.35 >= 0.3
    bad = PInterpretation.from_pairs(
        [
            (HybridFormula.atomic(Atom("a", ("2", "1"))), ProbInterval("0.5", "0.5")),
            (HybridFormula.atomic(Atom("a", ("1", "2"))), ProbInterval("0.7", "0.7")),
        ]
    )
    assert str(bad) not in interp_strings(dice_solved.result)
    ok, reason = is_answer_set(dice_solved.ground, bad)
    assert not ok
    assert reason is not None


def test_dice_answer_sets_verify(dice_solved):
    for h in dice_solved.result.interpretations:
        ok, reason = is_answer_set(dice_solved.ground, h)
        assert ok, reason


def test_dice_certificates_align(dice_solved):
    res = dice_solved.result
    assert len(res.certificates) == len(res.interpretations)
    assert all(c.reduct_size >= 1 for c in res.certificates)


# -- small hand-checked programs ---------------------------------------------------


def test_naf_supported_atom():
    _, res = solve_text("a : 0.5 :- not b : 1.")
    assert interp_strings(res) == ["{a:[0.5,0.5]}"]


def test_user_atom_c_does_not_switch_a_constraint_off():
    _, res = solve_text("__c.  a.  :- a.")
    assert res.interpretations == []


def test_naf_self_blocking_has_no_answer_set():
    # b would have to be derived exactly when it is not
    _, res = solve_text("b : 1 :- not b : 1.")
    assert res.interpretations == []


def test_empty_program_has_the_empty_answer_set():
    _, res = solve_text("")
    assert len(res.interpretations) == 1
    assert res.interpretations[0].entries == ()


def test_disjunctive_fact_splits():
    _, res = solve_text("a : 0.4 | b : 0.6.")
    assert interp_strings(res) == ["{a:[0.4,0.4]}", "{b:[0.6,0.6]}"]


def test_positive_loop_stays_empty():
    _, res = solve_text("a : 0.5 :- b : 0.5.  b : 0.5 :- a : 0.5.")
    assert len(res.interpretations) == 1
    assert res.interpretations[0].entries == ()


def test_raised_atom_is_model_but_not_answer_set():
    gp, _ = solve_text("a : 0.5.")
    raised = PInterpretation.from_pairs(
        [(HybridFormula.atomic(Atom("a")), ProbInterval("0.9", "0.9"))]
    )
    ok, reason = is_answer_set(gp, raised)
    assert not ok
    assert "minimal" in reason


def test_foreign_formula_is_rejected():
    gp, _ = solve_text("a : 0.5.")
    stray = PInterpretation.from_pairs(
        [
            (HybridFormula.atomic(Atom("a")), ProbInterval("0.5", "0.5")),
            (HybridFormula.atomic(Atom("zzz")), ProbInterval("0.5", "0.5")),
        ]
    )
    ok, reason = is_answer_set(gp, stray)
    assert not ok
    assert "never mentions" in reason


def test_find_smaller_model_returns_witness():
    gp, _ = solve_text("a : 0.5.")
    a = HybridFormula.atomic(Atom("a"))
    top = PInterpretation.from_pairs([(a, ProbInterval(1, 1))])
    witness, nodes = find_smaller_model(gp, top)
    assert witness is not None
    assert witness.value(a) == ProbInterval("0.5", "0.5")
    assert nodes >= 1


def test_find_smaller_model_none_at_bottom():
    gp, _ = solve_text("a : 0.5.")
    a = HybridFormula.atomic(Atom("a"))
    exact = PInterpretation.from_pairs([(a, ProbInterval("0.5", "0.5"))])
    witness, _ = find_smaller_model(gp, exact)
    assert witness is None


def test_find_smaller_model_drops_an_entry_outside_the_scope():
    # h equals the only p-model on the scope, but also assigns zzz: the
    # leaf that is h on the scope is strictly smaller, and the witness
    gp, _ = solve_text("a : 0.5.")
    a = HybridFormula.atomic(Atom("a"))
    half = ProbInterval("0.5", "0.5")
    h = PInterpretation.from_pairs([(a, half), (HybridFormula.atomic(Atom("zzz")), half)])
    red = reduct(gp, satisfies_program(gp, h))
    witness, _ = find_smaller_model(red, h)
    assert witness == PInterpretation.from_pairs([(a, half)])


def test_a_point_carries_its_entry_outside_the_scope_to_the_search():
    # h numbered by the caller searches as h itself does: the point keeps
    # zzz, so the leaf that is h on the scope is still the witness
    gp, _ = solve_text("a : 0.5.")
    a = HybridFormula.atomic(Atom("a"))
    half = ProbInterval("0.5", "0.5")
    zzz = HybridFormula.atomic(Atom("zzz"))
    h = PInterpretation.from_pairs([(a, half), (zzz, half)])
    point = gp.value_lattice().point(h)
    assert point.outside == (zzz, half)
    red = reduct(gp, satisfies_program(gp, point))
    searched = find_smaller_model(red, point)
    assert searched == find_smaller_model(red, h)
    assert searched[0] == PInterpretation.from_pairs([(a, half)])


def test_a_leaf_with_the_atoms_of_h_and_a_lower_compound_is_a_witness():
    # every leaf has h's atoms, but the compound composes to 0.75, below
    # the 1 that h assigns it: that leaf is strictly smaller
    gp, _ = solve_text("a : 0.5. c : 0.5. b :- a or[ind] c : 0.5.")
    (compound,) = [f for f in gp.relevant_formulae if not f.is_atomic]
    a, b, c = (HybridFormula.atomic(Atom(n)) for n in "abc")
    half, one = ProbInterval("0.5", "0.5"), ProbInterval(1, 1)
    h = PInterpretation.from_pairs([(a, half), (c, half), (b, one), (compound, one)])
    red = reduct(gp, satisfies_program(gp, h))
    witness, _ = find_smaller_model(red, h)
    assert witness == PInterpretation.from_pairs(
        [(a, half), (c, half), (b, one), (compound, ProbInterval("0.75", "0.75"))]
    )
    assert is_answer_set(gp, h) == (False, f"not minimal: the reduct has a smaller p-model {witness}")


# -- the compiled closure ----------------------------------------------------------


def closure_corpus(dice_solved, diet_solved):
    rng = random.Random(31)
    yield dice_solved.ground
    yield diet_solved.ground
    for _ in range(100):
        yield random_aggregate_program(rng)
    for _ in range(100):
        yield random_probability_program(rng)
    for _ in range(50):
        yield ground_program(translate_dlp(random_classical_program(rng)))
    # compound conditions and all eleven aggregate functions
    for _ in range(100):
        yield random_recursive_aggregate_program(rng)


def test_compiled_closure_matches_the_reference(dice_solved, diet_solved):
    # the search's leaves that agree with their own guesses are exactly the
    # distinct closures of the candidates of the product that do, in rule
    # order and under a seeded rotation
    closed = 0
    rng = random.Random(37)
    for gp in closure_corpus(dice_solved, diet_solved):
        compiled = _Compiled(gp)
        keys = compiled.keys
        total = 2 ** len(keys) * prod(len(rule.head) for rule in gp.rules if rule.head)
        if total > 256:
            continue
        expected = set()
        for index in range(total):
            guesses, choices = reference_candidate(keys, gp, index)
            h = reference_closure(gp, guesses, choices)
            if all(
                guesses[key] == truth_leq(key[2], h.value(key[1])) for key in keys if key[0] == "naf"
            ):
                expected.add(h)
            closed += 1
        for leaves in (_leaves(compiled), _leaves(compiled, rng)):
            got = {compiled.point(values).interpretation() for values in leaves if values is not None}
            assert got == expected, str(gp)
    assert closed > 2000


def test_a_not_guess_on_a_non_monotone_compound_is_checked_at_the_leaf():
    # xr composes a and b to 1 while a is 1 and b 0, then to 0 once b is 1:
    # the closure satisfies `a and[xr] b` on its way, and a search that cut
    # the guess that `not` holds there lost the answer set
    registry = builtin_registry()
    registry.register(
        "xr", CONJUNCTIVE,
        lambda x, y: ProbInterval(x.lo + y.lo - 2 * x.lo * y.lo, x.hi + y.hi - 2 * x.hi * y.hi),
    )
    gp = ground_program(parse_program("a. b :- a. c :- not a and[xr] b.", registry=registry))
    expected = ["{a:[1,1], b:[1,1], c:[1,1]}"]
    assert [str(h) for h in brute_force_answer_sets(gp)] == expected
    for seed in (None, 1, 2, 3):
        assert interp_strings(enumerate_answer_sets(gp, seed=seed)) == expected


def test_candidates_contradicting_their_closure_skip_the_p_model_check(monkeypatch):
    # 16 candidates guess `not a`, `not b`, `not c` and `not d`; only the four
    # whose guesses agree with their closure are checked, and all four are
    # answer sets (checking every distinct closure makes 21 calls)
    checked = []
    original = dhpp.solver.satisfies_program

    def counting(gp, h):
        checked.append(h)
        return original(gp, h)

    monkeypatch.setattr(dhpp.solver, "satisfies_program", counting)
    _, res = solve_text("a :- not b. b :- not a. c :- not d. d :- not c. e :- a, not c.")
    assert interp_strings(res) == [
        "{a:[1,1], c:[1,1]}",
        "{a:[1,1], d:[1,1], e:[1,1]}",
        "{b:[1,1], c:[1,1]}",
        "{b:[1,1], d:[1,1]}",
    ]
    assert len(checked) == 4


def min_registry():
    registry = builtin_registry()
    registry.register(
        "mn", DISJUNCTIVE, lambda x, y: ProbInterval(min(x.lo, y.lo), min(x.hi, y.hi))
    )
    return registry


def test_non_expansive_strategy_is_reported():
    # the answer set is {a:[1,1]}, but the closure folds a down to 0.5
    gp = ground_program(parse_program("#default_tau(mn). a. a : 0.5.", registry=min_registry()))
    with pytest.raises(NonExpansiveStrategy, match=r"strategy mn .* on a: .*\[0.5,0.5\]"):
        enumerate_answer_sets(gp)
    top = PInterpretation.from_pairs([(HybridFormula.atomic(Atom("a")), ProbInterval(1, 1))])
    assert is_answer_set(gp, top) == (True, None)


def test_non_expansiveness_is_data_on_the_lattice():
    # the lattice records the offending composition and judges on; only
    # enumeration, whose closure it would make incomplete, refuses
    gp = ground_program(parse_program("#default_tau(mn). a. a : 0.5.", registry=min_registry()))
    a, half, one = HybridFormula.atomic(Atom("a")), ProbInterval("0.5", "0.5"), ProbInterval(1, 1)
    lattice = gp.value_lattice()
    assert lattice.non_expansive == ("mn", a, half, one, half)
    assert lattice[a] == (ZERO, half, one)
    with pytest.raises(NonExpansiveStrategy) as raised:
        enumerate_answer_sets(gp)
    assert str(raised.value) == (
        "strategy mn is not expansive on a: it composes [0.5,0.5] and [1,1] to [0.5,0.5], "
        "so the solver could miss answer sets"
    )
    assert is_answer_set(gp, PInterpretation.from_pairs([(a, one)])) == (True, None)


def test_the_lattice_rows_match_the_first_build():
    # compositions memoised per build, repeated annotations skipped and rows
    # shared by value give each atom the values, rank order and fold table
    # the first build gave it, and the same offence, under mn too, and
    # under avg, whose folds depend on the order of the occurrences
    registry = min_registry()
    registry.register(
        "avg", DISJUNCTIVE, lambda x, y: ProbInterval((x.lo + y.lo) / 2, (x.hi + y.hi) / 2)
    )
    rng = random.Random(41)
    makers = [
        random_probability_program,
        random_aggregate_program,
        random_recursive_aggregate_program,
        lambda rng: ground_program(translate_dlp(random_classical_program(rng))),
    ]

    def programs():
        # equal annotations in another order fold to other values under avg
        reordered = "#default_tau(avg). a : 0.2. a : 0.4. a : 0.8. b : 0.8. b : 0.4. b : 0.2."
        yield ground_program(parse_program(reordered, registry=registry))
        # a row whose order by hi is not its order by lo, and one whose
        # values' lower ends round to one float
        third = "1000000000000000000000000000001/3000000000000000000000000000000"
        crossed = f"a : [0.3,0.9]. a : [0.5,0.5]. b : 1/3. b : [{third},1]. b : [1/3,1/2]."
        yield ground_program(parse_program(crossed))
        for n in range(400):
            gp = makers[n % 4](rng)
            yield gp
            if n % 4 == 0:
                for name in ("mn", "avg"):
                    yield ground_program(
                        Program(rules=gp.rules, tau={}, default_tau=name, registry=registry)
                    )

    tables = offences = 0
    for gp in programs():
        lattice = gp.value_lattice()
        rows, folds, offence = reference_atom_lattices(gp)
        assert lattice.atom_values == rows, str(gp)
        assert lattice.folds == folds, str(gp)
        assert lattice.non_expansive == offence, str(gp)
        tables += sum(table is not None for table in folds)
        offences += offence is not None
    assert tables > 300 and offences > 20


def test_a_row_is_sorted_by_lo_then_hi_whatever_order_its_set_gives():
    # the lower ends of the second to fourth round to one float, and the
    # order by hi is not the order by lo; a row of two comes in either
    # order from its set, built as the lattice builds it, ZERO added last
    third = Fraction(1, 3)
    values = [
        ZERO,
        ProbInterval(third, third),
        ProbInterval(third, 1),
        ProbInterval(third + Fraction(1, 10**30), Fraction(1, 2)),
        ProbInterval(Fraction(3, 10), Fraction(9, 10)),
        ProbInterval(Fraction(1, 2), Fraction(1, 2)),
        ProbInterval(0, Fraction(1, 5)),
        ONE,
    ]
    firsts = set()
    for size in range(1, len(values)):
        for others in itertools.combinations(values[1:], size):
            row = set(others)
            row.add(ZERO)
            if size == 1:
                firsts.add(next(iter(row)) is ZERO)
            assert _sorted_row(row) == tuple(sorted(row, key=lambda v: (v.lo, v.hi)))
    assert firsts == {True, False}


# -- the process-wide row table ------------------------------------------------------


@pytest.fixture()
def rows(monkeypatch) -> _RowTable:
    """An empty row table in place of the process's, for this test only."""
    table = _RowTable()
    monkeypatch.setattr(dhpp._lattice, "_ROWS", table)
    return table


def corpus(seed: int, count: int) -> list[GroundProgram]:
    """Programs of the generators in turn: probability, aggregate,
    recursive aggregate and translated classical ones."""
    rng = random.Random(seed)
    makers = [
        random_probability_program,
        random_aggregate_program,
        random_recursive_aggregate_program,
        lambda rng: ground_program(translate_dlp(random_classical_program(rng))),
    ]
    return [makers[n % len(makers)](rng) for n in range(count)]


def solved(gp: GroundProgram) -> tuple[list[str], list]:
    result = enumerate_answer_sets(gp)
    return interp_strings(result), result.certificates


def test_strategies_of_one_name_with_other_compositions_share_no_row(rows):
    # the table keys a row on the composition, not on the strategy's name:
    # each registry's `s` gives the answer sets it gives alone
    text = "#default_tau(s). a : 0.5. a : 0.4. b :- a : 0.6."
    alone, registries = [], []
    for compose in (
        lambda x, y: ProbInterval(max(x.lo, y.lo), max(x.hi, y.hi)),
        lambda x, y: ProbInterval(x.lo + y.lo - x.lo * y.lo, x.hi + y.hi - x.hi * y.hi),
    ):
        registry = builtin_registry()
        registry.register("s", DISJUNCTIVE, compose)
        registries.append(registry)
        dhpp._lattice._ROWS = _RowTable()
        alone.append(solved(ground_program(parse_program(text, registry=registry))))
    assert alone[0][0] == ["{a:[0.5,0.5]}"]
    assert alone[1][0] == ["{a:[0.7,0.7], b:[1,1]}"]
    dhpp._lattice._ROWS = rows
    for registry, expected in [*zip(registries, alone), *zip(registries, alone)]:
        assert solved(ground_program(parse_program(text, registry=registry))) == expected


def test_the_row_table_holds_no_more_values_than_its_bound(rows, monkeypatch):
    # each program folds other annotations, so its rows are new; the table
    # evicts the oldest rows and never holds more values than ROWS_CAP
    monkeypatch.setattr(dhpp._lattice, "ROWS_CAP", 12)
    texts = [f"#default_tau(ind). a : 0.{n}. a : 0.5. b :- a : 0.{n}." for n in range(1, 10)]
    alone = []
    for text in texts:
        dhpp._lattice._ROWS = _RowTable()
        alone.append(solved(ground_program(parse_program(text))))
    dhpp._lattice._ROWS = rows
    built = 0
    for text, expected in zip(texts, alone):
        gp = ground_program(parse_program(text))
        assert solved(gp) == expected
        built += sum(map(len, gp.value_lattice().atom_values))
        assert rows.held == sum(len(row.values) for row in rows.values()) <= 12
    assert built > 12 and rows


@pytest.mark.parametrize("bound", [6, 100])
def test_rows_put_at_once_under_one_key_are_counted_once(monkeypatch, bound):
    # programs solved in threads can build one row at once and each put
    # it; the table keeps one and counts its values once, whether it then
    # evicts (a bound of 6 values, three rows) or not
    monkeypatch.setattr(dhpp._lattice, "ROWS_CAP", bound)
    table = _RowTable()
    made = [_Row((ZERO, ProbInterval(Fraction(n, 10), 1)), None, None) for n in range(1, 10)]
    putting = threading.Barrier(4, timeout=60)

    def work() -> None:
        for n, row in enumerate(made):
            putting.wait()
            table.put(("key", n), row)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert table.held == sum(len(row.values) for row in table.values()) <= bound
    assert list(table) == [("key", n) for n in range(9 - min(bound // 2, 9), 9)]


def test_a_row_whose_build_overflows_is_not_stored(rows, monkeypatch):
    text = "#default_tau(ind). a : 0.1. a : 0.2. a : 0.3."
    cap = dhpp._lattice.LATTICE_CAP
    monkeypatch.setattr(dhpp._lattice, "LATTICE_CAP", 5)
    with pytest.raises(UniverseOverflow, match="value lattice for a exceeded 5"):
        enumerate_answer_sets(ground_program(parse_program(text)))
    assert not rows and rows.held == 0
    monkeypatch.setattr(dhpp._lattice, "LATTICE_CAP", cap)
    gp = ground_program(parse_program(text))
    assert len(gp.value_lattice().atom_values[0]) == 8
    assert rows.held == 8


def test_the_corpora_solve_alike_in_either_order_in_one_process(rows):
    # a program meets the rows that the programs before it left, in another
    # order the second time; its answer sets and certificates do not change
    programs = corpus(43, 160)
    forward = [solved(gp) for gp in programs]
    assert rows
    again = corpus(43, 160)
    backward = [solved(gp) for gp in reversed(again)]
    assert backward[::-1] == forward
    assert sum(len(found) for found, _ in forward) > 100


def test_masks_on_rows_another_program_built_match_the_truth_order(rows):
    # every program after the first reads rows that earlier programs built
    # and read; its masks are those a fresh truth_leq walk of the row gives
    programs = corpus(47, 160)
    grid = [ProbInterval(lo, hi) for lo, hi in itertools.combinations_with_replacement(
        [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)], 2
    )]
    seen: set[int] = set()
    reused = 0
    for gp in programs:
        lattice = gp.value_lattice()
        annotations = {ann for rule in gp.rules for _, ann in rule.head + rule.pos_body + rule.neg_body}
        for k, row in enumerate(lattice.atom_values):
            reused += id(lattice.rows[k]) in seen
            for ann in [*annotations, *grid]:
                expected = sum(1 << r for r, v in enumerate(row) if truth_leq(ann, v))
                assert lattice.satisfying(k, ann) == expected, (str(gp), ann)
            for r, top in enumerate(row):
                expected = sum(1 << s for s, v in enumerate(row) if truth_leq(v, top))
                assert lattice.below(k, r) == expected, str(gp)
        # the forms' disjuncts rank each head annotation as the row does
        for head in lattice.rule_forms(gp.rules)[1]:
            for k, mask, rank, ann in head:
                assert rank == lattice.atom_values[k].index(ann)
        seen.update(map(id, lattice.rows))
    assert reused > 200


def test_the_non_expansive_atom_reported_is_the_one_the_last_rule_heads_first():
    # c offends, and so does a; c heads the last rule
    text = "#default_tau(mn). a : 0.5. a. b : 0.9 :- a. c. c : 0.2 :- a."
    gp = ground_program(parse_program(text, registry=min_registry()))
    with pytest.raises(NonExpansiveStrategy, match=r"^strategy mn is not expansive on c: it composes \[0.2,0.2\] and \[1,1\]"):
        enumerate_answer_sets(gp)


def test_the_non_expansive_composition_reported_is_the_first_in_rank_order():
    # avg composes 0.2, the least value but ZERO, below each larger
    # annotation; the composition named is that with the least annotation
    # rank, 0.4, whatever order the occurrences come in
    registry = builtin_registry()
    registry.register(
        "avg", DISJUNCTIVE, lambda x, y: ProbInterval((x.lo + y.lo) / 2, (x.hi + y.hi) / 2)
    )
    text = "#default_tau(avg). a : 0.2 :- t0. t0. a : 0.8 :- t1. t1. a : 0.6 :- t2. t2. a : 0.4 :- t3. t3."
    gp = ground_program(parse_program(text, registry=registry))
    with pytest.raises(NonExpansiveStrategy) as raised:
        enumerate_answer_sets(gp)
    assert str(raised.value) == (
        "strategy avg is not expansive on a: it composes [0.2,0.2] and [0.4,0.4] to [0.3,0.3], "
        "so the solver could miss answer sets"
    )


def test_a_fold_off_the_lattice_is_refused_by_name():
    # the lattice folds p's occurrences in program order, 0.2 then 0.4,
    # and lean never lowers a fold; the closure derives 0.4 first, and
    # lean folds 0.4 and 0.2 to 0.525, which the lattice does not hold
    gp = ground_program(parse_program(LEAN_PROGRAM, registry=lean_registry()))
    assert gp.value_lattice().non_expansive is None
    with pytest.raises(NonExpansiveStrategy) as raised:
        enumerate_answer_sets(gp)
    assert str(raised.value) == (
        "strategy lean folds [0.4,0.4] and [0.2,0.2] on p to a value off the lattice, "
        "so the solver could miss answer sets"
    )
    # the check folds in rule order, as the lattice does, and judges on
    p, q, r = (HybridFormula.atomic(Atom(n)) for n in "pqr")
    h = PInterpretation.from_pairs([(p, ProbInterval("0.4", "0.4")), (q, ONE), (r, ONE)])
    assert is_answer_set(gp, h) == (True, None)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("#default_tau(mn). a.", ["{a:[1,1]}"]),
        ("#default_tau(mn). a : 0.5. b :- a : 0.5.", ["{a:[0.5,0.5], b:[1,1]}"]),
    ],
)
def test_lone_occurrences_under_a_non_expansive_strategy_solve(text, expected):
    gp = ground_program(parse_program(text, registry=min_registry()))
    assert interp_strings(enumerate_answer_sets(gp)) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        # a ZERO annotation is folded first, so its row must be in the table
        ("a : 0. a : 0.5.", ["{a:[0.5,0.5]}"]),
        ("a : 0 :- b. b. a : 0.5 :- c. c :- a : 0.", ["{a:[0.5,0.5], b:[1,1], c:[1,1]}"]),
        # ZERO is no fold here, and mn composes it below 0.5
        ("#default_tau(mn). a : 0.5. a : 0.5 :- t. t.", ["{a:[0.5,0.5], t:[1,1]}"]),
    ],
)
def test_fold_table_rows_are_the_folds_of_head_annotations(text, expected):
    gp = ground_program(parse_program(text, registry=min_registry()))
    assert interp_strings(enumerate_answer_sets(gp)) == expected


# -- enumeration controls ----------------------------------------------------------


def test_limit_truncates(dice_solved):
    res = enumerate_answer_sets(dice_solved.ground, limit=2)
    assert len(res.interpretations) == 2
    assert res.truncated
    assert interp_strings(res) == DICE_ANSWER_SETS[:2]


def test_generous_limit_is_not_truncation(dice_solved):
    res = enumerate_answer_sets(dice_solved.ground, limit=50)
    assert len(res.interpretations) == 3
    assert not res.truncated


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_must_be_positive(dice_solved, limit):
    with pytest.raises(ValueError, match="^limit must be positive$"):
        enumerate_answer_sets(dice_solved.ground, limit=limit)


def test_limited_queries_return_answer_sets_of_the_full_enumeration():
    rng = random.Random(43)
    programs = [random_aggregate_program(rng) for _ in range(40)]
    programs += [random_probability_program(rng) for _ in range(40)]
    programs += [ground_program(translate_dlp(random_classical_program(rng))) for _ in range(40)]
    compared = 0
    for gp in programs:
        everything = interp_strings(enumerate_answer_sets(gp))
        for limit in (1, 2):
            res = enumerate_answer_sets(gp, limit=limit)
            got = interp_strings(res)
            assert len(got) == min(limit, len(everything)), str(gp)
            assert set(got) <= set(everything), str(gp)
            assert res.truncated == (len(everything) >= limit), str(gp)
            compared += len(everything) > limit
    assert compared > 20


def test_enumeration_is_deterministic(dice_solved):
    again = enumerate_answer_sets(dice_solved.ground)
    assert interp_strings(again) == interp_strings(dice_solved.result)


def test_seed_shuffles_search_not_answers(dice_solved):
    for seed in (1, 7, 99):
        res = enumerate_answer_sets(dice_solved.ground, seed=seed)
        assert interp_strings(res) == DICE_ANSWER_SETS


def test_full_enumeration_does_not_depend_on_the_seed():
    rng = random.Random(41)
    for _ in range(40):
        for gp in (random_aggregate_program(rng), random_probability_program(rng)):
            expected = interp_strings(enumerate_answer_sets(gp))
            for seed in range(5):
                got = interp_strings(enumerate_answer_sets(gp, seed=seed))
                assert got == expected, f"seed {seed}\n{gp}"


def test_seeded_first_model_is_repeatable_in_bounded_memory():
    text = "".join(f"a(1,{i}) : 0.5 | a(2,{i}) : 0.5.\n" for i in range(1, 19))
    text += ":- sumP{X : P | a(X,Y) : P} >= 36 : 0.\n"
    gp = ground_program(parse_program(text))
    gp.value_lattice()
    tracemalloc.start()
    try:
        first = enumerate_answer_sets(gp, limit=1, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    again = enumerate_answer_sets(gp, limit=1, seed=5)
    assert first.truncated and len(first.interpretations) == 1
    assert interp_strings(again) == interp_strings(first)
    # 2**18 candidates: holding even one byte per candidate would fail this
    assert peak < 2**18


def test_diet_search_covers_only_its_package_plans(diet_solved):
    # constraints add no guesses: 6 binary package choices, 64 candidates
    res = enumerate_answer_sets(diet_solved.ground, max_candidates=64)
    assert len(res.interpretations) == 4
    assert interp_strings(res) == interp_strings(diet_solved.result)


def test_enumeration_renders_no_rule_text(diet_solved, monkeypatch):
    # enumeration drops the reason a candidate is rejected, so it never
    # prints the rule that a rejected candidate fails
    rendered = []
    original = Rule.__str__

    def counting(rule):
        rendered.append(rule)
        return original(rule)

    monkeypatch.setattr(Rule, "__str__", counting)
    res = enumerate_answer_sets(diet_solved.ground)
    assert len(res.interpretations) == 4
    assert rendered == []


def test_enumeration_renders_no_minimality_witness(monkeypatch):
    # {a, b} is a p-model of `a | b. b :- a.` but not minimal: its reduct
    # has the smaller p-model {b}. Enumeration drops that witness, so the
    # only interpretations it renders are the answer sets it returns.
    gp = ground_program(translate_dlp(parse_classical("a | b. b :- a.")))
    rendered = []
    original = PInterpretation.__str__

    def recording(h):
        rendered.append(h)
        return original(h)

    monkeypatch.setattr(PInterpretation, "__str__", recording)
    res = enumerate_answer_sets(gp)
    assert [original(h) for h in res.interpretations] == ["{b:[1,1]}"]
    assert all(any(h is g for g in res.interpretations) for h in rendered)
    # a check that asks why still gets the witness, in the same words
    a, b = (HybridFormula.atomic(Atom(name)) for name in "ab")
    one = ProbInterval(1, 1)
    both = PInterpretation.from_pairs([(a, one), (b, one)])
    assert is_answer_set(gp, both) == (
        False,
        "not minimal: the reduct has a smaller p-model {b:[1,1]}",
    )


def raised(gp, h, value=lambda v: ONE):
    """h with its highest atom below [1,1] raised to value(its value), as
    the benchmark raises the neighbours it checks; None when every atom is
    at [1,1]."""
    below = [f for f in gp.relevant_formulae if f.is_atomic and h.value(f) != ONE]
    if not below:
        return None
    top = max(below, key=lambda f: (h.value(f).hi, h.value(f).lo))
    rest = [(g, v) for g, v in h.entries if g != top]
    return PInterpretation.from_pairs(rest + [(top, value(h.value(top)))])


def test_a_witness_and_the_answer_sets_render_as_their_interpretations():
    # a rejection names its witness, and enumeration sorts its answer sets,
    # by the text the value lattice renders each atom's entry of once per
    # program: the text str gives, on a fresh program and again on one whose
    # enumeration has filled the memo, for models raised onto the lattice
    # and off it, compounds included
    rng = random.Random(29)
    witnesses = off = compounds = several = 0
    generators = (random_probability_program, random_aggregate_program, random_recursive_aggregate_program)
    for make in generators:
        for _ in range(100):
            gp = make(rng)
            fresh = GroundProgram(gp.rules, gp.tau, gp.default_tau, gp.registry)
            found = enumerate_answer_sets(gp).interpretations
            texts = [str(h) for h in found]
            assert texts == sorted(texts), str(gp)
            several += len(found) > 1
            halfway = lambda v: ProbInterval((v.hi + 1) / 2, 1)
            models = found + [m for h in found for m in (raised(gp, h), raised(gp, h, halfway)) if m]
            for program in (fresh, gp):
                lattice = program.value_lattice()
                for m in models:
                    assert lattice.point(m).text() == str(m)
                    off += bool(lattice.point(m).extra)
                    reason = is_answer_set(program, m)[1]
                    if reason is None or not reason.startswith("not minimal"):
                        continue
                    red = reduct(program, satisfies_program(program, m))
                    witness = find_smaller_model(red, m)[0]
                    assert reason.endswith(" " + str(witness)), reason
                    witnesses += 1
                    compounds += any(not f.is_atomic for f in witness.support())
    assert witnesses > 500 and off > 500 and compounds > 10 and several > 40


def test_a_point_numbers_each_value_by_its_rank_or_keeps_it_apart():
    # a value equal to a row's entry, though another object, takes that
    # entry's rank; one off the row takes the bit above it, and keeps its
    # value in extra; a formula outside the scope is the point's outside
    gp = ground_program(parse_program("a : 0.5. a : 0.3 :- b. b : 0.5."))
    lattice = gp.value_lattice()
    a, b, zzz = (HybridFormula.atomic(Atom(name)) for name in ("a", "b", "zzz"))
    k = lattice.position[Atom("a")]
    row = lattice[a]
    r = len(row) - 1
    equal = ProbInterval(row[r].lo, row[r].hi)
    assert equal == row[r] and equal is not row[r]
    point = lattice.point(PInterpretation.from_pairs([(a, equal)]))
    assert point.domains[k] == 1 << r and point.extra == {} and point.outside is None
    off = ProbInterval("0.9", "0.9")
    assert off not in row
    stray = ProbInterval("0.5", "0.5")
    point = lattice.point(PInterpretation.from_pairs([(a, off), (b, stray), (zzz, stray)]))
    assert point.domains[k] == 1 << len(row) and point.extra == {k: off}
    assert point.outside == (zzz, stray)


def test_minimality_domains_are_the_values_at_or_below_the_candidate():
    # a domain is every lattice value at or below the candidate's value,
    # plus that value itself, sorted by (lo, hi); some values lie outside
    # the lattice
    rng = random.Random(17)
    checked = outside = 0
    for n in range(80):
        gp = (random_aggregate_program if n % 2 else random_probability_program)(rng)
        lattice = gp.value_lattice()
        for _ in range(4):
            h = PInterpretation.from_pairs(
                (f, rng.choice(lattice[f]) if rng.random() < 0.6 else random_interval(rng))
                for f in gp.relevant_formulae
            )
            search = _MinimalitySearch(gp, lattice.point(h), node_cap=1)
            assert sorted(search.atoms, key=str) == [f for f in gp.relevant_formulae if f.is_atomic]
            for f, domain in search_domains(search).items():
                assigned = h.value(f)
                values = {v for v in lattice[f] if truth_leq(v, assigned)}
                outside += assigned not in values
                values.add(assigned)
                assert domain == tuple(sorted(values, key=lambda v: (v.lo, v.hi)))
                checked += 1
    assert checked > 600 and outside > 200


def smaller_models(red, h, lattice, cap: int = 4096):
    """Every p-model of red strictly below h over the search's domains, by
    brute force: per atom, the lattice values at or below h's value plus
    that value itself; per compound, the composition of its components,
    kept when it lies at or below h's value. None past cap combinations."""
    atoms = [f for f in red.relevant_formulae if f.is_atomic]
    compounds = [f for f in red.relevant_formulae if not f.is_atomic]
    domains = []
    for f in atoms:
        top = h.value(f)
        below = [v for v in lattice[f] if truth_leq(v, top)]
        domains.append(below + [top] * (top not in below))
    if prod(len(d) for d in domains) > cap:
        return None
    models = set()
    for values in itertools.product(*domains):
        chosen = dict(zip(atoms, values))
        for f in compounds:
            component = [chosen[HybridFormula.atomic(a)] for a in f.atoms]
            chosen[f] = compose_fold(red.formula_strategy(f), component)
        if not all(truth_leq(chosen[f], h.value(f)) for f in compounds):
            continue
        candidate = PInterpretation.from_pairs(chosen.items())
        if candidate != h and reference_satisfies_program(red, candidate).satisfied:
            models.add(candidate)
    return models


def test_find_smaller_model_matches_brute_force():
    # h mixes lattice values with intervals off the lattice
    rng = random.Random(29)
    judged = found = 0
    for n in range(160):
        gp = (random_aggregate_program if n % 2 else random_probability_program)(rng)
        lattice = gp.value_lattice()
        for _ in range(3):
            h = PInterpretation.from_pairs(
                (f, rng.choice(lattice[f]) if rng.random() < 0.6 else random_interval(rng))
                for f in gp.relevant_formulae
            )
            red = reduct(gp, satisfies_program(gp, h))
            models = smaller_models(red, h, lattice)
            if models is None:
                continue
            witness, _ = find_smaller_model(red, h)
            assert (witness is not None) == bool(models), (str(gp), str(h))
            if witness is not None:
                assert witness in models
                assert interp_lt(witness, h)
                found += 1
            judged += 1
    assert judged > 300 and found > 100


def test_candidate_cap_overflows(dice_solved):
    # the cap bounds the leaves visited, and the error says how far the
    # search got
    with pytest.raises(SearchSpaceOverflow, match=r"^search exceeded 1 leaves: 1 visited, [01] answer sets found$"):
        enumerate_answer_sets(dice_solved.ground, max_candidates=1)


def test_a_negative_candidate_cap_is_rejected():
    # a cap of -1 was never met by the leaf count, so it ran with no cap
    gp = ground_program(parse_program("a | b. c | d."))
    with pytest.raises(ValueError, match="max_candidates"):
        enumerate_answer_sets(gp, max_candidates=-1)
    with pytest.raises(SearchSpaceOverflow):
        enumerate_answer_sets(gp, max_candidates=0)
    assert len(enumerate_answer_sets(gp, max_candidates=4).interpretations) == 4


def test_rules_that_never_fire_add_no_leaves():
    # 2**20 disjunct choices, but no rule fires, so the search has one leaf
    text = "".join(f"a{i} | b{i} :- c.\n" for i in range(20))
    res = enumerate_answer_sets(ground_program(parse_program(text)), max_candidates=1)
    assert interp_strings(res) == ["{}"]
    assert not res.truncated


def test_a_limited_query_decides_no_guess_no_ready_rule_needs():
    # c never reaches 1, so the 24 rules that need it never get ready and
    # their guesses are never decided: both guesses on z leave no answer
    # set, and a limited query, like the full one, stops after two leaves
    text = "c : 0.5.\na :- not z.\n:- a.\n" + "".join(f"x{i} :- c : 1, not d{i}.\n" for i in range(24))
    gp = ground_program(parse_program(text))
    for limit in (None, 1):
        res = enumerate_answer_sets(gp, limit=limit, max_candidates=2)
        assert res.interpretations == []
        assert not res.truncated


def test_judging_an_answer_set_decides_each_aggregate_once(dice_solved, monkeypatch):
    # the p-model check decides the sumP constraint's body, and the reduct is
    # read from that check, so it evaluates the aggregate no second time; a
    # repeated judgement and one of a larger neighbour do the same
    calls = []
    original = dhpp.semantics.eval_aggregate

    def counting(func, multiset):
        calls.append(func)
        return original(func, multiset)

    monkeypatch.setattr(dhpp.semantics, "eval_aggregate", counting)
    h = dice_solved.result.interpretations[0]
    # the highest atom below [1,1] raised to [1,1], which keeps every
    # condition of the constraint's pairs as it was
    top = max((f for f, v in h.entries if v.hi < 1), key=lambda f: h.value(f).hi)
    neighbour = PInterpretation.from_pairs(
        [(f, v) for f, v in h.entries if f != top] + [(top, ProbInterval(1, 1))]
    )
    assert is_answer_set(dice_solved.ground, h) == (True, None)
    assert len(calls) == 1
    assert is_answer_set(dice_solved.ground, h) == (True, None)
    assert len(calls) == 2
    assert not is_answer_set(dice_solved.ground, neighbour)[0]
    assert len(calls) == 3


def test_a_reversed_guard_fails_only_when_its_aggregate_is_compared():
    text = "b :- c, sumP{1 : 1 | a} >= [3,1]."
    _, res = solve_text(text)
    assert interp_strings(res) == ["{}"]
    with pytest.raises(InvalidInterval, match="out of order"):
        solve_text("c. " + text)


def test_enumeration_builds_an_interpretation_per_answer_set_only(diet_path, monkeypatch):
    # diet has 64 distinct candidates to judge and 4 answer sets, and no
    # candidate fails on minimality alone; the judge reads each candidate's
    # point, and an answer set is built from the point it judged
    built = []
    original = _Point.interpretation

    def counting(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(_Point, "interpretation", counting)
    gp = ground_program(parse_program(diet_path.read_text(encoding="utf-8")))
    result = enumerate_answer_sets(gp)
    assert len(result.interpretations) == 4
    assert len(built) == 4


def test_a_reduct_builds_no_lattice_of_its_own(diet_path, monkeypatch):
    # enumeration, a check of each answer set and of a non-minimal model all
    # judge reducts and the minimality search's leaves over the lattice of
    # the program they come from
    built = []
    original = GroundProgram.value_lattice

    def recording(gp):
        built.append(gp)
        return original(gp)

    monkeypatch.setattr(GroundProgram, "value_lattice", recording)
    gp = ground_program(parse_program(diet_path.read_text(encoding="utf-8")))
    found = enumerate_answer_sets(gp).interpretations
    for h in found:
        assert is_answer_set(gp, h) == (True, None)
    one = ProbInterval(1, 1)
    top = PInterpretation.from_pairs((f, one) for f in gp.relevant_formulae if f.is_atomic)
    assert is_answer_set(gp, top)[1].startswith("not minimal")
    assert len(found) == 4 and built and all(program is gp for program in built)


def test_a_reduct_shares_the_tables_of_its_source():
    # a reduct, and a reduct of a reduct, keep the program they come from
    # as their source, with its strategies, and read its scope and value
    # lattice; no caller hands the search a lattice
    gp = ground_program(parse_program("#default_tau(ind). #tau(b, pcd). a : 0.5. b :- a : 0.5. c :- not b."))
    one = ProbInterval(1, 1)
    h = PInterpretation.from_pairs((f, one) for f in gp.relevant_formulae)
    red = reduct(gp, satisfies_program(gp, h))
    again = reduct(red, satisfies_program(red, h))
    assert again.rules == red.rules == list(satisfies_program(gp, h).fired)
    for program in (red, again):
        assert type(program) is GroundProgram and program.source is gp
        assert (program.tau, program.default_tau) == ({"b": "pcd"}, "ind")
        assert program.registry is gp.registry
        assert program.value_lattice() is gp.value_lattice()
        assert program.relevant_formulae is gp.relevant_formulae
    assert find_smaller_model(again, h)[0] is not None
    with pytest.raises(TypeError):
        find_smaller_model(red, h, gp.value_lattice())


def test_a_closure_cannot_stand_in_for_the_minimality_search():
    # {a, b} is a p-model whose reduct keeps both rules; its smaller p-model
    # {b} is unsupported, so no closure of the reduct reaches it, and only a
    # search over the values below {a, b} finds it
    gp = ground_program(
        translate_dlp(parse_classical("a :- count{1:a, 1:b} != 1. b :- count{1:a, 1:b} != 1."))
    )
    one = ProbInterval(1, 1)
    h = PInterpretation.from_pairs((HybridFormula.atomic(Atom(n)), one) for n in "ab")
    report = satisfies_program(gp, h)
    assert report.satisfied
    ok, reason = is_answer_set(gp, h)
    assert not ok and reason.startswith("not minimal")
    red = reduct(gp, report)
    witness, _ = find_smaller_model(red, h)
    assert witness is not None
    assert interp_lt(witness, h)
    assert satisfies_program(red, witness).satisfied
    assert enumerate_answer_sets(gp).interpretations == []


def diet_non_minimal_models(diet_solved):
    """Two p-models of diet that are no answer set: the union of its answer
    sets (a formula in several takes its first value) and every atom at
    [1,1]."""
    union: dict = {}
    for h in diet_solved.result.interpretations:
        for f, v in h.entries:
            union.setdefault(f, v)
    one = ProbInterval(1, 1)
    yield PInterpretation.from_pairs(union.items())
    yield PInterpretation.from_pairs(
        (f, one) for f in diet_solved.ground.relevant_formulae if f.is_atomic
    )


def test_non_minimal_diet_models_are_rejected_within_a_small_node_cap(diet_solved):
    # branching in printed-name order took over 20,000 nodes on each; the
    # witness is checked as a model, not pinned as text
    gp = diet_solved.ground
    for h in diet_non_minimal_models(diet_solved):
        report = satisfies_program(gp, h)
        assert report.satisfied
        ok, reason = is_answer_set(gp, h, node_cap=2_000)
        assert not ok and reason.startswith("not minimal")
        red = reduct(gp, report)
        witness, nodes = find_smaller_model(red, h, node_cap=2_000)
        assert witness is not None and nodes <= 2_000
        assert interp_lt(witness, h)
        assert satisfies_program(red, witness).satisfied


def test_node_cap_bounds_the_check_of_one_answer_set(dice_solved):
    h = dice_solved.result.interpretations[0]
    with pytest.raises(SearchSpaceOverflow):
        is_answer_set(dice_solved.ground, h, node_cap=0)


# -- incomparability ---------------------------------------------------------------


def test_answer_sets_pairwise_incomparable(dice_solved):
    assert pairwise_incomparable(dice_solved.result.interpretations)


@pytest.mark.parametrize(
    "generator, seed",
    [(random_probability_program, 3), (random_aggregate_program, 4)],
    ids=["probability", "aggregate"],
)
def test_random_answer_sets_are_accepted_again_and_incomparable(generator, seed):
    # answer sets are minimal p-models, so each passes the exact check
    # again and no two of one program are related by the truth order
    rng = random.Random(seed)
    several = 0
    for _ in range(400):
        gp = generator(rng)
        found = enumerate_answer_sets(gp).interpretations
        for h in found:
            assert is_answer_set(gp, h) == (True, None), f"{h}\n{gp}"
        assert pairwise_incomparable(found), str(gp)
        several += len(found) > 1
    assert several >= 40


def test_pairwise_incomparable_detects_order():
    a = HybridFormula.atomic(Atom("a"))
    b = HybridFormula.atomic(Atom("b"))
    small = PInterpretation.from_pairs([(a, ProbInterval("0.5", "0.5"))])
    big = PInterpretation.from_pairs(
        [(a, ProbInterval("0.5", "0.5")), (b, ProbInterval("0.3", "0.3"))]
    )
    assert interp_leq(small, big)
    assert not pairwise_incomparable([small, big])


# -- differential checks -----------------------------------------------------------


def test_definite_programs_have_their_fixpoint():
    rng = random.Random(404)
    for _ in range(30):
        gp = random_definite_program(rng)
        res = enumerate_answer_sets(gp)
        assert len(res.interpretations) == 1
        assert str(res.interpretations[0]) == str(definite_fixpoint(gp))


def test_matches_brute_force_on_random_programs():
    rng = random.Random(1105)
    checked = 0
    while checked < 40:
        gp = random_probability_program(rng)
        expected = brute_force_answer_sets(gp)
        if expected is None:
            continue
        got = enumerate_answer_sets(gp)
        assert [str(h) for h in got.interpretations] == [str(h) for h in expected]
        assert pairwise_incomparable(got.interpretations)
        checked += 1


def test_matches_the_original_dhpp_semantics_on_random_programs():
    # theorem (b): without aggregates, the answer sets are those of the
    # original DHPP semantics, whose reduct drops the rules a `not` blocks
    rng = random.Random(17)
    answered = 0
    for _ in range(300):
        gp = random_probability_program(rng)
        expected = original_dhpp_answer_sets(gp)
        assert expected is not None
        got = enumerate_answer_sets(gp).interpretations
        assert [str(h) for h in got] == [str(h) for h in expected], str(gp)
        answered += bool(expected)
    assert answered > 250


def test_matches_brute_force_on_aggregate_programs():
    rng = random.Random(2011)
    checked = 0
    while checked < 100:
        gp = random_aggregate_program(rng)
        expected = brute_force_answer_sets(gp, cap=500)
        if expected is None:
            continue
        got = enumerate_answer_sets(gp)
        assert [str(h) for h in got.interpretations] == [str(h) for h in expected], str(gp)
        checked += 1


def test_matches_brute_force_on_recursive_aggregate_programs():
    # every one of the eleven functions, in rules whose heads feed the
    # conditions of their own aggregates; min and max are also judged on
    # selections that hold no member
    rng = random.Random(2027)
    checked = 0
    functions = set()
    empty_extrema = 0
    while checked < 150:
        gp = random_recursive_aggregate_program(rng)
        expected = brute_force_answer_sets(gp, cap=500)
        if expected is None:
            continue
        got = enumerate_answer_sets(gp)
        assert [str(h) for h in got.interpretations] == [str(h) for h in expected], str(gp)
        aggregates = [
            item for rule in gp.rules for item, _ in rule.pos_body + rule.neg_body
            if isinstance(item, AggregateAtom)
        ]
        functions.update(item.func for item in aggregates)
        empty_extrema += sum(
            item.func[:3] in ("min", "max") and check_selection(item.pset, h) == []
            for item in aggregates
            for h in expected
        )
        checked += 1
    assert functions == set(AGG_FUNCS)
    assert empty_extrema > 10


# -- metamorphic checks ------------------------------------------------------------

RENAMING = dict(zip("abcde", "edcba"))


def rename(text: str) -> str:
    return re.sub(r"\b[a-e]\b", lambda m: RENAMING[m.group()], text)


def answer_set_entries(gp, renamed=False) -> set[frozenset]:
    return {
        frozenset((rename(str(f)) if renamed else str(f), v) for f, v in h.entries)
        for h in enumerate_answer_sets(gp).interpretations
    }


def metamorphic_corpus():
    rng = random.Random(77)
    for _ in range(25):
        yield random_probability_program(rng)
        yield random_aggregate_program(rng)


def test_rule_order_does_not_change_answer_sets():
    rng = random.Random(5)
    for gp in metamorphic_corpus():
        directives, *rules = str(gp).splitlines()
        rng.shuffle(rules)
        shuffled = ground_program(parse_program("\n".join([directives, *rules])))
        assert answer_set_entries(shuffled) == answer_set_entries(gp), str(gp)


def test_renaming_predicates_renames_answer_sets():
    for gp in metamorphic_corpus():
        renamed = ground_program(parse_program(rename(str(gp))))
        assert answer_set_entries(renamed) == answer_set_entries(gp, renamed=True), str(gp)
