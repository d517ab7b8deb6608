import json
import random
from io import StringIO
from pathlib import Path

import pytest

import dhpp.grounder
import dhpp.parser
from dhpp import (
    ONE,
    PInterpretation,
    ProbInterval,
    builtin_registry,
    answer_set_atoms,
    classical_oracle,
    enumerate_answer_sets,
    ground_program,
    parse_formula,
    parse_program,
)
from dhpp.cli import MODES, RunConfig, main, run
from dhpp.strategies import DISJUNCTIVE
from generators import (
    LEAN_PROGRAM,
    PATH_PROGRAM,
    lean_registry,
    random_classical_aggregate_program,
    random_classical_program,
)


def invoke(**kwargs):
    out, err = StringIO(), StringIO()
    code = run(RunConfig(**kwargs), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- config validation -------------------------------------------------------------


def test_modes_are_fixed():
    assert MODES == ("solve", "ground-only", "check-model", "translate-dlp")


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        RunConfig(mode="explain")


def test_config_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        RunConfig(limit=0)


# -- solve -------------------------------------------------------------------------


def test_solve_text_output(dice_path):
    code, out, err = invoke(inputs=[str(dice_path)])
    assert code == 0
    assert err == ""
    assert "answer set 1:" in out
    assert "  a(1,1) : [0.5,0.5]" in out
    assert "  a(1,2) : [0.7,0.7]" in out
    assert out.rstrip().endswith("3 answer sets")


def test_solve_json_output(dice_path):
    code, out, _ = invoke(inputs=[str(dice_path)], json_output=True)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["truncated"] is False
    assert len(payload["answer_sets"]) == 3
    first = payload["answer_sets"][0]["formulae"]
    assert {"formula": "a(1,1)", "text": "a(1,1)", "lo": "1/2", "hi": "1/2"} in first


def test_solve_limit_truncates(dice_path):
    code, out, _ = invoke(inputs=[str(dice_path)], limit=1, json_output=True)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["truncated"] is True

    code, out, _ = invoke(inputs=[str(dice_path)], limit=1)
    assert "(stopped after 1 answer sets)" in out


def test_solve_unsatisfiable_exits_one(tmp_path):
    path = tmp_path / "blocked.dhpp"
    path.write_text("b : 1 :- not b : 1.\n")
    code, out, _ = invoke(inputs=[str(path)])
    assert code == 1
    assert "no answer sets" in out


def test_solve_merges_multiple_files(tmp_path, dice_path):
    text = dice_path.read_text()
    split = text.index(":-")
    facts = tmp_path / "facts.dhpp"
    rules = tmp_path / "rules.dhpp"
    facts.write_text(text[:split])
    rules.write_text(text[split:])
    code, out, _ = invoke(inputs=[str(facts), str(rules)], json_output=True)
    assert code == 0
    assert json.loads(out)["count"] == 3


@pytest.mark.parametrize(
    "first, second",
    [
        ("#default_tau(ind). a : 0.5. a : 0.5 :- b.", "b."),
        ("#default_tau(ind). a : 0.5. a : 0.5 :- b.", "#default_tau(pcd). b."),
        ("#tau(a, ind). a : 0.5.", "a : 0.5 :- b. b. #default_tau(pcd)."),
    ],
)
def test_split_files_solve_as_their_concatenation(tmp_path, first, second):
    whole = tmp_path / "whole.dhpp"
    whole.write_text(f"{first}\n{second}\n")
    head, tail = tmp_path / "head.dhpp", tmp_path / "tail.dhpp"
    head.write_text(first + "\n")
    tail.write_text(second + "\n")
    expected = invoke(inputs=[str(whole)])
    assert expected[0] == 0
    assert invoke(inputs=[str(head), str(tail)]) == expected


# -- ground-only -------------------------------------------------------------------


def test_ground_only_round_trips(dice_path):
    code, out, _ = invoke(inputs=[str(dice_path)], mode="ground-only")
    assert code == 0
    reparsed = ground_program(parse_program(out))
    res = enumerate_answer_sets(reparsed)
    assert [str(h) for h in res.interpretations] == [
        "{a(1,1):[0.5,0.5], a(1,2):[0.7,0.7]}",
        "{a(1,1):[0.5,0.5], a(2,2):[0.3,0.3]}",
        "{a(2,1):[0.5,0.5], a(2,2):[0.3,0.3]}",
    ]


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_source(name: str, tmp_path: Path) -> Path:
    """The program a golden file was made from: programs/NAME.dhpp, or the
    path program."""
    if name == "path":
        source = tmp_path / "path.dhpp"
        source.write_text(PATH_PROGRAM)
        return source
    return Path(__file__).resolve().parent.parent / "programs" / f"{name}.dhpp"


@pytest.mark.parametrize("name", ["dice", "diet", "path"])
def test_ground_only_output_is_pinned(name, tmp_path, capsys):
    # rule order decides candidate order, so the bytes are pinned, not the set
    assert main([str(golden_source(name, tmp_path)), "--mode", "ground-only"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.ground").read_text()


@pytest.mark.parametrize("json_output", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", ["dice", "diet", "path"])
def test_solve_output_is_pinned(name, json_output, tmp_path, capsys):
    # the answer sets, their order and every byte of their rendering
    args = [str(golden_source(name, tmp_path))] + (["--json"] if json_output else [])
    assert main(args) == 0
    suffix = ".json.solve" if json_output else ".solve"
    assert capsys.readouterr().out == (GOLDEN / f"{name}{suffix}").read_text()


@pytest.mark.parametrize("json_output", [False, True], ids=["text", "json"])
def test_check_model_output_on_a_raised_answer_set_is_pinned(json_output, tmp_path, capsys):
    # dice's first answer set with its first value below [1,1] raised to it,
    # off the value lattice: a p-model, rejected as not minimal, with the
    # witness the minimality search finds
    source = str(golden_source("dice", tmp_path))
    assert main([source, "--json"]) == 0
    model = json.loads(capsys.readouterr().out)["answer_sets"][0]
    entry = next(e for e in model["formulae"] if (e["lo"], e["hi"]) != ("1", "1"))
    entry["lo"] = entry["hi"] = "1"
    path = tmp_path / "raised.json"
    path.write_text(json.dumps(model))
    args = [source, "--mode", "check-model", "--model", str(path)]
    assert main(args + (["--json"] if json_output else [])) == 1
    suffix = ".raised.json.check" if json_output else ".raised.check"
    assert capsys.readouterr().out == (GOLDEN / f"dice{suffix}").read_text()


def test_check_model_output_on_an_entry_outside_the_scope_is_pinned(tmp_path, diet_path, capsys):
    # diet's first answer set plus zzz, which the program never mentions: a
    # p-model on every rule, rejected for the entry alone
    assert main([str(diet_path), "--json"]) == 0
    model = json.loads(capsys.readouterr().out)["answer_sets"][0]
    model["formulae"].append({"formula": "zzz", "lo": "1", "hi": "1"})
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(model))
    args = [str(diet_path), "--mode", "check-model", "--model", str(path)]
    reason = "assigns [1,1] to zzz, which the program never mentions"
    assert main(args) == 1
    assert capsys.readouterr().out == (
        f"rules satisfied: 68/68\np-model: yes\nanswer set: no ({reason})\n"
    )
    assert main(args + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "p_model": True,
        "answer_set": False,
        "rules_satisfied": 68,
        "rules_total": 68,
        "failure": reason,
    }


def test_ground_only_keeps_constraints_headless(tmp_path):
    path = tmp_path / "c.dhpp"
    path.write_text("__c.\na | b.\n:- a.\n")
    code, out, _ = invoke(inputs=[str(path)], mode="ground-only")
    assert code == 0
    assert ":- a." in out.splitlines()
    direct = enumerate_answer_sets(ground_program(parse_program(path.read_text())))
    reparsed = enumerate_answer_sets(ground_program(parse_program(out)))
    assert [str(h) for h in reparsed.interpretations] == [
        str(h) for h in direct.interpretations
    ] == ["{__c:[1,1], b:[1,1]}"]


# -- check-model -------------------------------------------------------------------


def write_model(tmp_path, formulae):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"formulae": formulae}))
    return str(path)


def test_check_model_round_trip(tmp_path, dice_path):
    _, out, _ = invoke(inputs=[str(dice_path)], json_output=True)
    first = json.loads(out)["answer_sets"][0]["formulae"]
    model = write_model(tmp_path, first)
    code, out, _ = invoke(inputs=[str(dice_path)], mode="check-model", model=model)
    assert code == 0
    assert "p-model: yes" in out
    assert "answer set: yes" in out


def test_check_model_rejects_discarded_roll(tmp_path, dice_path):
    model = write_model(
        tmp_path,
        [
            {"text": "a(2,1)", "lo": "0.5", "hi": "0.5"},
            {"text": "a(1,2)", "lo": "0.7", "hi": "0.7"},
        ],
    )
    code, out, _ = invoke(inputs=[str(dice_path)], mode="check-model", model=model)
    assert code == 1
    assert "not a p-model:" in out
    assert "rules satisfied:" in out


def test_check_model_detects_non_minimal(tmp_path, dice_path):
    model = write_model(
        tmp_path,
        [
            {"text": "a(1,1)", "lo": "1", "hi": "1"},
            {"text": "a(1,2)", "lo": "1", "hi": "1"},
        ],
    )
    code, out, _ = invoke(inputs=[str(dice_path)], mode="check-model", model=model)
    assert code == 1
    assert "p-model: yes" in out
    assert "answer set: no" in out


def test_check_model_json_payload(tmp_path, dice_path):
    model = write_model(
        tmp_path,
        [
            {"text": "a(1,1)", "lo": "1/2", "hi": "1/2"},
            {"text": "a(1,2)", "lo": "7/10", "hi": "7/10"},
        ],
    )
    code, out, _ = invoke(
        inputs=[str(dice_path)], mode="check-model", model=model, json_output=True
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_model"] is True
    assert payload["answer_set"] is True
    assert payload["failure"] is None
    assert payload["rules_satisfied"] == payload["rules_total"]


def test_check_model_computes_the_p_model_report_once(tmp_path, dice_path, monkeypatch):
    import dhpp.cli
    import dhpp.solver

    checked = []
    original = dhpp.solver.satisfies_program

    def counting(gp, h):
        # the judge passes its interpretation as a point
        checked.append(h.interpretation())
        return original(gp, h)

    for module in (dhpp.cli, dhpp.solver):
        monkeypatch.setattr(module, "satisfies_program", counting, raising=False)
    model = write_model(
        tmp_path,
        [
            {"text": "a(1,1)", "lo": "1", "hi": "1"},
            {"text": "a(1,2)", "lo": "1", "hi": "1"},
        ],
    )
    code, _, _ = invoke(inputs=[str(dice_path)], mode="check-model", model=model)
    assert code == 1
    # the minimality search also checks smaller interpretations
    h = PInterpretation.from_pairs((parse_formula(t), ONE) for t in ("a(1,1)", "a(1,2)"))
    assert checked.count(h) == 1


def test_check_model_requires_model_flag(dice_path):
    code, _, err = invoke(inputs=[str(dice_path)], mode="check-model")
    assert code == 2
    assert "--model" in err


def test_check_model_bad_file(tmp_path, dice_path):
    path = tmp_path / "model.json"
    path.write_text('{"formulae": [{"lo": "0.5"}]}')
    code, _, err = invoke(
        inputs=[str(dice_path)], mode="check-model", model=str(path)
    )
    assert code == 2
    assert "bad model file" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"formulae": ["a(1,1)"]},
            'formulae[0] must be an object with "formula" or "text", "lo" and "hi"',
        ),
        (
            {"formulae": [{"formula": "a(1,1)", "lo": "1", "hi": "1"}, ["a(1,1)", "1", "1"]]},
            'formulae[1] must be an object with "formula" or "text", "lo" and "hi"',
        ),
        (
            {"model": []},
            '"formulae" must be a list, each entry an object with "formula" or "text", "lo" and "hi"',
        ),
        (
            {"formulae": {"formula": "a(1,1)", "lo": "1", "hi": "1"}},
            '"formulae" must be a list, each entry an object with "formula" or "text", "lo" and "hi"',
        ),
        (
            [],
            '"formulae" must be a list, each entry an object with "formula" or "text", "lo" and "hi"',
        ),
        (
            {"formulae": [
                {"formula": "a(1,1)", "lo": "0.5", "hi": "0.5"},
                {"formula": "a(1,1)", "lo": "1", "hi": "1"},
            ]},
            "conflicting values for a(1,1)",
        ),
        (
            {"formulae": [{"formula": "a(1,1)", "lo": "1"}]},
            'formulae[0] must be an object with "formula" or "text", "lo" and "hi"',
        ),
        (
            {"formulae": [
                {"formula": "a(1,1)", "lo": "1", "hi": "1"},
                {"text": "", "lo": "1", "hi": "1"},
            ]},
            'formulae[1] must be an object with "formula" or "text", "lo" and "hi"',
        ),
    ],
    ids=[
        "entry-not-an-object",
        "second-entry-not-an-object",
        "formulae-missing",
        "formulae-not-a-list",
        "file-not-an-object",
        "conflicting-values",
        "entry-missing-hi",
        "entry-missing-formula",
    ],
)
def test_check_model_reports_a_malformed_model_file(tmp_path, dice_path, payload, message):
    # none may crash with a traceback and exit 1, which reads as "not an
    # answer set"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(inputs=[str(dice_path)], mode="check-model", model=str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad model file {path}: {message}\n"


@pytest.mark.parametrize(
    "lo, hi, code",
    [("0.1", "1/10", 0), (0.1, 0.1, 2), (True, True, 2), (0, 0, 1), (1, 1, 1)],
    ids=["strings", "floats", "bools", "int-zero", "int-one"],
)
def test_check_model_reads_endpoints_exactly(tmp_path, lo, hi, code):
    # a JSON number with a fraction part would arrive as a binary float, and
    # 0.1 is not 1/10 there: such a value is refused, never rounded
    program = tmp_path / "a.dhpp"
    program.write_text("a : 0.1.")
    model = write_model(tmp_path, [{"formula": "a", "lo": lo, "hi": hi}])
    got, out, err = invoke(inputs=[str(program)], mode="check-model", model=model)
    assert got == code
    if code == 2:
        assert "bad model file" in err and out == ""
    else:
        assert ("answer set: yes" in out) == (code == 0)


# -- translate-dlp -----------------------------------------------------------------


def test_translate_dlp_output_solves(tmp_path):
    path = tmp_path / "classic.lp"
    path.write_text("a | b.\n:- a.\n")
    code, out, _ = invoke(inputs=[str(path)], mode="translate-dlp")
    assert code == 0
    assert ":- a." in out.splitlines()  # the constraint, still headless
    res = enumerate_answer_sets(ground_program(parse_program(out)))
    kept = [
        {str(f) for f, v in h.entries if v.lo == 1}
        for h in res.interpretations
    ]
    assert kept == [{"b"}]


@pytest.mark.parametrize(
    "build", [random_classical_program, random_classical_aggregate_program]
)
def test_translate_dlp_round_trips_through_the_cli(build, tmp_path, capsys):
    # theorem (a) end to end: file in, translated text out, solved again
    rng = random.Random(29)
    for n in range(60):
        program = build(rng)
        path = tmp_path / f"classic{n}.lp"
        path.write_text(str(program))
        assert main([str(path), "--mode", "translate-dlp"]) == 0
        res = enumerate_answer_sets(ground_program(parse_program(capsys.readouterr().out)))
        got = sorted(sorted(str(a) for a in answer_set_atoms(h)) for h in res.interpretations)
        expected = sorted(sorted(str(a) for a in s) for s in classical_oracle(program))
        assert got == expected, str(program)


# -- strategy overrides ------------------------------------------------------------


def test_strategies_file_changes_the_fold(tmp_path):
    program = tmp_path / "two.dhpp"
    program.write_text("a : 0.3.\na : 0.4.\n")
    code, out, _ = invoke(inputs=[str(program)])
    assert code == 0
    assert "a : [0.4,0.4]" in out  # default fold keeps the larger bound

    overrides = tmp_path / "tau.dhpp"
    overrides.write_text("#default_tau(ind).\n")
    code, out, _ = invoke(inputs=[str(program)], strategies=str(overrides))
    assert code == 0
    assert "a : [0.58,0.58]" in out  # 0.3 + 0.4 - 0.12


def test_strategies_file_targets_one_atom(tmp_path):
    program = tmp_path / "two.dhpp"
    program.write_text("a : 0.3.\na : 0.4.\nb : 0.3.\nb : 0.4.\n")
    overrides = tmp_path / "tau.dhpp"
    overrides.write_text("#tau(a, ind).\n")
    code, out, _ = invoke(inputs=[str(program)], strategies=str(overrides))
    assert code == 0
    assert "a : [0.58,0.58]" in out
    assert "b : [0.4,0.4]" in out


def test_strategies_file_comment_leaves_the_default(tmp_path):
    program = tmp_path / "two.dhpp"
    program.write_text("#default_tau(ind).\na : 0.5.\na : 0.5 :- b.\nb.\n")
    overrides = tmp_path / "tau.dhpp"
    overrides.write_text("% default_tau is left alone\n#tau(b, pcd).\n")
    code, out, _ = invoke(inputs=[str(program)], strategies=str(overrides))
    assert code == 0
    assert "a : [0.75,0.75]" in out  # 0.5 + 0.5 - 0.25 under ind


def test_strategies_file_rejects_rules(tmp_path, dice_path):
    overrides = tmp_path / "tau.dhpp"
    overrides.write_text("#tau(a, ind).\nc : 0.5.\n")
    code, _, err = invoke(inputs=[str(dice_path)], strategies=str(overrides))
    assert code == 2
    assert "directives only" in err


# -- failure modes -----------------------------------------------------------------


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.dhpp"
    path.write_text("a :- .\n")
    code, _, err = invoke(inputs=[str(path)])
    assert code == 2
    assert f"{path}:1:" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("a : 1.5.", "1:5: annotation constant 1.5 outside [0,1]"),
        ("a : [0.7, 0.3].", "1:5: interval endpoints out of order: [7/10, 3/10]"),
        ("b.\na : pcomp(0.5, 0.5) :- b.", "2:5: annotation function 'pcomp' does not take 2 arguments"),
        ("#default_tau(nosuch).", "1:14: unknown strategy 'nosuch'"),
        ("a :- avgE{<1 : 0.5 | b>} > 1.", "1:6: unknown aggregate function 'avgE'"),
    ],
)
def test_validation_errors_report_their_position_once(tmp_path, text, message):
    path = tmp_path / "invalid.dhpp"
    path.write_text(text + "\n")
    code, _, err = invoke(inputs=[str(path)])
    assert code == 2
    assert err == f"error: {path}:{message}\n"


def test_missing_input_file():
    code, _, err = invoke(inputs=["/no/such/file.dhpp"])
    assert code == 2
    assert "error:" in err


# -- argv entry point --------------------------------------------------------------


def test_main_reads_seed_from_environment(dice_path, monkeypatch, capsys):
    monkeypatch.setenv("DHPP_SEED", "42")
    code = main([str(dice_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3


def test_main_names_a_seed_that_is_no_integer(dice_path, monkeypatch, capsys):
    monkeypatch.setenv("DHPP_SEED", "x")
    code = main([str(dice_path)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: DHPP_SEED must be an integer, got 'x'\n")


def test_check_model_judges_under_a_non_expansive_strategy(tmp_path, monkeypatch, capsys):
    # the console script registers no strategy of its own, so mn joins the
    # built-in ones here. The lattice records that mn folds a's head
    # annotations below one of them: solving refuses, checking judges
    def registry():
        registry = builtin_registry()
        registry.register(
            "mn", DISJUNCTIVE, lambda x, y: ProbInterval(min(x.lo, y.lo), min(x.hi, y.hi))
        )
        return registry

    monkeypatch.setattr(dhpp.parser, "builtin_registry", registry)
    monkeypatch.setattr(dhpp.grounder, "builtin_registry", registry)
    program = tmp_path / "mn.dhpp"
    program.write_text("#default_tau(mn). a. a : 0.5.")
    model = write_model(tmp_path, [{"formula": "a", "lo": "1", "hi": "1"}])
    assert main([str(program), "--mode", "check-model", "--model", model]) == 0
    assert capsys.readouterr() == ("rules satisfied: 2/2\np-model: yes\nanswer set: yes\n", "")
    assert main([str(program)]) == 2
    assert capsys.readouterr().err.startswith("error: strategy mn is not expansive on a:")


def test_solve_refuses_a_strategy_that_folds_off_the_lattice(tmp_path, monkeypatch, capsys):
    # lean's folds depend on the order of their operands; the closure meets
    # one the lattice does not hold, and solving exits 2 naming it
    monkeypatch.setattr(dhpp.parser, "builtin_registry", lean_registry)
    monkeypatch.setattr(dhpp.grounder, "builtin_registry", lean_registry)
    program = tmp_path / "lean.dhpp"
    program.write_text(LEAN_PROGRAM)
    assert main([str(program)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: strategy lean folds [0.4,0.4] and [0.2,0.2] on p to a value off the lattice, "
        "so the solver could miss answer sets\n",
    )


def test_main_rejects_bad_limit(dice_path, capsys):
    code = main([str(dice_path), "--limit", "-3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
