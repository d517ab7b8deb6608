"""The benchmark's per-layer tracing still reaches every layer.

bench/spans.py wraps pipeline functions at the module attributes where
their callers look them up. A refactor that calls a layer some other way
would silently drop that layer's metrics from traced runs; this test makes
it fail instead.
"""

import importlib
from pathlib import Path

from dhpp import enumerate_answer_sets, ground_program, is_answer_set, parse_program

BENCH = Path(__file__).resolve().parent.parent / "bench"


# atoms fold through the value lattice's fold tables, so strategy
# compositions are traced where a compound formula is composed
COMPOUND = "x : 0.5. y : 0.4. z :- x and[pcc] y : 0.3."


def test_tracer_hooks_every_layer_of_a_solve_and_a_check(dice_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("spans").Tracer()
    tracer.install()
    try:
        with tracer.span("round"):
            for text in (dice_path.read_text(encoding="utf-8"), COMPOUND):
                tracer.phase = "solve"
                gp = ground_program(parse_program(text))
                result = enumerate_answer_sets(gp)
                tracer.phase = "check"
                assert is_answer_set(gp, result.interpretations[0]) == (True, None)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    seen = {span.name for span in tracer.spans}
    for name in (
        "ground_rule",
        "satisfies_program",
        "reduct",
        "find_smaller_model",
        "build_multiset",
        "eval_aggregate",
    ):
        assert name in seen, name
    assert tracer.counts["strategies.fold_calls"] > 0
