"""Independent checks of solver output, and the corruptions that test them.

Checkers see answer sets only in the canonical form of `workloads.Answer`
and compare them with results computed apart from dhpp. They return None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from workloads import ONE, Answer, DiceSpec, Job

ZERO = (Fraction(0), Fraction(0))


def leq(a: Answer, b: Answer) -> bool:
    """Truth order, pointwise: [a1,b1] <= [a2,b2] iff a1 <= a2 and b1 <= b2."""
    return all(lo <= b.get(k, ZERO)[0] and hi <= b.get(k, ZERO)[1] for k, (lo, hi) in a.items())


def incomparable(answers: list[Answer]) -> str | None:
    """Distinct answer sets are never related by the truth order."""
    for (i, a), (j, b) in itertools.combinations(enumerate(answers), 2):
        if leq(a, b) or leq(b, a):
            return f"answer sets {i + 1} and {j + 1} are comparable"
    return None


def same_sets(expected: list[Answer], got: list[Answer]) -> str | None:
    want = {frozenset(h.items()) for h in expected}
    have = [frozenset(h.items()) for h in got]
    if len(set(have)) != len(have):
        return "an answer set is reported twice"
    missing = len(want - set(have))
    extra = len(set(have) - want)
    if missing or extra:
        return f"{missing} expected answer sets missing, {extra} unexpected ones found"
    return None


def one_roll(spec: DiceSpec, answers: list[Answer]) -> str | None:
    """A first-model query returns one roll the constraint keeps."""
    if len(answers) != 1:
        return f"expected one model, got {len(answers)}"
    h = answers[0]
    roll = []
    for die in range(1, len(spec.probs) + 1):
        faces = [f for f in (1, 2) if f"a({f},{die})" in h]
        if len(faces) != 1:
            return f"die {die} shows {len(faces)} faces"
        roll.append(faces[0])
    roll = tuple(roll)
    if h != spec.roll_answer(roll):
        return "the model is not a roll at its face probabilities"
    if spec.triggers(roll):
        return "the model is a roll the constraint discards"
    return None


def check_operation(job: Job, answers: list[Answer]) -> str | None:
    reason = incomparable(answers)
    if reason is None:
        if job.expected is not None:
            reason = same_sets(job.expected, answers)
        else:
            reason = one_roll(job.dice, answers)
    return reason


def repeatable(before: list[Answer], after: list[Answer]) -> str | None:
    """The same query on the same program gives the same result."""
    return None if before == after else "the same query gave a different result"


# -- corruptions for the self-check -------------------------------------------------


def _changed(h: Answer) -> Answer:
    """One value moved: the first below [1,1] is raised to it, or else the
    first formula drops to [0,1]."""
    out = dict(h)
    key = next((k for k, v in h.items() if v != ONE), next(iter(h)))
    out[key] = ONE if h[key] != ONE else (Fraction(0), Fraction(1))
    return out


def corruptions(job: Job, answers: list[Answer]) -> list[tuple[str, list[Answer]]]:
    """Wrong results a checker must reject, derived from a right one."""
    out = []
    if answers:
        h, rest = answers[0], answers[1:]
        out.append(("drop an answer set", rest))
        out.append(("repeat an answer set", answers + [h]))
        out.append(("change one value", [_changed(h)] + rest))
        out.append(("drop one formula", [dict(list(h.items())[1:])] + rest))
        out.append(("add a strictly larger copy", answers + [{**h, "zz_extra": ONE}]))
        paths = [k for k in h if k.startswith("path(")]
        if paths:
            x, y = paths[0][5:-1].split(",")
            out.append(("flip one path atom off", [{k: v for k, v in h.items() if k != paths[0]}]))
            out.append(("flip one path atom on", [{**h, f"path({y},{x})": ONE}]))
        plans = [k for k in h if k.startswith("pckg(")]
        if plans:
            food, size, scen = plans[0][5:-1].split(",")
            swapped = {k: v for k, v in h.items() if k != plans[0]}
            swapped[f"pckg({food},{3 - int(size)},{scen})"] = ONE
            out.append(("swap one package size", [swapped] + rest))
    else:
        out.append(("invent an answer set", [{"a": ONE}]))
    spec = job.dice
    if spec is not None:
        bad = next(
            r for r in itertools.product((1, 2), repeat=len(spec.probs)) if spec.triggers(r)
        )
        out.append(("put in a discarded roll", answers[:-1] + [spec.roll_answer(bad)]))
        if answers:
            both = {**answers[0], **spec.roll_answer((1,)), **spec.roll_answer((2,))}
            out.append(("show both faces of die 1", [both] + answers[1:]))
    return out
