"""Workload inputs and their expected results, computed without dhpp.

Every generator takes a `random.Random` seeded from the command line, so a
seed fixes the inputs. Each workload is a list of jobs: a program text plus
the queries run against it, one operation per query. The expected answer
sets come from brute force over plain `Fraction`s written here, never from
dhpp, and are computed once per run, before timing starts.

An answer set is compared in a canonical form: a dict from the printed
formula (`a(1,3)`, `path(n4,n17)`) to its (lo, hi) interval.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from pathlib import Path

ONE = (Fraction(1), Fraction(1))

Answer = dict[str, tuple[Fraction, Fraction]]


@dataclass
class Job:
    """One program and the queries run against it, one operation each.

    `queries` are keyword arguments for `enumerate_answer_sets`. `expected`
    lists the answer sets of a full enumeration, or is None when the query
    is a seeded first-model search, judged roll by roll against `dice`.
    """

    label: str
    text: str
    classical: bool = False
    queries: list[dict] = field(default_factory=lambda: [{}])
    expected: list[Answer] | None = None
    dice: "DiceSpec | None" = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # cheap phases are repeated inside a round so that the median of their
    # samples has enough of them; a round's check phase lasts about a second
    setup_repeats: int = 1
    check_repeats: int = 1


def point(p: Fraction) -> tuple[Fraction, Fraction]:
    return (p, p)


def rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# -- diet: programs/diet.dhpp as shipped ------------------------------------------


def diet(root: Path, rng) -> Workload:
    text = (root / "programs" / "diet.dhpp").read_text(encoding="utf-8")
    return Workload(
        "diet",
        [Job("diet.dhpp", text, expected=diet_expected(text))],
        setup_repeats=5,
        check_repeats=30,
    )


def diet_expected(text: str) -> list[Answer]:
    """The plans whose expected vitamin supply meets every minimum.

    A plan picks 1 or 2 package units per (food, scenario); the supply of
    vitamin V is the sum over units(F, V, U, S) : P of U * N(F, S) * P.
    """
    body = re.sub(r"%[^\n]*", "", text)
    scens = re.findall(r"\bscen\(([a-z]\w*)\)\s*\.", body)
    foods = re.findall(r"\bfood\(([a-z]\w*)\)\s*\.", body)
    units = [
        (f, v, int(u), s, Fraction(p))
        for f, v, u, s, p in re.findall(
            r"\bunits\((\w+),\s*(\w+),\s*(\d+),\s*(\w+)\)\s*:\s*([\d.]+)\s*\.", body
        )
    ]
    minima = {
        v: Fraction(m)
        for v, m in re.findall(
            r"valE\{X : P \| nutr\(F, (\w+), X, S\) : P\}\s*<\s*(\d+)", body
        )
    }
    if not (scens and foods and units and minima):
        raise ValueError("diet.dhpp no longer has the shape this check reads")
    slots = [(f, s) for f in foods for s in scens]
    answers = []
    for sizes in itertools.product((1, 2), repeat=len(slots)):
        plan = dict(zip(slots, sizes))
        supply = {v: Fraction(0) for v in minima}
        for f, v, u, s, p in units:
            if v in supply:
                supply[v] += u * plan[(f, s)] * p
        if any(supply[v] < minima[v] for v in minima):
            continue
        h: Answer = {}
        h.update({f"scen({s})": ONE for s in scens})
        h.update({f"food({f})": ONE for f in foods})
        for f, v, u, s, p in units:
            h[f"units({f},{v},{u},{s})"] = point(p)
            h[f"nutr({f},{v},{u * plan[(f, s)]},{s})"] = point(p)
        h.update({f"pckg({f},{n},{s})": ONE for (f, s), n in plan.items()})
        answers.append(h)
    return answers


# -- dice and first: k biased two-faced dice with a sumP constraint ---------------


@dataclass
class DiceSpec:
    """Die i shows face 1 with probability probs[i], face 2 otherwise.

    A roll is discarded when its faces sum to at least `guard` and its joint
    probability is at least `threshold`.
    """

    probs: list[Fraction]
    guard: int
    threshold: Fraction

    def text(self) -> str:
        lines = [
            f"a(1,{i}) : {rational(p)} | a(2,{i}) : {rational(1 - p)}."
            for i, p in enumerate(self.probs, 1)
        ]
        lines.append(
            f":- sumP{{X : P | a(X,Y) : P}} >= {self.guard} : {rational(self.threshold)}."
        )
        return "\n".join(lines) + "\n"

    def face_prob(self, die: int, face: int) -> Fraction:
        p = self.probs[die - 1]
        return p if face == 1 else 1 - p

    def triggers(self, roll: tuple[int, ...]) -> bool:
        joint = prod(self.face_prob(i, f) for i, f in enumerate(roll, 1))
        return sum(roll) >= self.guard and joint >= self.threshold

    def roll_answer(self, roll: tuple[int, ...]) -> Answer:
        return {f"a({f},{i})": point(self.face_prob(i, f)) for i, f in enumerate(roll, 1)}


def face_probs(rng, k: int) -> list[Fraction]:
    """Probabilities n/101: the prime denominator keeps every product of
    them unreduced, so the size of the exact arithmetic, and its cost, does
    not change with the seed."""
    return [Fraction(rng.randint(5, 96), 101) for _ in range(k)]


def dice(root: Path, rng, k: int = 9, guard: int = 11, reject: int = 138) -> Workload:
    """k dice; the threshold is placed so that about `reject` rolls are
    discarded (exactly, up to ties between joint probabilities), which keeps
    the number of answer sets, and so the work, nearly fixed across seeds."""
    probs = face_probs(rng, k)
    spec = DiceSpec(probs, guard, Fraction(0))
    rolls = list(itertools.product((1, 2), repeat=k))
    joints = sorted(
        (
            prod(spec.face_prob(i, f) for i, f in enumerate(roll, 1))
            for roll in rolls
            if sum(roll) >= guard
        ),
        reverse=True,
    )
    for step in itertools.count():
        c = reject + (step + 1) // 2 * (1 if step % 2 else -1)
        if 0 < c < len(joints) and joints[c - 1] > joints[c]:
            spec.threshold = joints[c - 1]
            break
    expected = [spec.roll_answer(r) for r in rolls if not spec.triggers(r)]
    job = Job(f"dice-{k}", spec.text(), expected=expected, dice=spec)
    return Workload("dice", [job], setup_repeats=5, check_repeats=1)


def first(root: Path, rng, k: int = 18, guard: int = 20, queries: int = 3) -> Workload:
    """Seeded first-model queries, as `DHPP_SEED=s dhpp --limit 1` runs them.

    The threshold is a fiftieth of the most likely roll's probability, so the
    constraint discards the likeliest rolls with at least two faces of 2."""
    probs = face_probs(rng, k)
    likeliest = prod(max(p, 1 - p) for p in probs)
    spec = DiceSpec(probs, guard, likeliest / 50)
    seeds = [rng.randrange(2**31) for _ in range(queries)]
    job = Job(
        f"dice-{k}",
        spec.text(),
        queries=[{"limit": 1, "seed": s} for s in seeds],
        dice=spec,
    )
    return Workload("first", [job], setup_repeats=5, check_repeats=50)


# -- dlp: small classical disjunctive programs through translate_dlp --------------


def dlp_program(rng, atoms: str = "abcdef", rules: int = 8, disjunctive: int = 2, naf: int = 3):
    """A fixed shape: `disjunctive` two-atom heads and `naf` negated body
    literals over distinct atoms, no constraints. Positive body atoms are
    drawn from the heads of earlier rules, so grounding keeps every rule and
    each program has 2**naf * 2**disjunctive candidates."""
    negated = rng.sample(atoms, naf)
    naf_rules = rng.sample(range(rules), naf)
    out = []
    derivable: list[str] = []
    for r in range(rules):
        head = tuple(rng.sample(atoms, 2 if r < disjunctive else 1))
        pos = tuple(rng.sample(derivable, min(len(derivable), rng.randint(0, 2))))
        neg = (negated[naf_rules.index(r)],) if r in naf_rules else ()
        out.append((head, pos, neg))
        derivable += [a for a in head if a not in derivable]
    return out


def dlp_text(rules) -> str:
    lines = []
    for head, pos, neg in rules:
        body = list(pos) + [f"not {a}" for a in neg]
        lines.append(" | ".join(head) + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(lines) + "\n"


def gelfond_lifschitz(rules) -> list[frozenset[str]]:
    """Classical answer sets by brute force: S is one when it is a minimal
    model of the reduct of the program by S."""
    atoms = sorted({a for head, pos, neg in rules for a in head + pos + neg})
    bit = {a: 1 << i for i, a in enumerate(atoms)}

    def mask(names) -> int:
        return sum(bit[a] for a in set(names))

    masks = [(mask(h), mask(p), mask(n)) for h, p, n in rules]

    def is_model(s: int, reduct) -> bool:
        return all(pos & s != pos or head & s for head, pos in reduct)

    answers = []
    for s in range(1 << len(atoms)):
        reduct = [(h, p) for h, p, n in masks if not n & s]
        if not is_model(s, reduct):
            continue
        sub = (s - 1) & s
        minimal = True
        while s and minimal:
            if is_model(sub, reduct):
                minimal = False
            if sub == 0:
                break
            sub = (sub - 1) & s
        if minimal:
            answers.append(frozenset(a for a in atoms if bit[a] & s))
    return answers


def dlp(root: Path, rng, count: int = 200) -> Workload:
    """Programs are drawn until 1/8 of them have no answer set, 11/40 have
    two and the rest one, about the shares that random programs of this
    shape have (3 or 4 answer sets: under 2%). Check work follows the
    number of answer sets, which thus does not change with the seed."""
    wanted = {0: count // 8, 2: count * 11 // 40}
    wanted[1] = count - wanted[0] - wanted[2]
    jobs = []
    while len(jobs) < count:
        rules = dlp_program(rng)
        answers = gelfond_lifschitz(rules)
        if wanted.get(len(answers), 0) == 0:
            continue
        wanted[len(answers)] -= 1
        expected = [{a: ONE for a in s} for s in answers]
        jobs.append(Job(f"dlp-{len(jobs)}", dlp_text(rules), classical=True, expected=expected))
    return Workload("dlp", jobs, setup_repeats=3, check_repeats=5)


# -- reach: path over a random layered DAG ----------------------------------------

REACH_RULES = (
    "path(X,Y) :- edge(X,Y) : 0.5.\n"
    "path(X,Z) :- path(X,Y), edge(Y,Z) : 0.5.\n"
)


def reach_graph(rng, layers: int = 6, width: int = 10, offsets=(0, 1, 3), weak_layers: int = 4):
    """Node i of a layer has edges to nodes i + o (mod width) of the next,
    for each o in `offsets`; the nodes of each layer are then named in a
    random order. The offset-3 edge out of every node in the first
    `weak_layers` layers gets a probability below the 0.5 body threshold,
    the others one at or above it. The shape, and so the work, is the same
    for every seed; names and probabilities change with it."""
    names = [rng.sample(range(layer * width, (layer + 1) * width), width) for layer in range(layers)]
    graph = []
    for layer in range(layers - 1):
        for i in range(width):
            for o in offsets:
                weak = o == offsets[-1] and layer < weak_layers
                p = Fraction(rng.randint(1, 4) if weak else rng.randint(5, 10), 10)
                graph.append((names[layer][i], names[layer + 1][(i + o) % width], p))
    rng.shuffle(graph)
    return graph


def reach_expected(graph) -> Answer:
    """Edges at their fact values; path(x, y) at [1,1] exactly when y is
    reachable from x over edges of probability at least 1/2 (BFS)."""
    h: Answer = {f"edge(n{i},n{j})": point(p) for i, j, p in graph}
    succ: dict[int, list[int]] = {}
    for i, j, p in graph:
        if p >= Fraction(1, 2):
            succ.setdefault(i, []).append(j)
    for start in {i for i, _, _ in graph}:
        seen: set[int] = set()
        queue = deque(succ.get(start, ()))
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(succ.get(node, ()))
        h.update({f"path(n{start},n{node})": ONE for node in seen})
    return h


def reach(root: Path, rng) -> Workload:
    graph = reach_graph(rng)
    text = "".join(f"edge(n{i},n{j}) : {rational(p)}.\n" for i, j, p in graph) + REACH_RULES
    job = Job("reach", text, expected=[reach_expected(graph)])
    return Workload("reach", [job], setup_repeats=1, check_repeats=5)


WORKLOADS = {"diet": diet, "dice": dice, "dlp": dlp, "reach": reach, "first": first}
