"""The three workloads: their op decks, input files and output references.

A workload builds a *deck*: a fixed, seed-shuffled list of ops that the
timed loop replays whole, so every run measures the same traffic mix.
Sizes below are traffic definitions; ``scale`` shrinks them for the
self-check only.

References never come from the timed path.  Polynomials printed by
``compute``, ``tensor`` and ``compose`` are compared with

* the homological oracle ``maip_via_homology`` for the default and the
  held-out seed.  It is quadratic (about 14 s at 1600 crossings), so its
  digests are computed once by ``make_refs.py`` and stored in
  ``refs.json`` next to a digest of each input;
* for any other seed, or an input that no longer matches its stored
  digest, ``formula_reference``: the invariant evaluated from its
  definition by this file's own code, after the timed loop.

Both routes take model objects built straight from the generated codes,
never the files the program reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field

from gen import (Tangle, composable_pair, random_tangle, to_diagram, to_json_text,
                 to_text)

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

# (closed, long) components per diagram: 1 to 4 components, cycled.
SHAPES = ((0, 1), (1, 1), (1, 2), (2, 2))
# (input format, output format) of compute ops, cycled.
FORMS = (("text", "text"), ("json", "json"), ("text", "json"), ("json", "text"))

# cli_large, per deck; every op reads its own diagram, so a run averages
# over many inputs.  The counts put op_p50 in the middle of the block of
# 200-crossing computes and op_p90 in the middle of the block of ~200 ms
# ops (800-crossing computes, one compose, k = 6), with only the other
# compose, the 1600-crossing computes, k = 7 and k = 8 above it.  A
# quantile on the edge between two op sizes would jump from run to run.
# compute: (crossings, ops, shapes cycled).
COMPUTE_SIZES = ((100, 30, SHAPES), (200, 44, ((1, 1),)), (400, 12, SHAPES),
                 (800, 14, ((1, 1),)), (1600, 2, SHAPES))
TENSOR_SIZES = ((200, 200), (200, 200))    # crossings per factor; one text, one JSON op
PAIR_SIZES = ((250, 250, 2), (200, 300, 3))  # crossings per side, interface slots
RESOLVE_CLASSICAL = 30
RESOLVE_SINGULAR = range(1, 9)

# oracle_check: (crossings, diagrams, shapes cycled); each diagram gets a
# prop2 and a corollary op.  op_p50 falls among the 100-crossing corollary
# checks and op_p90 among the 300-crossing ones; the 600-crossing pair is
# the top 4%.
CHECK_SIZES = ((100, 15, SHAPES), (200, 4, SHAPES), (300, 6, ((1, 1),)), (600, 1, SHAPES))

# suites: the acceptance mix of property trials.
SUITE_MIX = (("moves", 1000), ("prop2", 500), ("corollary", 500),
             ("compose", 200), ("vassiliev", 200))

# Diagram sizes of the ROADMAP "Baseline" stages printed by a traced run.
BASELINE_SIZES = {
    "cli_large": tuple(n for n, _, _ in COMPUTE_SIZES),
    "oracle_check": tuple(n for n, _, _ in CHECK_SIZES),
    "suites": (12,),
}


@dataclass(frozen=True)
class Op:
    """One deck entry: a CLI command (``argv``) or one suite trial."""

    kind: str                 # compute | resolve | tensor | compose | prop2 | corollary | suite
    key: str = ""             # reference key of the input
    argv: tuple = ()
    form: str = "text"        # output form of CLI polynomial ops
    suite: str = ""
    seed: int = 0
    crossings: int = 0


@dataclass
class Batch:
    ops: list
    expected: dict = field(default_factory=dict)   # key -> {"text": digest, "json": digest}
    inputs: dict = field(default_factory=dict)     # key -> digest of the input files
    subjects: dict = field(default_factory=dict)   # key -> () -> diagram whose polynomial is printed
    warmup: list = field(default_factory=list)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def poly_digests(poly) -> dict:
    from maip.algebra import poly_to_json, render

    return {"text": sha(render(poly)), "json": sha(json.dumps(poly_to_json(poly)))}


def formula_reference(d):
    """The invariant of a classical diagram straight from its definition.

    Labels start at c_i and step by -sign at an over passage and +sign at
    an under passage; a crossing with over-incoming label a,
    under-incoming label b and sign s adds
    s * t_i^(delta_j) * (t_i^(a - b - s) - 1), with i the over and j the
    under component.  One linear pass, written apart from the package's
    evaluation code; only its LaurentPoly holds the result.
    """
    from maip.algebra import AffineInt, LaurentPoly

    incoming = {}     # (crossing, role) -> (component, label minus c_component)
    delta = {}
    for ci, comp in enumerate(d.components, start=1):
        offset = 0
        for ev in comp.events:
            incoming[(ev.crossing, ev.role)] = (ci, offset)
            sign = d.crossings[ev.crossing].sign
            offset += -sign if ev.role == "O" else sign
        delta[ci] = offset
    terms: Counter = Counter()
    for cid, rec in d.crossings.items():
        i, a = incoming[(cid, "O")]
        j, b = incoming[(cid, "U")]
        symbols = Counter({i: 1})
        symbols[j] -= 1
        weight = AffineInt.of(a - b - rec.sign, symbols)
        terms[(i, weight + delta[j])] += rec.sign
        terms[(i, AffineInt(delta[j]))] -= rec.sign
    return LaurentPoly(terms)


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, t: Tangle, fmt: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"d{self.count}.{'json' if fmt == 'json' else 'tangle'}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json_text(t) if fmt == "json" else to_text(t))
        return path


def _with_json(argv: tuple, form: str) -> tuple:
    return argv + (("--json",) if form == "json" else ())


def _resolve_reference(t: Tangle) -> dict:
    """k >= 2 gives 0; k = 1 gives maip(+) - maip(-) from resolve_singular."""
    from maip.algebra import LaurentPoly
    from maip.invariant import maip, resolve_singular

    if sum(1 for s in t.signs.values() if s is None) >= 2:
        return poly_digests(LaurentPoly.zero())
    total = LaurentPoly.zero()
    for term in resolve_singular(to_diagram(t)):
        total = total + term.coefficient * maip(term.diagram)
    return poly_digests(total)


def _cli_polys(rng: random.Random, files: _Files, scale: float, batch: Batch, tag: str) -> list:
    """compute, tensor, compose and resolve ops, with their references."""
    from maip.tangle_ops import compose, tensor

    ops = []
    for n, count, shapes in COMPUTE_SIZES:
        for i in range(count):
            t = random_tangle(rng, *shapes[i % len(shapes)], _scaled(n, scale))
            fmt_in, fmt_out = FORMS[len(ops) % len(FORMS)]
            key = f"{tag}compute/{n}/{i}"
            batch.subjects[key] = lambda t=t: to_diagram(t)
            batch.inputs[key] = sha(to_text(t))
            ops.append(Op("compute", key, _with_json(("compute", files.write(t, fmt_in)), fmt_out),
                          fmt_out))
    for i, (nl, nr) in enumerate(TENSOR_SIZES):
        left = random_tangle(rng, *SHAPES[i], _scaled(nl, scale))
        right = random_tangle(rng, *SHAPES[i + 1], _scaled(nr, scale))
        key, fmt_out = f"{tag}tensor/{i}", ("text", "json")[i % 2]
        batch.subjects[key] = lambda a=left, b=right: tensor(to_diagram(a), to_diagram(b))
        batch.inputs[key] = sha(to_text(left) + to_text(right))
        argv = ("tensor", files.write(left, "text"), files.write(right, "json"))
        ops.append(Op("tensor", key, _with_json(argv, fmt_out), fmt_out))
    for i, (nu, nl, iface) in enumerate(PAIR_SIZES):
        upper, lower = composable_pair(rng, iface, _scaled(nu, scale), _scaled(nl, scale))
        key, fmt_out = f"{tag}compose/{i}", ("text", "json")[i % 2]
        batch.subjects[key] = lambda a=upper, b=lower: compose(to_diagram(a), to_diagram(b))
        batch.inputs[key] = sha(to_text(upper) + to_text(lower))
        argv = ("compose", files.write(upper, "text"), files.write(lower, "json"))
        ops.append(Op("compose", key, _with_json(argv, fmt_out), fmt_out))
    for k in RESOLVE_SINGULAR:
        t = random_tangle(rng, *SHAPES[k % len(SHAPES)], _scaled(RESOLVE_CLASSICAL, scale), k)
        key, fmt_out = f"{tag}resolve/{k}", ("text", "json")[k % 2]
        batch.expected[key] = _resolve_reference(t)
        argv = ("resolve", files.write(t, ("json", "text")[k % 2]))
        ops.append(Op("resolve", key, _with_json(argv, fmt_out), fmt_out))
    return ops


def load_stored(seed: int, batch: Batch) -> None:
    """Take stored oracle digests whose recorded input matches this run's."""
    with open(REFS_PATH, encoding="utf-8") as fh:
        stored = json.load(fh).get(str(seed), {})
    for key, entry in stored.items():
        if batch.inputs.get(key) == entry["input"]:
            batch.expected[key] = {"text": entry["text"], "json": entry["json"]}


def cli_large(seed: int, workdir: str, scale: float = 1.0) -> Batch:
    rng = random.Random(seed)
    files = _Files(workdir)
    batch = Batch([])
    batch.ops = _cli_polys(rng, files, scale, batch, "")
    rng.shuffle(batch.ops)
    tiny = _cli_polys(random.Random(seed), files, 10 / 1600, Batch([]), "warmup/")
    batch.warmup = list({op.kind: op for op in tiny}.values())
    load_stored(seed, batch)
    return batch


def _check_ops(rng: random.Random, files: _Files, sizes, scale: float) -> list:
    ops = []
    for n, diagrams, shapes in sizes:
        for i in range(diagrams):
            crossings = _scaled(n, scale)
            t = random_tangle(rng, *shapes[i % len(shapes)], crossings)
            path = files.write(t, ("text", "json")[i % 2])
            for what in ("prop2", "corollary"):
                ops.append(Op(what, argv=("check", "--what", what, path), crossings=crossings))
    return ops


def oracle_check(seed: int, workdir: str, scale: float = 1.0) -> Batch:
    rng = random.Random(seed)
    files = _Files(workdir)
    batch = Batch(_check_ops(rng, files, CHECK_SIZES, scale))
    rng.shuffle(batch.ops)
    batch.warmup = _check_ops(random.Random(seed), files, ((10, 1, SHAPES),), 1.0)
    return batch


def suites(seed: int, workdir: str, scale: float = 1.0) -> Batch:
    rng = random.Random(seed)
    ops = []
    for name, trials in SUITE_MIX:
        ops += [Op("suite", suite=name, seed=seed * 100_000 + len(ops) + t)
                for t in range(_scaled(trials, scale))]
    rng.shuffle(ops)
    warmup = [Op("suite", suite=name, seed=seed * 100_000 + 99_999 - i)
              for i, (name, _) in enumerate(SUITE_MIX)]
    return Batch(ops, warmup=warmup)


WORKLOADS = {
    "cli_large": cli_large,
    "oracle_check": oracle_check,
    "suites": suites,
}
