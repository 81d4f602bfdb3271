"""Seeded input diagrams for the benchmark, written without the package.

The benchmark draws its own Gauss codes so that its inputs stay the same
when the package's generators change, and writes them in the package's
text format and JSON mirror with its own writers, so that the program
under test sees only files.  ``to_diagram`` builds the package's model
objects directly from the drawn codes (never through ``parse``); the
oracle references are computed on those objects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Tangle:
    """An (m, n)-tangle as plain data.

    ``components`` holds (kind, start slot, end slot, events) with events
    as (crossing id, role) pairs; ``signs`` maps each crossing id to +1
    or -1, or to None for a singular crossing.
    """

    m: int
    n: int
    components: tuple
    signs: dict


def _token(cid: int, role: str, sign) -> str:
    if sign is None:
        return f"{role}{cid}"
    return f"{role}{cid}{'+' if sign > 0 else '-'}"


def to_text(t: Tangle) -> str:
    lines = [f"tangle m={t.m} n={t.n}"]
    for idx, (kind, start, end, events) in enumerate(t.components, start=1):
        head = (f"component {idx} closed :" if kind == "closed"
                else f"component {idx} long from {start} to {end} :")
        tokens = " ".join(_token(c, r, t.signs[c]) for c, r in events)
        lines.append(f"{head} {tokens}".rstrip())
    return "\n".join(lines) + "\n"


def to_json_text(t: Tangle) -> str:
    return json.dumps({
        "m": t.m,
        "n": t.n,
        "components": [
            {"index": idx, "kind": kind, "start": start, "end": end,
             "events": [_token(c, r, t.signs[c]) for c, r in events]}
            for idx, (kind, start, end, events) in enumerate(t.components, start=1)
        ],
    })


def to_diagram(t: Tangle):
    """The package's model object for ``t``, built from its constructors."""
    from maip.diagram import Component, CrossingRecord, Passage, TangleDiagram

    crossings = {c: CrossingRecord.singular() if s is None else CrossingRecord.classical(s)
                 for c, s in t.signs.items()}
    comps = tuple(Component(kind, tuple(Passage(c, r) for c, r in events), start, end)
                  for kind, start, end, events in t.components)
    return TangleDiagram(t.m, t.n, comps, crossings)


def _passages(rng: random.Random, n_crossings: int, n_singular: int):
    signs: dict = {}
    passages = []
    for cid in range(1, n_crossings + 1):
        signs[cid] = rng.choice((1, -1))
        passages += [(cid, "O"), (cid, "U")]
    for cid in range(n_crossings + 1, n_crossings + n_singular + 1):
        signs[cid] = None
        passages += [(cid, "X"), (cid, "Y")]
    return signs, passages


def _distribute(rng: random.Random, passages, n_buckets: int) -> list[list]:
    """Every passage goes to a uniform bucket in uniform order: always valid."""
    buckets: list[list] = [[] for _ in range(n_buckets)]
    for p in passages:
        buckets[rng.randrange(n_buckets)].append(p)
    for bucket in buckets:
        rng.shuffle(bucket)
    return buckets


def random_tangle(rng: random.Random, n_closed: int, n_long: int, n_crossings: int,
                  n_singular: int = 0) -> Tangle:
    """A valid tangle with the given shape; long ends land top or bottom."""
    signs, passages = _passages(rng, n_crossings, n_singular)
    total = n_closed + n_long
    buckets = _distribute(rng, passages, total)
    top, bottom = [], []
    for ci in range(n_closed, total):
        for which in (0, 1):
            (top if rng.random() < 0.5 else bottom).append((ci, which))
    rng.shuffle(top)
    rng.shuffle(bottom)
    slot = {key: f"T{k}" for k, key in enumerate(top, start=1)}
    slot.update({key: f"B{k}" for k, key in enumerate(bottom, start=1)})
    comps = tuple(
        ("closed", None, None, tuple(buckets[ci])) if ci < n_closed
        else ("long", slot[(ci, 0)], slot[(ci, 1)], tuple(buckets[ci]))
        for ci in range(total))
    return Tangle(len(top), len(bottom), comps, signs)


def _side(rng: random.Random, iface_roles: list[str], iface: str, outer: str,
          n_crossings: int) -> Tangle:
    """One factor of a composable pair; interface slot k has role iface_roles[k-1]."""
    starts = [k for k, r in enumerate(iface_roles, start=1) if r == "start"]
    ends = [k for k, r in enumerate(iface_roles, start=1) if r == "end"]
    rng.shuffle(starts)
    rng.shuffle(ends)
    ends_of: list[list] = []
    while starts and ends and rng.random() < 0.45:
        ends_of.append([f"{iface}{starts.pop()}", f"{iface}{ends.pop()}"])
    ends_of += [[f"{iface}{s}", None] for s in starts]
    ends_of += [[None, f"{iface}{e}"] for e in ends]
    ends_of += [[None, None] for _ in range(rng.randint(0, 1))]
    n_closed = rng.randint(0, 1)
    free = [(i, w) for i, pair in enumerate(ends_of) for w in (0, 1) if pair[w] is None]
    rng.shuffle(free)
    for k, (i, w) in enumerate(free, start=1):
        ends_of[i][w] = f"{outer}{k}"
    rng.shuffle(ends_of)

    signs, passages = _passages(rng, n_crossings, 0)
    buckets = _distribute(rng, passages, len(ends_of) + n_closed)
    comps = tuple(("long", s, e, tuple(buckets[i])) for i, (s, e) in enumerate(ends_of))
    comps += tuple(("closed", None, None, tuple(b)) for b in buckets[len(ends_of):])
    if iface == "B":
        return Tangle(len(free), len(iface_roles), comps, signs)
    return Tangle(len(iface_roles), len(free), comps, signs)


def _has_cycle(upper: Tangle, lower: Tangle) -> bool:
    """True when gluing B_k to T_k closes long components into a loop."""
    def slots(t: Tangle) -> dict:
        out = {}
        for ci, (kind, start, end, _events) in enumerate(t.components):
            if kind == "long":
                out[start] = (ci, "start")
                out[end] = (ci, "end")
        return out

    up, low = slots(upper), slots(lower)
    succ = {}
    for k in range(1, upper.n + 1):
        (uc, uend), (lc, _lend) = up[f"B{k}"], low[f"T{k}"]
        if uend == "end":
            succ[("U", uc)] = ("L", lc)
        else:
            succ[("L", lc)] = ("U", uc)
    for node in succ:
        at = succ[node]
        for _ in range(len(succ)):
            if at == node:
                return True
            if at not in succ:
                break
            at = succ[at]
    return False


def composable_pair(rng: random.Random, n_iface: int, upper_crossings: int,
                    lower_crossings: int) -> tuple[Tangle, Tangle]:
    """An acyclic composable pair, shaped like ``checks.random_composable_pair``."""
    while True:
        flows = [rng.choice(("down", "up")) for _ in range(n_iface)]
        upper = _side(rng, ["end" if f == "down" else "start" for f in flows],
                      "B", "T", upper_crossings)
        lower = _side(rng, ["start" if f == "down" else "end" for f in flows],
                      "T", "B", lower_crossings)
        if not _has_cycle(upper, lower):
            return upper, lower
