"""Reidemeister rewrites on Gauss codes and a seeded random walk.

Only the classical moves need rewrites here: purely virtual moves and
the mixed move act trivially on a representation that never stores
virtual crossings.

Adjacency is taken within the listed event order and never wraps around
a closed component's basepoint: the basepoint is a label discontinuity,
so a kink straddling it is not a removable site.

R3 sites are the standard configuration where one strand passes over the
other two: adjacent passage pairs (O_x, O_y), (U_x, O_z), (U_y, U_z) on
the top, middle and bottom strands, or the mirror (O_x, O_y), (O_z, U_y),
(U_z, U_x) that one application makes.  The three crossings share one
sign; with mixed signs the pair swap shifts the middle labels and is not
weight-preserving, so such sites are never offered.

Every move is one edit: replace a few adjacent passages at its anchors
and update the crossing table, so each kind is one case of one rewrite.
Insertion sites (R1+, R2+) are arc positions with fresh crossing
parameters.  Every other site is found by :func:`find_sites`, one pass
over the adjacent passage pairs of each component with an index of the
under passages alone; the two signs of an (O_x, O_y) pair decide whether
it can top an R2- site (opposite) or R3 sites (equal).  Each pattern is
written there and nowhere else; the tests check the scan against a
reference of their own.
:func:`apply_site` applies an insertion at in-range anchors and any
other site only where that scan offers it, and raises
:class:`NotApplicable` for anything else; an R3 site swaps each of its
three pairs, an R1- or R2- site drops its pairs and their crossings.
"""

from __future__ import annotations

import random
from itertools import pairwise
from typing import NamedTuple

from .diagram import OVER, UNDER, Component, CrossingRecord, Passage, TangleDiagram
from .errors import NotApplicable

OVER_FIRST = "over_first"
UNDER_FIRST = "under_first"
_INSERT_KINDS = ("R1+", "R2+")
MOVE_KINDS = (*_INSERT_KINDS, "R1-", "R2-", "R3")


class MoveSite(NamedTuple):
    """An applicable rewrite location.

    kind is one of "R1+", "R1-", "R2+", "R2-", "R3"; anchors are
    (1-based component index, event offset) pairs whose meaning depends
    on the kind.  Insertion sites carry the new crossing parameters.
    """

    kind: str
    anchors: tuple[tuple[int, int], ...]
    sign: int | None = None
    order: str | None = None
    same_direction: bool | None = None

    def describe(self) -> str:
        spots = " ".join(f"{c}:{p}" for c, p in self.anchors)
        extra = []
        if self.sign is not None:
            extra.append(f"sign={'+' if self.sign > 0 else '-'}")
        if self.order is not None:
            extra.append(f"order={self.order}")
        if self.same_direction is not None:
            extra.append(f"same_direction={self.same_direction}")
        return " ".join([self.kind, spots] + extra)


# ---------------------------------------------------------------------------
# site scan and rewrite


def find_sites(d: TangleDiagram) -> dict[str, list[MoveSite]]:
    """Every R1-, R2- and R3 site, from one pass over adjacent passage pairs.

    A kink (one crossing met as O and U in a row) is an R1- site.  An
    adjacent (O_x, O_y) pair with x != y is looked up in one index of
    the under passages, ``{crossing: (component, offset)}``, and its two
    signs decide what it can top.  With opposite signs it is the top of
    an R2- site when U_x and U_y are adjacent on one component, in
    either order (parallel or antiparallel strands).  With equal signs
    the same two under positions name the two R3 candidates, one per
    chirality: middle (U_x, O_z) above bottom (U_y, U_z), or the mirror,
    middle (O_z, U_y) above bottom (U_z, U_x), where z is a third
    crossing of the same sign and both pairs lie within their
    components.  Their anchors are the top, middle and bottom pairs, so
    an applied R3 leaves its anchors a site and a second application
    undoes the first.  Each list runs in component, then offset order.
    """
    lines = [comp.events for comp in d.components]
    under = {x: (ci, k)
             for ci, events in enumerate(lines, start=1)
             for k, (x, role) in enumerate(events) if role == UNDER}
    records = d.crossings
    r1: list[MoveSite] = []
    r2: list[MoveSite] = []
    r3: list[MoveSite] = []
    for ci, events in enumerate(lines, start=1):
        for k, ((x, ra), (y, rb)) in enumerate(pairwise(events)):
            if x == y:
                if {ra, rb} == {OVER, UNDER}:
                    r1.append(MoveSite("R1-", ((ci, k),)))
                continue
            if ra != OVER or rb != OVER:
                continue
            cu, ku = under[x]
            cv, kv = under[y]
            sign = records[x].sign
            if records[y].sign != sign:
                if cu == cv and abs(ku - kv) == 1:
                    r2.append(MoveSite("R2-", ((ci, k), (cu, min(ku, kv)))))
                continue
            line_x, line_y = lines[cu - 1], lines[cv - 1]
            if ku + 1 < len(line_x) and kv + 1 < len(line_y):
                z, role = line_x[ku + 1]
                if (role == OVER and line_y[kv + 1] == (z, UNDER) and z != x and z != y
                        and records[z].sign == sign):
                    r3.append(MoveSite("R3", ((ci, k), (cu, ku), (cv, kv))))
            if ku and kv:
                z, role = line_y[kv - 1]
                if (role == OVER and line_x[ku - 1] == (z, UNDER) and z != x and z != y
                        and records[z].sign == sign):
                    r3.append(MoveSite("R3", ((ci, k), (cv, kv - 1), (cu, ku - 1))))
    return {"R1-": r1, "R2-": r2, "R3": r3}


def find_r1_delete_sites(d: TangleDiagram) -> list[MoveSite]:
    return find_sites(d)["R1-"]


def find_r2_delete_sites(d: TangleDiagram) -> list[MoveSite]:
    return find_sites(d)["R2-"]


def find_r3_sites(d: TangleDiagram) -> list[MoveSite]:
    return find_sites(d)["R3"]


def apply_site(d: TangleDiagram, site: MoveSite) -> TangleDiagram:
    """Apply an insertion at valid anchors, or a site :func:`find_sites` offers on d.

    An insertion has one anchor (R1+) or two (R2+), each naming a
    component and an arc position 0..len(events) on it; a bad ``order``,
    ``same_direction`` or sign raises ValueError.
    """
    if site.kind in _INSERT_KINDS:
        if len(site.anchors) != (1 if site.kind == "R1+" else 2):
            raise NotApplicable(f"wrong number of anchors: {site.describe()}")
        for ci, k in site.anchors:
            if not 1 <= ci <= len(d.components):
                raise NotApplicable(f"no component {ci}")
            n = len(d.components[ci - 1].events)
            if not 0 <= k <= n:
                raise NotApplicable(f"arc position {k} out of range 0..{n}")
    elif site not in find_sites(d).get(site.kind, ()):
        raise NotApplicable(f"not a site of this diagram: {site.describe()}")
    return _rewrite(d, site)


def _rewrite(d: TangleDiagram, site: MoveSite) -> TangleDiagram:
    """Replace a few adjacent passages at each anchor and update the crossings.

    Each edit is (component, offset, tie-break, passages replaced, new
    passages); applied from the last position back, every edit sees its
    anchor's original offset.  R1+ inserts (O_x, U_x), reversed for
    under_first.  R2+ inserts (O_x, O_y) at its first anchor and
    (U_x, U_y), reversed unless same_direction, at its second; at one
    position the first anchor's pair comes first.  R3 swaps each anchored
    pair; R1- and R2- drop them and their crossings.
    """
    comps = list(d.components)
    crossings = dict(d.crossings)
    edits = []
    x = d.next_crossing_id() if site.kind in _INSERT_KINDS else None
    if site.kind == "R1+":
        if site.order not in (OVER_FIRST, UNDER_FIRST):
            raise ValueError(f"order must be {OVER_FIRST!r} or {UNDER_FIRST!r}")
        crossings[x] = CrossingRecord.classical(site.sign)
        pair = (Passage(x, OVER), Passage(x, UNDER))
        edits.append((*site.anchors[0], 0, 0, pair if site.order == OVER_FIRST else pair[::-1]))
    elif site.kind == "R2+":
        if not isinstance(site.same_direction, bool):
            raise ValueError("same_direction must be True or False")
        crossings[x] = CrossingRecord.classical(site.sign)
        crossings[x + 1] = CrossingRecord.classical(-site.sign)
        unders = (Passage(x, UNDER), Passage(x + 1, UNDER))
        a, b = site.anchors
        edits.append((*a, 0, 0, (Passage(x, OVER), Passage(x + 1, OVER))))
        edits.append((*b, 1, 0, unders if site.same_direction else unders[::-1]))
    else:
        for ci, k in site.anchors:
            pair = comps[ci - 1].events[k:k + 2]
            if site.kind != "R3":
                for ev in pair:
                    crossings.pop(ev.crossing, None)
            edits.append((ci, k, 0, 2, pair[::-1] if site.kind == "R3" else ()))
    for ci, k, _, n, new in sorted(edits, reverse=True):
        comp = comps[ci - 1]
        events = comp.events
        comps[ci - 1] = Component(comp.kind, events[:k] + new + events[k + n:],
                                  comp.start, comp.end)
    return TangleDiagram(d.m, d.n, tuple(comps), crossings)


# ---------------------------------------------------------------------------
# random walk


def _arc_at(d: TangleDiagram, i: int) -> tuple[int, int]:
    """The i-th arc position (component, offset), counting 0..len(events) per component."""
    for ci, comp in enumerate(d.components, start=1):
        n = len(comp.events) + 1
        if i < n:
            return ci, i
        i -= n
    raise IndexError(f"arc position index {i} out of range")


def random_walk(d: TangleDiagram, n_moves: int, seed: int,
                log: list[str]) -> TangleDiagram:
    """Apply n_moves uniformly chosen applicable moves, deterministically.

    The move kind is drawn uniformly among kinds with at least one
    applicable site, then the site (or insertion position, sign, and
    variant) uniformly within the kind; every kind is applied as a
    :class:`MoveSite` by the one rewrite :func:`apply_site` uses.  Each
    applied move's description is appended to ``log``.
    """
    rng = random.Random(seed)
    out = d
    for _ in range(n_moves):
        sites = find_sites(out)
        kinds = list(_INSERT_KINDS) if out.components else []
        kinds += [kind for kind, found in sites.items() if found]
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind in _INSERT_KINDS:
            arcs = range(sum(len(comp.events) + 1 for comp in out.components))
            anchors = tuple(_arc_at(out, rng.choice(arcs))
                            for _ in range(1 if kind == "R1+" else 2))
            sign = rng.choice((1, -1))
            if kind == "R1+":
                site = MoveSite(kind, anchors, sign=sign,
                                order=rng.choice((OVER_FIRST, UNDER_FIRST)))
            else:
                site = MoveSite(kind, anchors, sign=sign,
                                same_direction=rng.choice((True, False)))
        else:
            site = rng.choice(sites[kind])
        out = _rewrite(out, site)
        log.append(site.describe())
    return out
