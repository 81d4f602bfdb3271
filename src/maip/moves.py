"""Reidemeister rewrites on Gauss codes and a seeded random walk.

Only the classical moves need rewrites here: purely virtual moves and
the mixed move act trivially on a representation that never stores
virtual crossings.

Adjacency is taken within the listed event order and never wraps around
a closed component's basepoint: the basepoint is a label discontinuity,
so a kink straddling it is not a removable site.

R3 sites are the standard configuration where one strand passes over the
other two: adjacent passage pairs (O_x, O_y), (U_x, O_z), (U_y, U_z) on
the top, middle and bottom strands, or the mirror image produced by
applying the move once.  The three crossings must share one sign; with
mixed signs the pair swap shifts the middle labels and is not
weight-preserving, so such sites are never offered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .diagram import OVER, UNDER, CrossingRecord, Passage, TangleDiagram
from .errors import NotApplicable

OVER_FIRST = "over_first"
UNDER_FIRST = "under_first"


@dataclass(frozen=True)
class MoveSite:
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


def _with_events(d: TangleDiagram, comp_idx: int, events: tuple[Passage, ...],
                 crossings: dict[int, CrossingRecord] | None = None) -> TangleDiagram:
    comps = list(d.components)
    comps[comp_idx - 1] = replace(comps[comp_idx - 1], events=events)
    return TangleDiagram(d.m, d.n, tuple(comps), crossings if crossings is not None else dict(d.crossings))


def _insert(events: tuple[Passage, ...], pos: int, new: tuple[Passage, ...]) -> tuple[Passage, ...]:
    if not 0 <= pos <= len(events):
        raise NotApplicable(f"arc position {pos} out of range 0..{len(events)}")
    return events[:pos] + new + events[pos:]


# ---------------------------------------------------------------------------
# R1


def r1_insert(d: TangleDiagram, pos: tuple[int, int], sign: int,
              order: str) -> TangleDiagram:
    """Add a kink: a fresh crossing with both passages adjacent at pos."""
    ci, k = pos
    if not 1 <= ci <= len(d.components):
        raise NotApplicable(f"no component {ci}")
    cid = d.next_crossing_id()
    pair = (Passage(cid, OVER), Passage(cid, UNDER))
    if order == UNDER_FIRST:
        pair = pair[::-1]
    elif order != OVER_FIRST:
        raise ValueError(f"order must be {OVER_FIRST!r} or {UNDER_FIRST!r}")
    crossings = dict(d.crossings)
    crossings[cid] = CrossingRecord.classical(sign)
    return _with_events(d, ci, _insert(d.components[ci - 1].events, k, pair), crossings)


def find_r1_delete_sites(d: TangleDiagram) -> list[MoveSite]:
    sites = []
    for ci, comp in enumerate(d.components, start=1):
        for k in range(len(comp.events) - 1):
            a, b = comp.events[k], comp.events[k + 1]
            if a.crossing == b.crossing and {a.role, b.role} == {OVER, UNDER}:
                sites.append(MoveSite("R1-", ((ci, k),)))
    return sites


def r1_delete(d: TangleDiagram, site: MoveSite) -> TangleDiagram:
    ((ci, k),) = site.anchors
    if not 1 <= ci <= len(d.components):
        raise NotApplicable("R1 site out of range")
    comp = d.components[ci - 1]
    if not 0 <= k <= len(comp.events) - 2:
        raise NotApplicable("R1 site out of range")
    a, b = comp.events[k], comp.events[k + 1]
    if a.crossing != b.crossing or {a.role, b.role} != {OVER, UNDER}:
        raise NotApplicable("no kink at the given site")
    crossings = dict(d.crossings)
    del crossings[a.crossing]
    return _with_events(d, ci, comp.events[:k] + comp.events[k + 2:], crossings)


# ---------------------------------------------------------------------------
# R2


def r2_insert(d: TangleDiagram, pos_a: tuple[int, int], pos_b: tuple[int, int],
              sign: int, same_direction: bool) -> TangleDiagram:
    """Slide strand A over strand B: two fresh crossings of opposite signs.

    Strand A receives the adjacent pair (O_x, O_y); strand B receives
    (U_x, U_y) when same_direction else (U_y, U_x).
    """
    ca, ka = pos_a
    cb, kb = pos_b
    for ci in (ca, cb):
        if not 1 <= ci <= len(d.components):
            raise NotApplicable(f"no component {ci}")
    x = d.next_crossing_id()
    y = x + 1
    crossings = dict(d.crossings)
    crossings[x] = CrossingRecord.classical(sign)
    crossings[y] = CrossingRecord.classical(-sign)
    overs = (Passage(x, OVER), Passage(y, OVER))
    unders = (Passage(x, UNDER), Passage(y, UNDER))
    if not same_direction:
        unders = unders[::-1]
    out = _with_events(d, ca, _insert(d.components[ca - 1].events, ka, overs), crossings)
    if cb == ca and kb >= ka:
        kb += 2
    return _with_events(out, cb, _insert(out.components[cb - 1].events, kb, unders))


def find_r2_delete_sites(d: TangleDiagram) -> list[MoveSite]:
    """Adjacent (O_x, O_y) paired with adjacent under passages of x and y.

    x and y must carry opposite signs; the under pair may appear in
    either order (parallel or antiparallel strands).
    """
    positions = d.passage_positions()
    sites = []
    for ci, comp in enumerate(d.components, start=1):
        for k in range(len(comp.events) - 1):
            a, b = comp.events[k], comp.events[k + 1]
            if a.role != OVER or b.role != OVER or a.crossing == b.crossing:
                continue
            if d.sign(a.crossing) != -d.sign(b.crossing):
                continue
            cu, ku = positions[(a.crossing, UNDER)]
            cv, kv = positions[(b.crossing, UNDER)]
            if cu == cv and abs(ku - kv) == 1:
                sites.append(MoveSite("R2-", ((ci, k), (cu, min(ku, kv)))))
    return sites


def r2_delete(d: TangleDiagram, site: MoveSite) -> TangleDiagram:
    (co, ko), (cu, ku) = site.anchors
    for ci, k in site.anchors:
        if not (1 <= ci <= len(d.components)
                and 0 <= k <= len(d.components[ci - 1].events) - 2):
            raise NotApplicable("R2 site out of range")
    over_pair = d.components[co - 1].events[ko:ko + 2]
    under_pair = d.components[cu - 1].events[ku:ku + 2]
    if ({p.role for p in over_pair} != {OVER}
            or {p.role for p in under_pair} != {UNDER}
            or {p.crossing for p in over_pair} != {p.crossing for p in under_pair}
            or d.sign(over_pair[0].crossing) != -d.sign(over_pair[1].crossing)):
        raise NotApplicable("no parallel-strand pattern at the given site")
    doomed = {p.crossing for p in over_pair}
    crossings = {cid: rec for cid, rec in d.crossings.items() if cid not in doomed}
    comps = list(d.components)
    for ci, k in sorted(((co, ko), (cu, ku)), reverse=True):
        comp = comps[ci - 1]
        comps[ci - 1] = replace(comp, events=comp.events[:k] + comp.events[k + 2:])
    return TangleDiagram(d.m, d.n, tuple(comps), crossings)


# ---------------------------------------------------------------------------
# R3


def _r3_pattern(d: TangleDiagram, anchors) -> bool:
    """True when the three adjacent pairs form the slide configuration.

    Either chirality is accepted: top (O_x, O_y) with middle (U_x, O_z)
    and bottom (U_y, U_z), or the mirror image top (O_y, O_x) with
    middle (O_z, U_x) and bottom (U_z, U_y).  All six passages involve
    exactly three crossings sharing one sign.
    """
    pairs = []
    for ci, k in anchors:
        if not 1 <= ci <= len(d.components):
            return False
        events = d.components[ci - 1].events
        if not 0 <= k <= len(events) - 2:
            return False
        pairs.append((events[k], events[k + 1]))
    (t1, t2), (m1, m2), (b1, b2) = pairs
    if t1.role != OVER or t2.role != OVER or t1.crossing == t2.crossing:
        return False
    if m1.role == UNDER and m2.role == OVER:
        x, y = t1.crossing, t2.crossing
        z = m2.crossing
        bottom_ok = (b1.crossing, b2.crossing) == (y, z)
    elif m1.role == OVER and m2.role == UNDER:
        x, y = t2.crossing, t1.crossing
        z = m1.crossing
        bottom_ok = (b1.crossing, b2.crossing) == (z, y)
    else:
        return False
    mid_under = m1 if m1.role == UNDER else m2
    return (mid_under.crossing == x and z not in (x, y)
            and b1.role == UNDER and b2.role == UNDER and bottom_ok
            and d.sign(x) == d.sign(y) == d.sign(z))


def find_r3_sites(d: TangleDiagram) -> list[MoveSite]:
    """Triples of equal-sign crossings in the slide configuration.

    Anchors are the (component, offset) of the top, middle and bottom
    adjacent pairs.  Both chiralities are offered, so applying a move
    leaves the same anchors applicable and a second application undoes
    the first.
    """
    positions = d.passage_positions()
    sites = []
    for ci, comp in enumerate(d.components, start=1):
        for k in range(len(comp.events) - 1):
            a, b = comp.events[k], comp.events[k + 1]
            if a.role != OVER or b.role != OVER or a.crossing == b.crossing:
                continue
            for x, y, mid_offset in ((a.crossing, b.crossing, 0), (b.crossing, a.crossing, -1)):
                cm, km = positions[(x, UNDER)]
                cb_, kb = positions[(y, UNDER)]
                anchors = ((ci, k), (cm, km + mid_offset), (cb_, kb + mid_offset))
                if _r3_pattern(d, anchors):
                    sites.append(MoveSite("R3", anchors))
    return sites


def r3_apply(d: TangleDiagram, site: MoveSite) -> TangleDiagram:
    """Swap the order within each of the three adjacent passage pairs."""
    if site.kind != "R3" or len(site.anchors) != 3 or not _r3_pattern(d, site.anchors):
        raise NotApplicable("not an R3 site")
    out = d
    for ci, k in site.anchors:
        comp = out.components[ci - 1]
        a, b = comp.events[k], comp.events[k + 1]
        out = _with_events(out, ci, comp.events[:k] + (b, a) + comp.events[k + 2:])
    return out


# ---------------------------------------------------------------------------
# random walk


_INSERT_KINDS = ("R1+", "R2+")


def _arc_positions(d: TangleDiagram) -> list[tuple[int, int]]:
    return [(ci, k)
            for ci, comp in enumerate(d.components, start=1)
            for k in range(len(comp.events) + 1)]


def random_walk(d: TangleDiagram, n_moves: int, seed: int,
                log: list[str]) -> TangleDiagram:
    """Apply n_moves uniformly chosen applicable moves, deterministically.

    The move kind is drawn uniformly among kinds with at least one
    applicable site, then the site (or insertion position, sign, and
    variant) uniformly within the kind.  Each applied move's description
    is appended to ``log``.
    """
    rng = random.Random(seed)
    out = d
    for _ in range(n_moves):
        kinds: list[str] = []
        if out.components:
            kinds.extend(_INSERT_KINDS)
        r1_sites = find_r1_delete_sites(out)
        if r1_sites:
            kinds.append("R1-")
        r2_sites = find_r2_delete_sites(out)
        if r2_sites:
            kinds.append("R2-")
        r3_sites = find_r3_sites(out)
        if r3_sites:
            kinds.append("R3")
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "R1+":
            pos = rng.choice(_arc_positions(out))
            sign = rng.choice((1, -1))
            order = rng.choice((OVER_FIRST, UNDER_FIRST))
            site = MoveSite("R1+", (pos,), sign=sign, order=order)
            out = r1_insert(out, pos, sign, order)
        elif kind == "R2+":
            arcs = _arc_positions(out)
            pos_a = rng.choice(arcs)
            pos_b = rng.choice(arcs)
            sign = rng.choice((1, -1))
            same = rng.choice((True, False))
            site = MoveSite("R2+", (pos_a, pos_b), sign=sign, same_direction=same)
            out = r2_insert(out, pos_a, pos_b, sign, same)
        elif kind == "R1-":
            site = rng.choice(r1_sites)
            out = r1_delete(out, site)
        elif kind == "R2-":
            site = rng.choice(r2_sites)
            out = r2_delete(out, site)
        else:
            site = rng.choice(r3_sites)
            out = r3_apply(out, site)
        log.append(site.describe())
    return out
