"""Crossing weights recovered from a combinatorial intersection pairing.

Smoothing a crossing (respecting orientation) splits the strands through
it into two classes; pairing one class against the rest of the diagram
counts, over every classical crossing with exactly one passage in the
class, +sign when that passage is an Under and -sign when it is an Over.
Crossings internal to a class are self-intersections and do not count.

For a self-crossing the retained class is the one containing the
component's basepoint.  For a mixed crossing (overstrand i, understrand
j) the retained class is the one containing the overstrand's initial
segment; when a closed component is involved the two components are
first spliced into one cycle by a bridge placed right after both
starting points.  A bridge adds only virtual crossings, which the
pairing cannot see, so its routing never changes the answer.

These homological weights satisfy, for every classical crossing,

    W = +(W_h - delta_j)   in general,
    W = -(W_h - delta_i)   for a self-crossing met Under-first,

which is what :func:`check_prop2` verifies and what lets
:func:`maip_via_homology` rebuild the invariant without ever reading the
labeling-derived weights.  Both index the diagram once and hand the
index down: the optional ``positions`` and ``classical`` arguments below
are ``d.passage_positions()`` and ``d.classical_ids()``, computed by the
callee when not given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AffineInt, LaurentPoly
from .diagram import OVER, UNDER, TangleDiagram
from .errors import HasSingular, NotClassical
from .invariant import Labeling, propagate_labels, weight_table

PassageRef = tuple[int, str]  # (crossing id, role)
Positions = dict[PassageRef, tuple[int, int]]  # as d.passage_positions() returns


@dataclass(frozen=True)
class CycleSlice:
    """A smoothed class and its complement, as passage sets.

    Together they hold every classical passage of the diagram except the
    two passages of the smoothed crossing itself.
    """

    slice: frozenset[PassageRef]
    rest: frozenset[PassageRef]


def pairing(rest: frozenset[PassageRef] | set[PassageRef],
            slice_: frozenset[PassageRef] | set[PassageRef], d: TangleDiagram,
            classical: list[int] | None = None) -> int:
    """Intersection count of the slice against the rest of the diagram."""
    total = 0
    for cid in d.classical_ids() if classical is None else classical:
        over, under = (cid, OVER), (cid, UNDER)
        in_slice = (over in slice_, under in slice_)
        if in_slice == (True, False) and under in rest:
            total -= d.sign(cid)
        elif in_slice == (False, True) and over in rest:
            total += d.sign(cid)
    return total


def _refs(events) -> list[PassageRef]:
    return [(ev.crossing, ev.role) for ev in events]


def smooth_self_crossing(d: TangleDiagram, cid: int,
                         positions: Positions | None = None) -> CycleSlice:
    """Split a self-crossing's component; keep the basepoint half as the slice."""
    positions = d.passage_positions() if positions is None else positions
    ci, p = positions[(cid, OVER)]
    cj, q = positions[(cid, UNDER)]
    if ci != cj:
        raise ValueError(f"crossing {cid} is not a self-crossing")
    p, q = sorted((p, q))
    events = d.components[ci - 1].events
    inner = _refs(events[p + 1:q])
    outer = _refs(events[:p]) + _refs(events[q + 1:])
    others = [
        (ev.crossing, ev.role)
        for k, comp in enumerate(d.components, start=1) if k != ci
        for ev in comp.events
    ]
    return CycleSlice(frozenset(outer), frozenset(inner) | frozenset(others))


def smooth_mixed_crossing(d: TangleDiagram, cid: int,
                          positions: Positions | None = None) -> CycleSlice:
    """Smooth a mixed crossing; keep the half holding the overstrand's head.

    Both long components rewire into start_i -> end_j and start_j ->
    end_i; with a closed component involved, the bridged splice produces
    one cycle whose smoothing yields the same two passage classes, since
    the bridge arcs carry no classical crossings.  Either way the
    retained class is (overstrand events before the crossing) together
    with (understrand events after it).
    """
    positions = d.passage_positions() if positions is None else positions
    ci, p = positions[(cid, OVER)]
    cj, q = positions[(cid, UNDER)]
    if ci == cj:
        raise ValueError(f"crossing {cid} is a self-crossing")
    over_events = d.components[ci - 1].events
    under_events = d.components[cj - 1].events
    selected = _refs(over_events[:p]) + _refs(under_events[q + 1:])
    other_half = _refs(over_events[p + 1:]) + _refs(under_events[:q])
    others = [
        (ev.crossing, ev.role)
        for k, comp in enumerate(d.components, start=1) if k not in (ci, cj)
        for ev in comp.events
    ]
    return CycleSlice(frozenset(selected), frozenset(other_half) | frozenset(others))


def homological_weight(d: TangleDiagram, cid: int, positions: Positions | None = None,
                       classical: list[int] | None = None) -> AffineInt:
    """The weight of a classical crossing from its smoothing and the pairing."""
    rec = d.crossings.get(cid)
    if rec is None or not rec.is_classical:
        raise NotClassical(f"crossing {cid} is not a classical crossing")
    positions = d.passage_positions() if positions is None else positions
    ci, _ = positions[(cid, OVER)]
    cj, _ = positions[(cid, UNDER)]
    if ci == cj:
        sl = smooth_self_crossing(d, cid, positions)
        return AffineInt(pairing(sl.rest, sl.slice, d, classical))
    sl = smooth_mixed_crossing(d, cid, positions)
    return AffineInt.symbol(ci) - AffineInt.symbol(cj) + pairing(sl.rest, sl.slice, d, classical)


@dataclass(frozen=True)
class Prop2Entry:
    crossing: int
    weight: AffineInt
    homological: AffineInt
    expected: AffineInt
    self_crossing: bool
    early_under: bool
    ok: bool


@dataclass(frozen=True)
class Prop2Report:
    entries: tuple[Prop2Entry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[Prop2Entry]:
        return [e for e in self.entries if not e.ok]


def check_prop2(d: TangleDiagram, labeling: Labeling | None = None) -> Prop2Report:
    """Verify W = +/-(W_h - delta) for every classical crossing.

    W is read from :func:`weight_table`, the table the polynomial is
    built from, so a fault there shows here.
    """
    if d.singular_ids():
        raise HasSingular("resolve singular crossings first")
    labeling = labeling or propagate_labels(d)
    positions = d.passage_positions()
    classical = d.classical_ids()
    entries = []
    for cid, rec in weight_table(d, labeling).items():
        ci, p = positions[(cid, OVER)]
        cj, q = positions[(cid, UNDER)]
        wh = homological_weight(d, cid, positions, classical)
        self_crossing = ci == cj
        early_under = self_crossing and q < p
        adjusted = wh - AffineInt(labeling.delta[cj])
        expected = -adjusted if early_under else adjusted
        entries.append(Prop2Entry(cid, rec.weight, wh, expected, self_crossing, early_under,
                                  rec.weight == expected))
    return Prop2Report(tuple(entries))


def maip_via_homology(d: TangleDiagram, labeling: Labeling | None = None) -> LaurentPoly:
    """Rebuild the invariant from homological weights alone.

    Early undercrossings contribute sign * t_i^(-W_h + 2 delta_i), early
    overcrossings and mixed crossings sign * t_i^(W_h), and the constant
    parts are restored by subtracting sign * t_i^(delta_j) over all
    classical crossings.
    """
    if d.singular_ids():
        raise HasSingular("resolve singular crossings first")
    labeling = labeling or propagate_labels(d)
    positions = d.passage_positions()
    classical = d.classical_ids()
    terms: dict[tuple[int, AffineInt], int] = {}
    for cid in classical:
        ci, p = positions[(cid, OVER)]
        cj, q = positions[(cid, UNDER)]
        sign = d.sign(cid)
        wh = homological_weight(d, cid, positions, classical)
        if ci == cj and q < p:
            exponent = -wh + 2 * AffineInt(labeling.delta[ci])
        else:
            exponent = wh
        for key, coeff in (((ci, exponent), sign), ((ci, AffineInt(labeling.delta[cj])), -sign)):
            terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(terms)
