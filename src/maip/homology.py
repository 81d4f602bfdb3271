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

The smoothing partitions every passage other than the smoothed
crossing's own two into the retained class and its complement, and the
smoothed crossing has no passage in the class.  So "the other passage
is in the complement" means "the other passage is not in the class",
and the pairing needs the class alone.

The pairing of a class is the sum of the label increments (-s at an
Over, +s at an Under) of its classical passages: a crossing with both
passages in the class adds -s + s = 0, one with a single passage there
the very term the pairing counts.  Without singular crossings these sums
telescope.  Let a crossing of sign s have over-incoming label a at
offset p on component i and under-incoming label b at offset q on
component j, so W = a - b - s.  In general the class is i's events
before p and j's after q, summing to (a - c_i) + (c_j + delta_j - b - s);
for a self-crossing met Under-first (q < p) it is the events before q
and after p, summing to (b - c_i) + (c_i + delta_i - a + s).  Adding
c_i - c_j gives, for every classical crossing,

    W = +(W_h - delta_j)   in general,
    W = -(W_h - delta_i)   for a self-crossing met Under-first,

which is what :func:`check_prop2` verifies and what lets
:func:`maip_via_homology` rebuild the invariant without ever reading the
labeling-derived weights.  As a telescoped identity, prop2 and the
corollary still catch faults in the class boundaries, the sign
conventions (the delta adjustment, the Under-first case, c_i - c_j) and
the position index, not a fault shared by the labeling's increments and
the pairing's signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AffineInt, LaurentPoly
from .diagram import OVER, UNDER, TangleDiagram
from .errors import HasSingular, NotClassical
from .invariant import propagate_labels, weight_table

PassageRef = tuple[int, str]  # (crossing id, role)
Positions = dict[PassageRef, tuple[int, int]]  # as d.passage_positions() returns


def pairing(class_: frozenset[PassageRef] | set[PassageRef], d: TangleDiagram) -> int:
    """Intersection count of a passage class against the rest of the diagram."""
    total = 0
    for cid, role in class_:
        if role == OVER and (cid, UNDER) not in class_:
            total -= d.sign(cid)
        elif role == UNDER and (cid, OVER) not in class_:
            total += d.sign(cid)
    return total


def smoothing(d: TangleDiagram, cid: int, positions: Positions) -> frozenset[PassageRef]:
    """The retained class of the smoothing at ``cid``, as a passage set.

    It is the overstrand's events before the crossing together with the
    understrand's events after it, the two offsets taken in order along
    the component for a self-crossing.
    """
    ci, p = positions[(cid, OVER)]
    cj, q = positions[(cid, UNDER)]
    if ci == cj:
        p, q = sorted((p, q))
    return frozenset((ev.crossing, ev.role) for ev in
                     d.components[ci - 1].events[:p] + d.components[cj - 1].events[q + 1:])


def homological_weight(d: TangleDiagram, cid: int, positions: Positions) -> AffineInt:
    """W_h = c_i - c_j + the pairing of the crossing's smoothing (i == j: the pairing)."""
    rec = d.crossings.get(cid)
    if rec is None or not rec.is_classical:
        raise NotClassical(f"crossing {cid} is not a classical crossing")
    ci, _ = positions[(cid, OVER)]
    cj, _ = positions[(cid, UNDER)]
    return (AffineInt.symbol(ci) - AffineInt.symbol(cj)
            + pairing(smoothing(d, cid, positions), d))


@dataclass(frozen=True)
class Prop2Entry:
    crossing: int
    weight: AffineInt
    homological: AffineInt
    expected: AffineInt
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


def _predicted_weights(d: TangleDiagram, delta: dict[int, int]):
    """Per classical crossing, ascending: (cid, i, j, W_h, early_under, W).

    W is the weight Prop 2 predicts from W_h alone, +(W_h - delta_j) in
    general and -(W_h - delta_i) for a self-crossing met Under-first.
    """
    if d.singular_ids():
        raise HasSingular("resolve singular crossings first")
    positions = d.passage_positions()
    for cid in d.classical_ids():
        ci, p = positions[(cid, OVER)]
        cj, q = positions[(cid, UNDER)]
        wh = homological_weight(d, cid, positions)
        early_under = ci == cj and q < p
        adjusted = wh - delta[cj]
        yield cid, ci, cj, wh, early_under, -adjusted if early_under else adjusted


def check_prop2(d: TangleDiagram) -> Prop2Report:
    """Verify W = +/-(W_h - delta) for every classical crossing.

    W is read from :func:`weight_table`, the table the polynomial is
    built from, so a fault there shows here.
    """
    labeling = propagate_labels(d)
    table = weight_table(d, labeling)
    entries = []
    for cid, _, _, wh, early_under, expected in _predicted_weights(d, labeling.delta):
        weight = table[cid].weight
        entries.append(Prop2Entry(cid, weight, wh, expected, early_under, weight == expected))
    return Prop2Report(tuple(entries))


def maip_via_homology(d: TangleDiagram) -> LaurentPoly:
    """Rebuild the invariant from homological weights alone.

    Each classical crossing contributes sign * (t_i^(W + delta_j) -
    t_i^(delta_j)), with W the weight Prop 2 predicts from W_h.
    """
    delta = propagate_labels(d).delta
    terms: dict[tuple[int, AffineInt], int] = {}
    for cid, ci, cj, _, _, w in _predicted_weights(d, delta):
        sign = d.sign(cid)
        for key, coeff in (((ci, w + delta[cj]), sign), ((ci, AffineInt(delta[cj])), -sign)):
            terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(terms)
