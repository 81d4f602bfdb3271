"""Crossing weights recovered from a combinatorial intersection pairing.

Smoothing a crossing (respecting orientation) splits the strands through
it into two classes; pairing one class against the rest of the diagram
counts, over every classical crossing with exactly one passage in the
class, +sign when that passage is an Under and -sign when it is an Over.
Crossings internal to a class are self-intersections and do not count.

The passages are indexed once per diagram, in one pass, as flat integer
slots, components in order (:class:`PassageIndex`).  The pairing counts
-s at an Over slot, +s at an Under slot and nothing at a singular one;
the index keeps those counts only as the bitsets of the slots counting
+1 and -1.  They are written here from the crossing signs, apart from
the labeling's increment table, so a fault in that table alone shows as
a disagreement.

For a self-crossing the retained class is the one containing the
component's basepoint.  For a mixed crossing (overstrand i, understrand
j) the retained class is the one containing the overstrand's initial
segment; when a closed component is involved the two components are
first spliced into one cycle by a bridge placed right after both
starting points.  A bridge adds only virtual crossings, which the
pairing cannot see, so its routing never changes the answer.  Either
way the class is two slot ranges: i's events before the crossing and
j's after it, the two slots sorted for a self-crossing.

The smoothing partitions every passage other than the smoothed
crossing's own two into the retained class and its complement, and the
smoothed crossing has no passage in the class.  So the pairing needs
the class alone, and by the pairing lemma below it is the class's count
sum: the popcount of the class's +1 slots less that of its -1 slots
over its two ranges, 64 slots at a time.  The oracle stays quadratic
by design, O(N^2/64) word operations over N slots, in O(N) memory: the
index is two bitsets of N bits and one entry per crossing.  It never
reads the label offsets.

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

which is what :func:`check_prop2` verifies against the labeling's delta,
Prop 2 being a statement about it.  :func:`maip_via_homology` rebuilds
the invariant without reading the labeling at all: without singular
crossings delta_i is the sum of component i's counts, the popcount of
its +1 slots less that of its -1 slots.  As a telescoped identity, prop2
and the corollary still catch faults in the class boundaries, the sign
conventions (the delta adjustment, the Under-first case, c_i - c_j),
the passage index and the labeling's increments, not a fault made
identically in those increments and the counts here.

Each crossing's result stays a row of integers, (cid, i, j, pairing, k)
with W = k + c_i - c_j, from the index to the verdict:
:class:`Prop2Report` compares the rows with the records of
:func:`weight_table` in integers, and :func:`maip_via_homology` sums
them on integer keys.  Exponents are built only for the failing
crossings a report prints, and once per distinct term of the
reassembled polynomial.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AffineInt, LaurentPoly, affine_weight
from .diagram import OVER, TangleDiagram
from .errors import HasSingular, NotClassical
from .invariant import propagate_labels, weight_table

SlotRange = tuple[int, int]  # half-open [lo, hi) of passage slots


class PassageIndex(NamedTuple):
    """Every passage of a diagram as one flat slot, components in order.

    ``span[ci]`` is component ci's slot range and ``place[cid]`` = (i,
    over slot, j, under slot) for each classical crossing, i and j its
    over and under components.  The pairing reads two bitsets, bit s
    for slot s: ``plus`` and ``minus`` hold the slots that count +1 and
    -1 (-sign at an Over, +sign at an Under, neither at a singular
    passage).  A crossing's two passages count -s and +s, so a class's
    count sum is its pairing and the index needs no partner data.
    """

    span: dict[int, SlotRange]
    place: dict[int, tuple[int, int, int, int]]
    plus: int
    minus: int


def passage_index(d: TangleDiagram) -> PassageIndex:
    """Index every passage of ``d``; the counts come from the crossing signs."""
    span: dict[int, SlotRange] = {}
    place: dict[int, tuple[int, int, int, int]] = {}
    first: dict[int, tuple[int, int]] = {}    # (component, slot) of a first passage
    plus = minus = hi = 0
    crossings = d.crossings
    for ci, comp in enumerate(d.components, start=1):
        lo, hi = hi, hi + len(comp.events)
        span[ci] = (lo, hi)
        for slot, (cid, role) in enumerate(comp.events, lo):
            sign = crossings[cid].sign
            if sign is None:    # a singular passage counts nothing
                continue
            if (-sign if role == OVER else sign) > 0:
                plus |= 1 << slot
            else:
                minus |= 1 << slot
            seen = first.pop(cid, None)
            if seen is None:
                first[cid] = (ci, slot)
                continue
            cj, other = seen
            place[cid] = (ci, slot, cj, other) if role == OVER else (cj, other, ci, slot)
    return PassageIndex(span, place, plus, minus)


def pairing(index: PassageIndex, class_: tuple[SlotRange, SlotRange]) -> int:
    """Intersection count of a class, two disjoint slot ranges, against the rest.

    By the pairing lemma this is the class's count sum: a crossing with
    both passages in the class counts -s + s = 0, so only the crossings
    with one passage there remain.  It is the popcount of the class's
    +1 slots less that of its -1 slots.
    """
    (a, b), (c, e) = class_
    mask = ((1 << b) - (1 << a)) | ((1 << e) - (1 << c))
    return (mask & index.plus).bit_count() - (mask & index.minus).bit_count()


def smoothing(index: PassageIndex, cid: int) -> tuple[SlotRange, SlotRange]:
    """The retained class of the smoothing at classical crossing ``cid``.

    It is the overstrand's events before the crossing together with the
    understrand's events after it, the two slots taken in order along
    the component for a self-crossing.
    """
    ci, o, cj, u = index.place[cid]
    if ci == cj and u < o:
        o, u = u, o
    return (index.span[ci][0], o), (u + 1, index.span[cj][1])


def homological_weight(index: PassageIndex, cid: int) -> AffineInt:
    """W_h = c_i - c_j + the pairing of the crossing's smoothing (i == j: the pairing)."""
    place = index.place.get(cid)
    if place is None:
        raise NotClassical(f"crossing {cid} is not a classical crossing")
    ci, _, cj, _ = place
    return affine_weight(ci, cj, pairing(index, smoothing(index, cid)))


class Prop2Report:
    """Prop 2 checked on every classical crossing, in integers.

    ``table`` holds the records (sign, i, j, k) of :func:`weight_table`
    and ``predicted`` one row (cid, i, j, pairing, k) per classical
    crossing, ascending, from :func:`_predicted_weights`.  A record
    agrees with its row when the weights k + c_i - c_j are equal: the
    same k, and the same i and j, or i = j on both sides, since two
    constant exponents are equal whatever their components.  ``failed``
    holds the ids of the crossings that disagree.
    """

    __slots__ = ("table", "predicted", "failed")

    def __init__(self, table: dict[int, tuple[int, int, int, int]],
                 predicted: tuple[tuple[int, int, int, int, int], ...]):
        self.table = table
        self.predicted = predicted
        failed = []
        for cid, i, j, _, k in predicted:
            _, ti, tj, tk = table[cid]
            if tk != k or (ti != tj if i == j else ti != i or tj != j):
                failed.append(cid)
        self.failed = tuple(failed)

    @property
    def ok(self) -> bool:
        return not self.failed

    def failures(self) -> list[dict]:
        """Each failing crossing's id, weight, W_h and predicted weight, printed."""
        bad = set(self.failed)
        return [{"id": cid, "weight": str(affine_weight(*self.table[cid][1:])),
                 "homological": str(affine_weight(i, j, pairing)),
                 "expected": str(affine_weight(i, j, k))}
                for cid, i, j, pairing, k in self.predicted if cid in bad]


def _predicted_weights(d: TangleDiagram, index: PassageIndex, delta: dict[int, int]):
    """Per classical crossing, ascending: (cid, i, j, pairing, k).

    W_h = c_i - c_j + pairing, and k + c_i - c_j is the weight Prop 2
    predicts from it: k = pairing - delta_j in general, and delta_i -
    pairing for a self-crossing met Under-first, whose W_h has no symbol
    part.
    """
    if d.has_singular():
        raise HasSingular("resolve singular crossings first")
    for cid in d.classical_ids():
        ci, o, cj, u = index.place[cid]
        pairing = homological_weight(index, cid).const
        yield cid, ci, cj, pairing, (delta[cj] - pairing if ci == cj and u < o
                                     else pairing - delta[cj])


def check_prop2(d: TangleDiagram) -> Prop2Report:
    """Verify W = +/-(W_h - delta) for every classical crossing.

    W is the record (sign, i, j, k) of :func:`weight_table`, the table
    the polynomial is built from, so a fault in k, i or j shows here;
    delta is the labeling's, which Prop 2 is a statement about.
    """
    index = passage_index(d)
    labeling = propagate_labels(d)
    return Prop2Report(weight_table(d, labeling),
                       tuple(_predicted_weights(d, index, labeling.delta)))


def maip_via_homology(d: TangleDiagram) -> LaurentPoly:
    """Rebuild the invariant from homological weights alone.

    Each classical crossing contributes sign * (t_i^(W + delta_j) -
    t_i^(delta_j)), with W the weight Prop 2 predicts from W_h.  Each
    delta_i is read off the index, the +1 slots of component i less its
    -1 slots, so nothing here reads the labeling.
    """
    index = passage_index(d)
    plus, minus = index.plus, index.minus
    delta = {}
    for ci, (lo, hi) in index.span.items():
        mask = (1 << hi) - (1 << lo)
        delta[ci] = (plus & mask).bit_count() - (minus & mask).bit_count()
    crossings = d.crossings
    sums: dict[tuple[int, int, int], int] = {}    # (i, j, exponent constant) -> coefficient
    for cid, i, j, _, k in _predicted_weights(d, index, delta):
        sign = crossings[cid].sign
        shift = delta[j]
        key = (i, j, k + shift)
        sums[key] = sums.get(key, 0) + sign
        key = (i, i, shift)
        sums[key] = sums.get(key, 0) - sign
    return LaurentPoly({(i, affine_weight(i, j, const)): coeff
                        for (i, j, const), coeff in sums.items()})
