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
crossings delta_i is the sum of component i's counts, the pairing of its
own slot range.  It hands the predicted records to
:func:`contribution_poly`, the direct route's assembly, so the corollary
checks the weights and the deltas.  As a telescoped identity, prop2 and
the corollary still catch faults in the class boundaries, the sign
conventions (the delta adjustment, the Under-first case, c_i - c_j),
the passage index and the labeling's increments, not a fault made
identically in those increments and the counts here.

Each crossing's result stays integers from the index to the verdict:
its pairing is W_h less c_i - c_j, and each crossing becomes a row
(cid, i, j, pairing, k) with W = k + c_i - c_j.  The rows come from one
loop over the classical crossings, which builds each class's mask and
takes its two popcounts inline, so no function is called per crossing.
:func:`smoothing`, :func:`pairing` and :func:`homological_weight` do the
same one crossing at a time; they are the per-crossing API and the
reference the tests hold the loop to.  :class:`Prop2Report` compares
the rows with the records of :func:`weight_table` in integers, and
:func:`maip_via_homology` turns them into records (sign, i, j, k).
Exponents are built only for the failing crossings a report prints.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import LaurentPoly, affine_weight
from .diagram import OVER, TangleDiagram
from .errors import HasSingular
from .invariant import contribution_poly, propagate_labels, weight_table

SlotRange = tuple[int, int]  # half-open [lo, hi) of passage slots

# A slot's mark as its binary digit in the +1 and in the -1 bitset.
_PLUS_DIGITS = bytes.maketrans(b"\0\1\2", b"010")
_MINUS_DIGITS = bytes.maketrans(b"\0\1\2", b"001")


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
    """Index every passage of ``d``; the counts come from the crossing signs.

    Each slot's count is marked in one byte, and each bitset is read once
    from those bytes as binary digits, so the build is linear.
    """
    span: dict[int, SlotRange] = {}
    place: dict[int, tuple[int, int, int, int]] = {}
    first: dict[int, tuple[int, int]] = {}    # (component, slot) of a first passage
    marks = bytearray()    # per slot: 1 counts +1, 2 counts -1, 0 nothing
    hi = 0
    crossings = d.crossings
    for ci, comp in enumerate(d.components, start=1):
        lo, hi = hi, hi + len(comp.events)
        span[ci] = (lo, hi)
        for slot, (cid, role) in enumerate(comp.events, lo):
            sign = crossings[cid].sign
            if sign is None:    # a singular passage counts nothing
                marks.append(0)
                continue
            marks.append(1 if (-sign if role == OVER else sign) > 0 else 2)
            seen = first.pop(cid, None)
            if seen is None:
                first[cid] = (ci, slot)
                continue
            cj, other = seen
            place[cid] = (ci, slot, cj, other) if role == OVER else (cj, other, ci, slot)
    digits = b"0" + marks[::-1]    # slot s is bit s; the leading 0 reads an empty diagram
    return PassageIndex(span, place, int(digits.translate(_PLUS_DIGITS), 2),
                        int(digits.translate(_MINUS_DIGITS), 2))


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


def homological_weight(index: PassageIndex, cid: int) -> int:
    """The pairing of the crossing's smoothing: W_h less c_i - c_j (i == j: W_h itself)."""
    if cid not in index.place:
        raise ValueError(f"crossing {cid} is not a classical crossing")
    return pairing(index, smoothing(index, cid))


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

    One loop does what :func:`smoothing` and :func:`pairing` do for each
    crossing, calling neither: the class is i's slots before o and j's
    after u, as one mask, and the pairing its two masked popcounts.
    """
    if d.has_singular():
        raise HasSingular("resolve singular crossings first")
    span, place, plus, minus = index
    for cid in d.classical_ids():
        i, o, j, u = place[cid]
        early_under = i == j and u < o
        if early_under:
            o, u = u, o
        mask = ((1 << o) - (1 << span[i][0])) | ((1 << span[j][1]) - (2 << u))
        pairing = (mask & plus).bit_count() - (mask & minus).bit_count()
        yield cid, i, j, pairing, delta[j] - pairing if early_under else pairing - delta[j]


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

    Each classical crossing's row becomes the record (sign, i, j, k) of
    the weight Prop 2 predicts from W_h, and :func:`contribution_poly`
    sums the records as it does the labeling's.  Each delta_i is the
    pairing of component i's own slot range, so nothing here reads the
    labeling.
    """
    index = passage_index(d)
    delta = {ci: pairing(index, (span, (0, 0))) for ci, span in index.span.items()}
    crossings = d.crossings
    return contribution_poly([(crossings[cid].sign, i, j, k)
                              for cid, i, j, _, k in _predicted_weights(d, index, delta)], delta)
