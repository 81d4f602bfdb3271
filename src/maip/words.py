"""Building diagrams from generator words.

A generator word is a tuple of rows, each a tuple of atoms read as a
left-to-right tensor: identity strands, cups, caps, classical and
virtual crossings.  Rows are listed top to bottom; adjacent rows must
agree on strand count and direction, or :func:`from_generator_word`
raises ArityMismatch or OrientationMismatch naming the two rows.
Directions are ``"u"`` (upward) and ``"d"`` (downward).  In a crossing
atom, strand A runs bottom-left to top-right and is the overstrand of a
``positive`` atom; the sign follows from the two directions, so a
positive atom on two upward strands is a +1 crossing.
A virtual crossing only reroutes strands and leaves no passage.

Each atom's ``tangle()`` is an elementary tangle, a row is the
:func:`~maip.tangle_ops.tensor` of its atoms' tangles, and the word is
the :func:`~maip.tangle_ops.compose` of its rows from the top down.  So
the word over ``rows`` equals the composite of the word over
``rows[:-1]`` with its last row, and it is numbered as those operations
number it: crossing ids run 1..k over the classical atoms in row-major
order, and each composition numbers components by their lead part (a
chain's free head, a loop's lowest-numbered part, upper rows first) and
bases a loop it closes at the start of that part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .diagram import OVER, UNDER, Component, CrossingRecord, Passage, TangleDiagram
from .errors import ArityMismatch, OrientationMismatch
from .tangle_ops import compose, tensor

_DIRS = ("u", "d")


def _check_dir(d: str) -> None:
    if d not in _DIRS:
        raise ValueError(f"direction must be 'u' or 'd', got {d!r}")


def _strand(a: str, b: str, direction_at_a: str, events=()) -> Component:
    """The strand joining slots a and b; it starts at a T slot going "d", a B slot going "u"."""
    starts_at_a = direction_at_a == ("d" if a[0] == "T" else "u")
    return Component("long", events, *((a, b) if starts_at_a else (b, a)))


@dataclass(frozen=True)
class Identity:
    direction: str = "u"

    def __post_init__(self):
        _check_dir(self.direction)

    def tangle(self) -> TangleDiagram:
        return TangleDiagram(1, 1, (_strand("B1", "T1", self.direction),))


@dataclass(frozen=True)
class Cup:
    """A minimum: no bottom legs, two top legs (one up, one down)."""

    dirs: tuple[str, str] = ("d", "u")

    def __post_init__(self):
        if sorted(self.dirs) != ["d", "u"]:
            raise ValueError(f"cup needs one 'u' and one 'd' leg, got {self.dirs}")

    def tangle(self) -> TangleDiagram:
        return TangleDiagram(2, 0, (_strand("T1", "T2", self.dirs[0]),))


@dataclass(frozen=True)
class Cap:
    """A maximum: two bottom legs (one up, one down), no top legs."""

    dirs: tuple[str, str] = ("u", "d")

    def __post_init__(self):
        if sorted(self.dirs) != ["d", "u"]:
            raise ValueError(f"cap needs one 'u' and one 'd' leg, got {self.dirs}")

    def tangle(self) -> TangleDiagram:
        return TangleDiagram(0, 2, (_strand("B1", "B2", self.dirs[0]),))


@dataclass(frozen=True)
class Crossing:
    """kind: "positive" (strand A over), "negative" (A under) or "virtual".

    dir_a is the direction of strand A (bottom-left to top-right),
    dir_b of strand B (bottom-right to top-left).
    """

    kind: str = "positive"
    dir_a: str = "u"
    dir_b: str = "u"

    def __post_init__(self):
        if self.kind not in ("positive", "negative", "virtual"):
            raise ValueError(f"unknown crossing kind {self.kind!r}")
        _check_dir(self.dir_a)
        _check_dir(self.dir_b)

    def sign(self) -> int:
        return (1 if self.dir_a == self.dir_b else -1) * (1 if self.kind == "positive" else -1)

    def tangle(self) -> TangleDiagram:
        """Strand A then strand B; a classical atom is crossing 1."""
        if self.kind == "virtual":
            events_a, events_b, crossings = (), (), {}
        else:
            role_a, role_b = (OVER, UNDER) if self.kind == "positive" else (UNDER, OVER)
            events_a, events_b = (Passage(1, role_a),), (Passage(1, role_b),)
            crossings = {1: CrossingRecord.classical(self.sign())}
        return TangleDiagram(2, 2, (_strand("B1", "T2", self.dir_a, events_a),
                                    _strand("B2", "T1", self.dir_b, events_b)), crossings)


Atom = Identity | Cup | Cap | Crossing


def _row(atoms) -> TangleDiagram:
    return reduce(tensor, (atom.tangle() for atom in atoms), TangleDiagram(0, 0, (), {}))


def from_generator_word(rows: tuple[tuple[Atom, ...], ...]) -> TangleDiagram:
    """Tensor each row's atoms, then compose the rows from the top down."""
    tangles = [_row(r) for r in rows] or [_row(())]
    diagram = tangles[0]
    for i, lower in enumerate(tangles[1:]):
        try:
            diagram = compose(diagram, lower)
        except OrientationMismatch:
            raise OrientationMismatch(f"rows {i} and {i + 1} disagree on strand directions") from None
        except ArityMismatch:
            raise ArityMismatch(f"rows {i} and {i + 1} disagree on strand count "
                                f"({diagram.n} and {lower.m})") from None
    return diagram
