"""Building diagrams from generator words.

A generator word is a stack of rows, each row a left-to-right tensor of
basic atoms: identity strands, cups, caps, classical crossings and
virtual crossings.  Rows are listed top to bottom; adjacent rows must
agree on strand count and strand direction at their shared interface.

Directions are written ``"u"`` (flow upward through the interface) and
``"d"`` (downward).  In a crossing atom, strand A occupies bottom-left
and top-right and is the overstrand of a ``positive`` atom; the recorded
crossing sign is computed from the two strand directions, so a positive
atom on two upward strands yields a +1 crossing.

Virtual-crossing atoms only reroute strands: they produce no passage in
the resulting diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import OVER, UNDER, Component, CrossingRecord, Passage, TangleDiagram
from .errors import ArityMismatch, DirectionMismatch

_DIRS = ("u", "d")


def _check_dir(d: str) -> str:
    if d not in _DIRS:
        raise ValueError(f"direction must be 'u' or 'd', got {d!r}")
    return d


@dataclass(frozen=True)
class Identity:
    direction: str = "u"

    def __post_init__(self):
        _check_dir(self.direction)

    @property
    def bottom(self):
        return (self.direction,)

    @property
    def top(self):
        return (self.direction,)


@dataclass(frozen=True)
class Cup:
    """A minimum: no bottom legs, two top legs (one up, one down)."""

    dirs: tuple[str, str] = ("d", "u")

    def __post_init__(self):
        if sorted(self.dirs) != ["d", "u"]:
            raise ValueError(f"cup needs one 'u' and one 'd' leg, got {self.dirs}")

    @property
    def bottom(self):
        return ()

    @property
    def top(self):
        return self.dirs


@dataclass(frozen=True)
class Cap:
    """A maximum: two bottom legs (one up, one down), no top legs."""

    dirs: tuple[str, str] = ("u", "d")

    def __post_init__(self):
        if sorted(self.dirs) != ["d", "u"]:
            raise ValueError(f"cap needs one 'u' and one 'd' leg, got {self.dirs}")

    @property
    def bottom(self):
        return self.dirs

    @property
    def top(self):
        return ()


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

    @property
    def bottom(self):
        return (self.dir_a, self.dir_b)

    @property
    def top(self):
        return (self.dir_b, self.dir_a)

    @property
    def is_classical(self) -> bool:
        return self.kind != "virtual"

    def sign(self) -> int:
        vec = {"u": {"a": (1, 1), "b": (-1, 1)}, "d": {"a": (-1, -1), "b": (1, -1)}}
        va = vec[self.dir_a]["a"]
        vb = vec[self.dir_b]["b"]
        over, under = (va, vb) if self.kind == "positive" else (vb, va)
        crossp = over[0] * under[1] - over[1] * under[0]
        return 1 if crossp > 0 else -1


Atom = Identity | Cup | Cap | Crossing


@dataclass(frozen=True)
class GeneratorWord:
    rows: tuple[tuple[Atom, ...], ...]


# A port is (row, side, position); side is "top" or "bot".  Flow enters an
# atom at a bottom port directed "u" or a top port directed "d".


def _row_layout(row):
    """Per-atom port offsets plus the row's bottom/top direction lists."""
    bots, tops, spans = [], [], []
    for atom in row:
        spans.append((len(bots), len(tops)))
        bots.extend(atom.bottom)
        tops.extend(atom.top)
    return bots, tops, spans


def from_generator_word(word: GeneratorWord) -> TangleDiagram:
    """Trace strands through the rows and read off the Gauss code."""
    rows = word.rows
    layouts = [_row_layout(r) for r in rows]
    for i in range(len(rows) - 1):
        below_top = layouts[i + 1][1]
        above_bot = layouts[i][0]
        if len(above_bot) != len(below_top):
            raise ArityMismatch(
                f"row {i} has {len(above_bot)} bottom strands, row {i + 1} has {len(below_top)} top strands")
        if above_bot != below_top:
            raise DirectionMismatch(f"rows {i} and {i + 1} disagree on strand directions")

    # internal connections: partner port within the same atom, plus passage
    # metadata for classical crossing atoms
    partner: dict[tuple, tuple] = {}
    conn_meta: dict[frozenset, tuple[int, str] | None] = {}
    crossings: dict[int, CrossingRecord] = {}
    next_id = 1
    for ri, row in enumerate(rows):
        _, _, spans = layouts[ri]
        for ai, atom in enumerate(row):
            boff, toff = spans[ai]
            if isinstance(atom, Identity):
                pairs = [(("bot", boff), ("top", toff), None)]
            elif isinstance(atom, Cup):
                pairs = [(("top", toff), ("top", toff + 1), None)]
            elif isinstance(atom, Cap):
                pairs = [(("bot", boff), ("bot", boff + 1), None)]
            else:
                meta_a = meta_b = None
                if atom.is_classical:
                    cid = next_id
                    next_id += 1
                    crossings[cid] = CrossingRecord.classical(atom.sign())
                    over_a = atom.kind == "positive"
                    meta_a = (cid, OVER if over_a else UNDER)
                    meta_b = (cid, UNDER if over_a else OVER)
                pairs = [
                    (("bot", boff), ("top", toff + 1), meta_a),
                    (("bot", boff + 1), ("top", toff), meta_b),
                ]
            for (s1, p1), (s2, p2), meta in pairs:
                a, b = (ri, s1, p1), (ri, s2, p2)
                partner[a] = b
                partner[b] = a
                conn_meta[frozenset((a, b))] = meta

    def port_dir(port):
        ri, side, pos = port
        bots, tops, _ = layouts[ri]
        return bots[pos] if side == "bot" else tops[pos]

    def enters_atom(port):
        _, side, _ = port
        return port_dir(port) == ("u" if side == "bot" else "d")

    def hop(port):
        """Leave the diagram region through an interface; None if outer."""
        ri, side, pos = port
        if side == "top":
            return None if ri == 0 else (ri - 1, "bot", pos)
        return None if ri == len(rows) - 1 else (ri + 1, "top", pos)

    m = len(layouts[0][1]) if rows else 0
    n = len(layouts[-1][0]) if rows else 0

    def outer_slot(port):
        ri, side, pos = port
        return f"T{pos + 1}" if side == "top" else f"B{pos + 1}"

    visited: set[tuple] = set()

    def walk(entry):
        """Follow flow from an atom-entry port; return (events, exit port)."""
        events = []
        port = entry
        while True:
            visited.add(port)
            out = partner[port]
            visited.add(out)
            meta = conn_meta[frozenset((port, out))]
            if meta is not None:
                events.append(Passage(*meta))
            nxt = hop(out)
            if nxt is None:
                return events, out
            port = nxt

    components = []
    entry_ports = []
    for pos in range(m):
        if port_dir((0, "top", pos)) == "d":
            entry_ports.append((0, "top", pos))
    for pos in range(n):
        if port_dir((len(rows) - 1, "bot", pos)) == "u":
            entry_ports.append((len(rows) - 1, "bot", pos))
    for entry in entry_ports:
        events, exit_port = walk(entry)
        components.append(Component("long", tuple(events), outer_slot(entry), outer_slot(exit_port)))

    side_rank = {"top": 0, "bot": 1}
    leftovers = sorted(
        (p for p in partner if p not in visited),
        key=lambda p: (p[0], side_rank[p[1]], p[2]),
    )
    for port in leftovers:
        if port in visited:
            continue
        start = port if enters_atom(port) else hop(port)
        if start is None:
            raise DirectionMismatch(f"dead-end strand at outer port {port}")
        events = []
        cur = start
        while True:
            visited.add(cur)
            out = partner[cur]
            visited.add(out)
            meta = conn_meta[frozenset((cur, out))]
            if meta is not None:
                events.append(Passage(*meta))
            cur = hop(out)
            if cur is None:
                raise DirectionMismatch(f"open strand reached the boundary from {port}")
            if cur == start:
                break
        components.append(Component("closed", tuple(events)))

    return TangleDiagram(m, n, tuple(components), crossings)
