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
sign: in these two order patterns, mixed signs make the pair swap shift
the middle labels, which is not weight-preserving.  That holds only for
the two patterns the scan reads.  The other oriented R3 moves, some
with mixed signs, have other order patterns and are never offered
(see the ROADMAP item "All eight oriented R3 moves").

A :class:`WalkState` carries a diagram under edit across the steps of a
walk: the passage list of each component, each passage's previous and
next passage, the crossing table, and the current R1-, R2- and R3
sites, keyed by the first passage of their top pair rather than by
offsets, so an edit elsewhere leaves them as they are.  One pair test
decides what a pair tops.  Every move is one edit: replace a few
adjacent passages at its anchors and update the crossing table.  After
an edit the pair test runs again only on the pairs the edit can reach:
the pairs it made, from the passage before each replaced run through
its new passages, and, for every under passage U_c among those passages
and the one after the run, the (O, O) pairs around O_c, because besides
its own two passages a pair's R2- and R3 tests read only the neighbours
of U_x and U_y.  Sites of deleted passages are dropped.

A passage's component and offset are found only where they are needed:
a draw picks a site by its rank in (component, offset) order, scans for
tops only up to it and places only its passages; a listing places the
passages its sites name in one pass and meets their tops in order, so
it needs no sort.  A new crossing
gets max(crossings) + 1 of the current table, so the id falls back after
the highest crossing is deleted.  The state carries that maximum and
finds it again only then, without a pass over the table: every id above
a floor (at first the input's highest) was minted by the walk, so a scan
down from the deleted id meets only ids that a mint has paid for, and
at the floor a max-heap of the live ids, built on first need and pruned
lazily, gives the highest one left.

:func:`find_sites` lists the sites of a fresh state, so the scan and the
walk share the pair test.  :func:`apply_site` applies an insertion at
in-range anchors and any other site only where that scan offers it, and
raises ValueError for anything else; an R3 site swaps each of its three
pairs, an R1- or R2- site drops its pairs and their crossings.
:func:`random_walk` draws and applies its moves on one state.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop
from itertools import chain, pairwise
from typing import NamedTuple

from .diagram import (OVER, SING_PRIMARY, SING_SECONDARY, UNDER, Component, CrossingRecord,
                      Passage, TangleDiagram)

OVER_FIRST = "over_first"
UNDER_FIRST = "under_first"
_INSERT_KINDS = ("R1+", "R2+")
_DELETE_KINDS = ("R1-", "R2-", "R3")
MOVE_KINDS = (*_INSERT_KINDS, *_DELETE_KINDS)


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
        kind, anchors, sign, order, same_direction = self
        text = f"{kind} " + " ".join([f"{c}:{p}" for c, p in anchors])
        if sign is not None:
            text += f" sign={'+' if sign > 0 else '-'}"
        if order is not None:
            text += f" order={order}"
        if same_direction is not None:
            text += f" same_direction={same_direction}"
        return text


# ---------------------------------------------------------------------------
# the carried walk state


# Inside the state a passage is one int, 4 * crossing + the index of its
# role, so its dictionaries hash plain ints and U_x is O_x + 1.
_ROLE_INDEX = {OVER: 0, UNDER: 1, SING_PRIMARY: 2, SING_SECONDARY: 3}


class WalkState:
    """A diagram under edit, with its R1-, R2- and R3 sites kept current.

    :meth:`draw` and :meth:`apply` take one step of a walk, :meth:`listed`
    gives the sites as :class:`MoveSite` lists and :meth:`diagram` the
    diagram as it stands.  ``passage`` maps each code to its
    :class:`Passage`: the input's own object, or one of the two made when
    a crossing is minted, so the walked diagram shares them.
    ``sites[kind]`` maps the first passage of a top pair to the sites it
    tops there, each given by the first passages of its other pairs:
    ``()`` for R1-, ``(bottom,)`` for R2-, ``(middle, bottom)`` for R3,
    whose two chiralities can share one top pair.
    """

    def __init__(self, d: TangleDiagram):
        self.base = d
        self.crossings = dict(d.crossings)
        self.top = self.floor = max(self.crossings, default=0)
        self.heap: list[int] | None = None
        self.passage: dict[int, Passage] = {}
        self.lines: list[list[int]] = [[] for _ in d.components]
        self.prev: dict[int, int | None] = {}
        self.next: dict[int, int | None] = {}
        self.sites: dict[str, dict] = {kind: {} for kind in _DELETE_KINDS}
        for line, comp in zip(self.lines, d.components):
            line += [4 * x + _ROLE_INDEX[role] for x, role in comp.events]
            self.passage.update(zip(line, comp.events))
            self.next.update(zip(line, [*line[1:], None]))
            self.prev.update(zip(line, [None, *line]))
        self._test(chain.from_iterable(map(pairwise, self.lines)))

    def _test(self, pairs) -> None:
        """Record the sites each adjacent pair (a, b) of pairs tops; b is None at a line's end.

        A kink (one crossing met as O and U in a row) is an R1- site.
        An (O_x, O_y) pair with x != y looks up U_x and U_y, and its two
        signs decide what it can top.  With opposite signs it is the top
        of an R2- site when U_x and U_y are adjacent, in either order
        (parallel or antiparallel strands).  With equal signs the
        neighbours of U_x and U_y name the two R3 candidates, one per
        chirality: middle (U_x, O_z) above bottom (U_y, U_z), or the
        mirror, middle (O_z, U_y) above bottom (U_z, U_x), where z is a
        third crossing of the same sign.  Their anchors are the top,
        middle and bottom pairs, so an applied R3 leaves its anchors a
        site and a second application undoes the first.
        """
        nxt, prv, records = self.next, self.prev, self.crossings
        r1, r2, r3 = self.sites.values()
        for a, b in pairs:
            if b is None:
                continue
            if a >> 2 == b >> 2:
                if a & 3 < 2:  # classical: O and U in either order
                    r1[a] = ((),)
                continue
            if (a | b) & 3:  # not two over passages
                continue
            ux, uy = a + 1, b + 1
            sign = records[a >> 2].sign
            if records[b >> 2].sign != sign:
                if nxt[ux] == uy:
                    r2[a] = ((ux,),)
                elif nxt[uy] == ux:
                    r2[a] = ((uy,),)
                continue
            found = []
            for anchors, oz, uz in (((ux, uy), nxt[ux], nxt[uy]),
                                    ((prv[uy], prv[ux]), prv[uy], prv[ux])):
                if (oz is not None and not oz & 3 and uz == oz + 1 and oz != a and oz != b
                        and records[oz >> 2].sign == sign):
                    found.append(anchors)
            if found:
                r3[a] = tuple(found)

    def _placed(self, kind: str) -> list[tuple]:
        """One kind's sites as anchor tuples, top pair first, in (component, offset) order.

        One pass over the passage lists places the passages the sites
        name, in (component, offset) order, so the tops come out sorted.
        """
        found = self.sites[kind]
        if not found:
            return []
        wanted = set(found)
        for rests in found.values():
            for rest in rests:
                wanted.update(rest)
        at = {p: (ci, k) for ci, line in enumerate(self.lines, start=1)
              for k, p in enumerate(line) if p in wanted}
        return [tuple([at[p] for p in (a, *rest)]) for a in at if a in found for rest in found[a]]

    def listed(self) -> dict[str, list[MoveSite]]:
        """Every R1-, R2- and R3 site; each list runs in component, then offset order."""
        return {kind: [MoveSite(kind, anchors) for anchors in self._placed(kind)]
                for kind in self.sites}

    def _place(self, p: int) -> tuple[int, int]:
        """The (component, offset) of a live passage p."""
        for ci, line in enumerate(self.lines, start=1):
            try:
                return ci, line.index(p)
            except ValueError:
                pass

    def _arc_at(self, i: int) -> tuple[int, int]:
        """The i-th arc position (component, offset), counting 0..len(events) per component."""
        for ci, line in enumerate(self.lines, start=1):
            n = len(line) + 1
            if i < n:
                return ci, i
            i -= n
        raise IndexError(f"arc position index {i} out of range")

    def draw(self, rng: random.Random) -> MoveSite | None:
        """The walk's next move, or None when no move applies.

        The move kind is drawn uniformly among kinds with at least one
        applicable site, then the site (or insertion position, sign, and
        variant) uniformly within the kind, from the list
        :func:`find_sites` would give.  A site is drawn as its rank r in
        that list, the index ``rng.choice`` of the list would take, and
        the tops are scanned in order to the r-th site.
        """
        kinds = list(_INSERT_KINDS) if self.lines else []
        kinds += [kind for kind, found in self.sites.items() if found]
        if not kinds:
            return None
        kind = rng.choice(kinds)
        if kind in _INSERT_KINDS:
            arcs = range(len(self.next) + len(self.lines))
            anchors = (self._arc_at(rng.choice(arcs)),)
            if kind == "R1+":
                return MoveSite(kind, anchors, sign=rng.choice((1, -1)),
                                order=rng.choice((OVER_FIRST, UNDER_FIRST)))
            anchors += (self._arc_at(rng.choice(arcs)),)
            return MoveSite(kind, anchors, sign=rng.choice((1, -1)),
                            same_direction=rng.choice((True, False)))
        found = self.sites[kind]
        r = rng.choice(range(sum(map(len, found.values()))))
        for ci, line in enumerate(self.lines, start=1):
            for a in filter(found.__contains__, line):
                rests = found[a]
                if r < len(rests):
                    return MoveSite(kind, tuple([(ci, line.index(a)), *map(self._place, rests[r])]))
                r -= len(rests)

    def _new_crossing(self, sign: int) -> int:
        """Add a classical crossing max(crossings) + 1 of the given sign; return its O passage."""
        x = self.top + 1
        self.crossings[x] = CrossingRecord.classical(sign)
        self.top = x
        self.passage[4 * x] = tuple.__new__(Passage, (x, OVER))
        self.passage[4 * x + 1] = tuple.__new__(Passage, (x, UNDER))
        return 4 * x

    def _fall_back(self) -> None:
        """Set top to max(crossings) after the crossing it named was deleted.

        Every id in (floor, top] was minted since the floor was set, and a
        scanned id lies above the new top, so it is scanned again only
        after it is minted again.  Every live id at or below the floor is
        an input id, kept negated in ``heap``, which is built from the
        table the first time the scan reaches the floor; so an input's id
        gaps are never scanned.  The floor only falls, and every mint
        lands above it.
        """
        crossings, x = self.crossings, self.top - 1
        while x > self.floor:
            if x in crossings:
                self.top = x
                return
            x -= 1
        heap = self.heap
        if heap is None:
            heap = self.heap = [-c for c in crossings]
            heapify(heap)
        while heap and -heap[0] not in crossings:
            heappop(heap)
        self.top = self.floor = -heap[0] if heap else 0

    def apply(self, site: MoveSite) -> None:
        """Apply site as one edit, then test again the pairs the edit can reach.

        R1+ inserts (O_x, U_x), reversed for under_first, in one splice.
        Every other move is a list of edits (component, offset, tie-break,
        passages replaced, new passages); applied from the last position
        back, every edit sees its anchor's original offset.  R2+ inserts
        (O_x, O_y) at its first anchor and (U_x, U_y), reversed unless
        same_direction, at its second; at one position the first anchor's
        pair comes first.  R3 swaps each anchored pair; R1- and R2- drop
        them and their crossings.
        """
        if site.kind == "R1+":
            if site.order not in (OVER_FIRST, UNDER_FIRST):
                raise ValueError(f"order must be {OVER_FIRST!r} or {UNDER_FIRST!r}")
            ox = self._new_crossing(site.sign)
            pair = (ox, ox + 1) if site.order == OVER_FIRST else (ox + 1, ox)
            self._retest([self._splice(*site.anchors[0], 0, pair)])
            return
        if site.kind == "R2+":
            if not isinstance(site.same_direction, bool):
                raise ValueError("same_direction must be True or False")
            ox = self._new_crossing(site.sign)
            oy = self._new_crossing(-site.sign)
            unders = (ox + 1, oy + 1) if site.same_direction else (oy + 1, ox + 1)
            a, b = site.anchors
            edits = [(*a, 0, 0, (ox, oy)), (*b, 1, 0, unders)]
        else:
            edits = []
            crossings = self.crossings
            for ci, k in site.anchors:
                pair = self.lines[ci - 1][k:k + 2]
                if site.kind == "R3":
                    edits.append((ci, k, 0, 2, pair[::-1]))
                else:
                    for p in pair:
                        crossings.pop(p >> 2, None)
                    edits.append((ci, k, 0, 2, ()))
            if self.top not in crossings:
                self._fall_back()
        edits.sort(reverse=True)
        self._retest([self._splice(ci, k, n, new) for ci, k, _, n, new in edits])

    def _splice(self, ci: int, k: int, n: int, new) -> tuple:
        """Replace n passages at offset k of component ci by new; return the run around them.

        The run is the passage before, the new passages and the passage
        after, None past an end of the line.
        """
        line = self.lines[ci - 1]
        nxt, prv = self.next, self.prev
        before = line[k - 1] if k else None
        after = line[k + n] if k + n < len(line) else None
        if not new:
            for p in line[k:k + n]:
                del nxt[p], prv[p]
                for found in self.sites.values():
                    found.pop(p, None)
        line[k:k + n] = new
        run = (before, *new, after)
        a = before
        for b in run[1:]:
            if a is not None:
                nxt[a] = b
            if b is not None:
                prv[b] = a
            a = b
        return run

    def _retest(self, runs) -> None:
        """Run the pair test again on every pair the spliced runs can reach.

        Those are the pairs each run made, started by its passages but
        the last, and for each under passage U_c in a run the two pairs
        around O_c, whose R2- and R3 tests read the neighbours of U_c;
        only an (O, O) pair tops such a site.
        """
        nxt, prev = self.next, self.prev
        tops = set()
        for run in runs:
            tops.update(run[:-1])
            for p in run:
                if p is not None and p & 3 == 1 and p - 1 in prev:
                    o = p - 1
                    before, after = prev[o], nxt[o]
                    if before is not None and not before & 3:
                        tops.add(before)
                    if after is not None and not after & 3:
                        tops.add(o)
        tops = [a for a in tops if a in prev]
        for found in self.sites.values():
            if found:
                for a in tops:
                    found.pop(a, None)
        self._test(zip(tops, map(nxt.__getitem__, tops)))

    def diagram(self) -> TangleDiagram:
        """The diagram as it stands."""
        d, passage = self.base, self.passage.__getitem__
        # tuple() of a list allocates at the final size; of a bare map it
        # starts at 10 items and resizes, which strands freed tuples on the
        # interpreter's per-size free lists and raises peak memory.  So the
        # tuples here and in the anchors above are built from lists.
        comps = tuple(Component(comp.kind, tuple(list(map(passage, line))), comp.start, comp.end)
                      for comp, line in zip(d.components, self.lines))
        return TangleDiagram(d.m, d.n, comps, dict(self.crossings))


# ---------------------------------------------------------------------------
# scan, applier and walk


def find_sites(d: TangleDiagram) -> dict[str, list[MoveSite]]:
    """Every R1-, R2- and R3 site, from the pair test run over every adjacent pair.

    Each list runs in component, then offset order; the two R3
    candidates of one top pair keep the order of :meth:`WalkState._test`.
    """
    return WalkState(d).listed()


def find_r1_delete_sites(d: TangleDiagram) -> list[MoveSite]:
    return find_sites(d)["R1-"]


def find_r2_delete_sites(d: TangleDiagram) -> list[MoveSite]:
    return find_sites(d)["R2-"]


def find_r3_sites(d: TangleDiagram) -> list[MoveSite]:
    return find_sites(d)["R3"]


def apply_site(d: TangleDiagram, site: MoveSite) -> TangleDiagram:
    """Apply an insertion at valid anchors, or a site :func:`find_sites` offers on d.

    An insertion has one anchor (R1+) or two (R2+), each naming a
    component and an arc position 0..len(events) on it.  Bad anchors, a
    site the scan does not offer, or a bad ``order``, ``same_direction``
    or sign raise ValueError.
    """
    state = WalkState(d)
    if site.kind in _INSERT_KINDS:
        if len(site.anchors) != (1 if site.kind == "R1+" else 2):
            raise ValueError(f"wrong number of anchors: {site.describe()}")
        for ci, k in site.anchors:
            if not 1 <= ci <= len(d.components):
                raise ValueError(f"no component {ci}")
            n = len(d.components[ci - 1].events)
            if not 0 <= k <= n:
                raise ValueError(f"arc position {k} out of range 0..{n}")
    elif (site.kind not in state.sites
          or site not in [MoveSite(site.kind, anchors) for anchors in state._placed(site.kind)]):
        raise ValueError(f"not a site of this diagram: {site.describe()}")
    state.apply(site)
    return state.diagram()


def random_walk(d: TangleDiagram, n_moves: int, seed: int,
                log: list[str]) -> TangleDiagram:
    """Apply n_moves uniformly chosen applicable moves, deterministically.

    One :class:`WalkState` carries the diagram and its sites across the
    steps; each step draws a move with :meth:`WalkState.draw` and applies
    it as the one edit :func:`apply_site` uses.  Each applied move's
    description is appended to ``log``.
    """
    rng = random.Random(seed)
    state = WalkState(d)
    for _ in range(n_moves):
        site = state.draw(rng)
        if site is None:
            break
        state.apply(site)
        log.append(site.describe())
    return state.diagram()
