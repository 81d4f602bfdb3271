"""Tensor product and composition of tangles, and polynomial prediction.

Tensoring puts the second tangle to the right of the first: component
indices, crossing ids and boundary slots shift past the first tangle's.

Composition stacks the first tangle above the second: it is their tensor
product glued along a plan that joins the upper tangle's bottom slot Bk
to the lower tangle's top slot Tk.  The plan names the pieces by their
component indices in ``tensor(upper, lower)``, the upper tangle's first.
Every glued pair must join a component end to a component start; the
glued long pieces merge into chains (one free start, one free end) or
close into cycles.  Chains keep the head piece's basepoint and start; a
cycle takes its basepoint at the start of its lowest-indexed piece.
Composite components are numbered by their first piece.  compose is
``GluePlan.from_tangles(upper, lower).glue(upper, lower)``, so a caller
that also predicts the polynomial builds the plan once and uses it twice.

cut is the inverse of compose, up to the order of the components and
tensor's shift of the lower crossing ids.

predict_composed recovers the composite's polynomial from the factors'
unsimplified per-crossing records alone: along each chain or cycle a
piece starts at the composite's start symbol plus its prefix, the index
differences of the members before it, so a record's k gains its over
piece's prefix minus its under piece's.  Each participant's index
difference becomes the members' total and each variable the composite
index.  A cycle's lowest-indexed piece's start symbol anchors it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LaurentPoly
from .diagram import Component, Passage, TangleDiagram
from .errors import ArityMismatch, OrientationMismatch
from .invariant import MaipContributions, contribution_poly


@dataclass(frozen=True)
class PlanEntry:
    """One composite component: a chain, a cycle, or a carried closed loop.

    Its members are the pieces it is glued from, in order, named by their
    1-based component indices in ``tensor(upper, lower)``.
    """

    kind: str                   # "chain" | "cycle" | "closed"
    members: tuple[int, ...]    # component indices of tensor(upper, lower)


@dataclass(frozen=True)
class GluePlan:
    """The component grouping a composition's slot gluing produces."""

    entries: tuple[PlanEntry, ...]

    @staticmethod
    def from_tangles(upper: TangleDiagram, lower: TangleDiagram) -> "GluePlan":
        if upper.n != lower.m:
            raise ArityMismatch(
                f"upper tangle has {upper.n} bottom slots, lower has {lower.m} top slots")
        offset = len(upper.components)
        upper_slots, lower_slots = upper.slot_map(), lower.slot_map()
        succ: dict[int, int] = {}
        for k in range(1, upper.n + 1):
            uslot, lslot = f"B{k}", f"T{k}"
            ucomp, uend = upper_slots[uslot]
            lcomp, lend = lower_slots[lslot]
            if uend == "end" and lend == "start":
                succ[ucomp] = offset + lcomp
            elif uend == "start" and lend == "end":
                succ[offset + lcomp] = ucomp
            else:
                raise OrientationMismatch(f"slots {uslot}/{lslot} would join two {uend}s")

        pieces = upper.components + lower.components
        glued = set(succ.values())
        indices = range(1, len(pieces) + 1)
        entries: list[PlanEntry] = []
        seen: set[int] = set()
        # Chains and closed loops from their heads first; what is left lies
        # on cycles, each met first at its lowest index.
        for head in [i for i in indices if i not in glued] + list(indices):
            if head in seen:
                continue
            members = [head]
            while succ.get(members[-1], head) != head:
                members.append(succ[members[-1]])
            seen.update(members)
            kind = ("cycle" if head in glued
                    else "closed" if pieces[head - 1].kind == "closed" else "chain")
            entries.append(PlanEntry(kind, tuple(members)))
        entries.sort(key=lambda e: e.members[0])
        return GluePlan(tuple(entries))

    def glue(self, upper: TangleDiagram, lower: TangleDiagram) -> TangleDiagram:
        """The composite of the two tangles this plan was made from."""
        both = tensor(upper, lower)
        pieces = upper.components + lower.components    # the free slots keep these names
        components = []
        for entry in self.entries:
            events = tuple(ev for i in entry.members for ev in both.components[i - 1].events)
            if entry.kind == "chain":
                head, tail = pieces[entry.members[0] - 1], pieces[entry.members[-1] - 1]
                components.append(Component("long", events, head.start, tail.end))
            else:
                components.append(Component("closed", events))
        return TangleDiagram(upper.m, lower.n, tuple(components), both.crossings)


def tensor(t: TangleDiagram, t2: TangleDiagram) -> TangleDiagram:
    """Disjoint union with the second tangle's indices shifted past the first's."""
    id_offset = max(t.crossings, default=0)

    def shift_slot(slot):
        if slot is None:
            return None
        k = int(slot[1:])
        return f"{slot[0]}{k + (t.m if slot[0] == 'T' else t.n)}"

    components = list(t.components)
    for comp in t2.components:
        events = tuple(Passage(ev.crossing + id_offset, ev.role) for ev in comp.events)
        components.append(Component(comp.kind, events, shift_slot(comp.start), shift_slot(comp.end)))
    crossings = dict(t.crossings)
    for cid, rec in t2.crossings.items():
        crossings[cid + id_offset] = rec
    return TangleDiagram(t.m + t2.m, t.n + t2.n, tuple(components), crossings)


def compose(upper: TangleDiagram, lower: TangleDiagram) -> TangleDiagram:
    """Stack ``upper`` above ``lower``: their tensor product glued along the plan.

    Like :func:`tensor`, compose does not validate: both inputs must be
    valid, and then so is the composite.
    """
    return GluePlan.from_tangles(upper, lower).glue(upper, lower)


def cut(d: TangleDiagram, upper_ids: set[int]) -> tuple[TangleDiagram, TangleDiagram]:
    """Split valid ``d`` into (upper, lower): crossings in ``upper_ids`` go up.

    Each component's maximal runs of passages on one side become long
    pieces there, joined through interface slots numbered in walk order;
    an empty piece carries the strand across where it has no passage.
    A closed component that goes down starts with an upper piece, the
    lowest-indexed of its cycle, so compose bases it where ``d`` does.
    """
    pieces: tuple[list[Component], list[Component]] = ([], [])    # upper, lower
    n_iface = 0
    for comp in d.components:
        closed = comp.kind == "closed"
        if closed and all(ev.crossing in upper_ids for ev in comp.events):
            pieces[0].append(comp)
            continue
        runs: list[tuple[bool, list[Passage]]] = [(closed or comp.start[0] == "T", [])]
        for ev in comp.events:
            up = ev.crossing in upper_ids
            if up != runs[-1][0]:
                runs.append((up, []))
            runs[-1][1].append(ev)
        # A closed component comes back up from below to its basepoint.
        end_up = not closed and comp.end[0] == "T"
        if runs[-1][0] != end_up:
            runs.append((end_up, []))
        # Slot k follows run k; a closed component's last one leads to its first run.
        slots = range(n_iface + 1, n_iface + len(runs) + closed)
        n_iface += len(slots)
        for k, (up, events) in enumerate(runs):
            side = "B" if up else "T"
            start = f"{side}{slots[k - 1]}" if k or closed else comp.start
            end = f"{side}{slots[k]}" if k < len(slots) else comp.end
            pieces[not up].append(Component("long", tuple(events), start, end))
    upper = {cid: rec for cid, rec in d.crossings.items() if cid in upper_ids}
    lower = {cid: rec for cid, rec in d.crossings.items() if cid not in upper_ids}
    return (TangleDiagram(d.m, n_iface, tuple(pieces[0]), upper),
            TangleDiagram(n_iface, d.n, tuple(pieces[1]), lower))


def predict_composed(upper: MaipContributions, lower: MaipContributions,
                     plan: GluePlan) -> LaurentPoly:
    """Composite polynomial from the factors' structured records only."""
    factors = ((0, upper), (len(upper.delta), lower))    # offsets into tensor indices
    delta = {shift + ci: step for shift, f in factors for ci, step in f.delta.items()}
    place: dict[int, tuple[int, int]] = {}    # tensor index -> (composite index, prefix)
    merged_delta: dict[int, int] = {}
    for new_index, entry in enumerate(plan.entries, start=1):
        prefix = 0
        for i in entry.members:
            if i not in delta:
                raise ValueError(f"plan references unknown component {i}")
            place[i] = (new_index, prefix)
            prefix += delta[i]
        merged_delta[new_index] = prefix

    records = []
    for shift, factor in factors:
        for sign, i, j, k in factor.records:
            over, a = place[shift + i]
            under, b = place[shift + j]
            records.append((sign, over, under, k + a - b))
    return contribution_poly(records, merged_delta)
