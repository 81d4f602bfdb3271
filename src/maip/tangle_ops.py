"""Tensor product and composition of tangles, and polynomial prediction.

Tensoring puts the second tangle to the right of the first: component
indices, crossing ids and boundary slots shift past the first tangle's.

Composition stacks the first tangle above the second, gluing the upper
tangle's bottom slots to the lower tangle's top slots index by index.
Every glued pair must join a component end to a component start; the
glued long components merge into chains (one free start, one free end)
or close into cycles.  Chains keep the head component's basepoint and
start; a cycle takes its basepoint at the start of its lowest-indexed
participant, upper tangle first.  Composite components are numbered by
that same lead order.

predict_composed recovers the composite's polynomial from the factors'
unsimplified per-crossing records alone: along each chain the next
component's start label becomes the previous one's final label, every
participant's index difference is replaced by the chain total, and
variables are renamed to the chain's composite index.  Cyclic gluings
are refused: a cycle has no surviving start label to anchor the
substitutions, so only the diagram-level polynomial is defined there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AffineInt, LaurentPoly
from .diagram import Component, Passage, TangleDiagram, require_valid
from .errors import ArityMismatch, InconsistentPlan, OrientationMismatch
from .invariant import Contribution, MaipContributions, contribution_poly

UPPER = "U"
LOWER = "L"

_SIDE_RANK = {UPPER: 0, LOWER: 1}


@dataclass(frozen=True)
class PlanEntry:
    """One composite component: a chain, a cycle, or a carried closed loop."""

    kind: str                                   # "chain" | "cycle" | "closed"
    members: tuple[tuple[str, int], ...]        # (side, 1-based component index)

    @property
    def lead(self) -> tuple[str, int]:
        return self.members[0]


@dataclass(frozen=True)
class GluePlan:
    """The component grouping a composition's slot gluing produces."""

    entries: tuple[PlanEntry, ...]

    @property
    def has_cycles(self) -> bool:
        return any(e.kind == "cycle" for e in self.entries)

    def chain_lengths(self) -> list[int]:
        return [len(e.members) for e in self.entries if e.kind == "chain"]

    @staticmethod
    def from_tangles(upper: TangleDiagram, lower: TangleDiagram) -> "GluePlan":
        if upper.n != lower.m:
            raise ArityMismatch(
                f"upper tangle has {upper.n} bottom slots, lower has {lower.m} top slots")
        upper_slots = upper.slot_map()
        lower_slots = lower.slot_map()
        succ: dict[tuple[str, int], tuple[str, int]] = {}
        pred: dict[tuple[str, int], tuple[str, int]] = {}
        for k in range(1, upper.n + 1):
            uslot, lslot = f"B{k}", f"T{k}"
            ucomp, uend = upper_slots[uslot]
            lcomp, lend = lower_slots[lslot]
            if uend == "end" and lend == "start":
                src, dst = (UPPER, ucomp), (LOWER, lcomp)
            elif uend == "start" and lend == "end":
                src, dst = (LOWER, lcomp), (UPPER, ucomp)
            else:
                raise OrientationMismatch(
                    f"slots {uslot}/{lslot} would join two {uend}s")
            succ[src] = dst
            pred[dst] = src

        entries: list[PlanEntry] = []
        seen: set[tuple[str, int]] = set()
        nodes = []
        for side, diag in ((UPPER, upper), (LOWER, lower)):
            for ci, comp in enumerate(diag.components, start=1):
                nodes.append((side, ci, comp.kind))
        for side, ci, kind in nodes:
            node = (side, ci)
            if kind == "closed":
                entries.append(PlanEntry("closed", (node,)))
                seen.add(node)
            elif node not in pred:
                chain = [node]
                while chain[-1] in succ:
                    chain.append(succ[chain[-1]])
                entries.append(PlanEntry("chain", tuple(chain)))
                seen.update(chain)
        for side, ci, kind in nodes:
            node = (side, ci)
            if node in seen:
                continue
            cycle = [node]
            while succ[cycle[-1]] != node:
                cycle.append(succ[cycle[-1]])
            rep = min(cycle, key=lambda m: (_SIDE_RANK[m[0]], m[1]))
            at = cycle.index(rep)
            cycle = cycle[at:] + cycle[:at]
            entries.append(PlanEntry("cycle", tuple(cycle)))
            seen.update(cycle)
        entries.sort(key=lambda e: (_SIDE_RANK[e.lead[0]], e.lead[1]))
        return GluePlan(tuple(entries))


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
    """Stack ``upper`` above ``lower``, gluing B-slots to T-slots in order."""
    require_valid(upper)
    require_valid(lower)
    plan = GluePlan.from_tangles(upper, lower)
    id_offset = max(upper.crossings, default=0)

    def events_of(side, ci):
        if side == UPPER:
            return upper.components[ci - 1].events
        return tuple(Passage(ev.crossing + id_offset, ev.role)
                     for ev in lower.components[ci - 1].events)

    def comp_of(side, ci):
        return (upper if side == UPPER else lower).components[ci - 1]

    components = []
    for entry in plan.entries:
        events: tuple[Passage, ...] = ()
        for member in entry.members:
            events = events + events_of(*member)
        if entry.kind in ("cycle", "closed"):
            components.append(Component("closed", events))
        else:
            head = comp_of(*entry.lead)
            tail = comp_of(*entry.members[-1])
            components.append(Component("long", events, head.start, tail.end))
    crossings = dict(upper.crossings)
    for cid, rec in lower.crossings.items():
        crossings[cid + id_offset] = rec
    return TangleDiagram(upper.m, lower.n, tuple(components), crossings)


def predict_composed(upper: MaipContributions, lower: MaipContributions,
                     plan: GluePlan) -> LaurentPoly:
    """Composite polynomial from the factors' structured records only."""
    if plan.has_cycles:
        raise InconsistentPlan("cyclic gluing: no start label survives; "
                               "compute on the composite diagram instead")
    contribs = {UPPER: upper, LOWER: lower}
    for entry in plan.entries:
        for side, ci in entry.members:
            if ci not in contribs[side].delta:
                raise InconsistentPlan(f"plan references unknown component {side}{ci}")

    expr_map: dict[tuple[str, int], AffineInt] = {}
    var_map: dict[tuple[str, int], int] = {}
    merged_delta: dict[int, int] = {}
    for new_index, entry in enumerate(plan.entries, start=1):
        label = AffineInt.symbol(new_index)
        total = 0
        for side, ci in entry.members:
            expr_map[(side, ci)] = label
            var_map[(side, ci)] = new_index
            step = contribs[side].delta[ci]
            label = label + step
            total += step
        merged_delta[new_index] = total

    records = []
    for side in (UPPER, LOWER):
        symbol_exprs = {ci: expr_map[(side, ci)] for ci in contribs[side].delta}
        for rec in contribs[side].records:
            records.append(Contribution(
                rec.sign,
                var_map[(side, rec.over_component)],
                var_map[(side, rec.under_component)],
                rec.weight.substitute_affine(symbol_exprs),
            ))
    return contribution_poly(records, merged_delta)
