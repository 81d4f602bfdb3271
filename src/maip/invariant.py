"""Affine labeling, crossing weights, the invariant polynomial, and the
extension to diagrams with singular crossings.

Label propagation: walking a component, the label changes by -sign at an
Over passage and +sign at an Under passage; singular passages change it
by -1 on the primary strand and +1 on the secondary, so all resolutions
of a singular diagram share one labeling.  Every step is an integer, so
each label on component i is its starting symbol c_i plus an integer
offset, and the walk carries only the offsets.  As it goes, the walk
branches on each passage's role, records the passage's place in that
role's table (its component and the offset of its incoming label), and
then takes the role's step.  The index difference delta_i of a component
is its final label minus its starting label, the last offset.

A classical crossing with over-incoming label a, under-incoming label b
and sign s gets weight W = a - b - s (equivalently over-incoming minus
under-outgoing).  With i the over and j the under component, W is an
integer k plus the symbol part c_i - c_j, which is 0 when i = j.  A
crossing's record is four integers (s, i, j, k), read off the two
passages' places; symbols appear where the polynomial is built.  The
invariant is

    sum over classical crossings of  sign * t_i^(delta_j) * (t_i^W - 1)

with i the overstrand component and j the understrand component.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .algebra import LaurentPoly, from_weight_sums
from .diagram import (OVER, SING_PRIMARY, SING_SECONDARY, UNDER, Component,
                      CrossingRecord, Passage, TangleDiagram)
from .errors import HasSingular

@dataclass(frozen=True)
class Labeling:
    """Where each passage sits on the labels, and every index difference.

    ``places[role][crossing]`` is the passage's (component i, offset): its
    incoming label is c_i plus that offset.  ``delta[i]`` is component
    i's last offset.
    """

    places: dict[str, dict[int, tuple[int, int]]]
    delta: dict[int, int]


def propagate_labels(d: TangleDiagram) -> Labeling:
    """Propagate labels from each component's start, the symbol c_i."""
    crossings = d.crossings
    places: dict[str, dict[int, tuple[int, int]]] = {
        OVER: {}, UNDER: {}, SING_PRIMARY: {}, SING_SECONDARY: {}}
    over, under, primary, secondary = places.values()
    delta: dict[int, int] = {}
    for ci, comp in enumerate(d.components, start=1):
        offset = 0
        for cid, role in comp.events:
            if role == OVER:
                over[cid] = (ci, offset)
                offset -= crossings[cid].sign
            elif role == UNDER:
                under[cid] = (ci, offset)
                offset += crossings[cid].sign
            elif role == SING_PRIMARY:
                primary[cid] = (ci, offset)
                offset -= 1
            else:
                secondary[cid] = (ci, offset)
                offset += 1
        delta[ci] = offset
    return Labeling(places, delta)


def weight_table(d: TangleDiagram, labeling: Labeling) -> dict[int, tuple[int, int, int, int]]:
    """Every classical crossing's record (sign, i, j, k), keyed by crossing id in walk order.

    This is where the weight W = a - b - s is read off a labeling: with
    a = c_i + k_a and b = c_j + k_b it is the integer k = k_a - k_b - s
    plus the symbol part c_i - c_j, which the record keeps as i and j.
    The classical crossings are the Over places, taken in the order the
    walk met their Over passages, not by ascending id; no caller reads
    the order.
    """
    under, crossings = labeling.places[UNDER], d.crossings
    table = {}
    for cid, (i, a) in labeling.places[OVER].items():
        j, b = under[cid]
        sign = crossings[cid].sign
        table[cid] = (sign, i, j, a - b - sign)
    return table


# ---------------------------------------------------------------------------
# the polynomial


@dataclass(frozen=True)
class MaipContributions:
    """Per-crossing records (sign, i, j, k) plus the component index differences.

    This is the unsimplified form needed to predict composite
    polynomials: the delta rewrites of composition act on the exponent
    slots of individual records and cannot be recovered from the summed
    polynomial.  The records run in the walk order of
    :func:`weight_table`, not by ascending crossing id; no caller reads
    the order.
    """

    records: tuple[tuple[int, int, int, int], ...]
    delta: dict[int, int]

    def polynomial(self) -> LaurentPoly:
        return contribution_poly(self.records, self.delta)


def contribution_poly(records, delta: Mapping[int, int]) -> LaurentPoly:
    """Sum of sign * t_i^(delta_j) * (t_i^W - 1) over records (sign, i, j, k), in one pass.

    Each record is a crossing's sign, over component i, under component j
    and the integer k of its weight W = k + c_i - c_j.  Coefficients are
    summed on plain (i, j, exponent constant) keys, the symbol-free -1
    term under (i, i, delta_j), and :func:`from_weight_sums` turns the
    sums into the polynomial.
    """
    terms: dict[tuple[int, int, int], int] = {}
    for sign, i, j, k in records:
        shift = delta[j]
        key = (i, j, k + shift)
        terms[key] = terms.get(key, 0) + sign
        key = (i, i, shift)
        terms[key] = terms.get(key, 0) - sign
    return from_weight_sums(terms)


def structured_maip(d: TangleDiagram) -> MaipContributions:
    """The records of :func:`weight_table`, in its walk order, with every delta_i.

    Composition's prediction reads this form; :func:`maip` assembles the
    table's records directly.
    """
    labeling = propagate_labels(d)
    return MaipContributions(tuple(weight_table(d, labeling).values()), labeling.delta)


def maip(d: TangleDiagram) -> LaurentPoly:
    """The multi-variable polynomial of a diagram without singular crossings.

    One label walk serves both the check and the weights: a singular
    crossing shows as a primary place in the walk's labeling.
    """
    labeling = propagate_labels(d)
    if labeling.places[SING_PRIMARY]:
        raise HasSingular("diagram has singular crossings; use resolve")
    table, delta = weight_table(d, labeling), labeling.delta
    # Free the places before the assembly, so the polynomial's objects
    # reuse their memory rather than pin fresh memory beside them.
    del labeling
    return contribution_poly(table.values(), delta)


# ---------------------------------------------------------------------------
# singular resolution


# The role a resolution gives each singular passage, keyed by (role, resolution).
_RESOLVED = {(SING_PRIMARY, 1): OVER, (SING_SECONDARY, 1): UNDER,
             (SING_PRIMARY, -1): UNDER, (SING_SECONDARY, -1): OVER}


@dataclass(frozen=True)
class SingularResolutionTerm:
    coefficient: int
    diagram: TangleDiagram


def resolve_singular(d: TangleDiagram) -> list[SingularResolutionTerm]:
    """All 2^k resolutions of the singular crossings, with signs.

    The + resolution turns (primary, secondary) into (Over, Under) at a
    positive crossing; the - resolution into (Under, Over) at a negative
    one.  The coefficient is (-1)^(number of negative choices).
    """
    sing = d.singular_ids()
    if not sing:
        raise ValueError("diagram has no singular crossings")
    terms = []
    for choice in itertools.product((1, -1), repeat=len(sing)):
        chosen = dict(zip(sing, choice))
        crossings = dict(d.crossings)
        for cid, res in chosen.items():
            crossings[cid] = CrossingRecord.classical(res)
        components = []
        for comp in d.components:
            events = []
            for ev in comp.events:
                events.append(Passage(ev.crossing, _RESOLVED[ev.role, chosen[ev.crossing]])
                              if ev.crossing in chosen else ev)
            components.append(Component(comp.kind, tuple(events), comp.start, comp.end))
        terms.append(SingularResolutionTerm(
            math.prod(choice), TangleDiagram(d.m, d.n, tuple(components), crossings)))
    return terms


def vassiliev_eval(d: TangleDiagram) -> LaurentPoly:
    """Signed sum of the polynomial over all resolutions (order-one extension).

    Every resolution has the labeling of ``d`` itself, so a classical
    crossing adds the same term to each of the 2^k resolutions, and those
    terms cancel under the signs: the sum is 0 for k >= 2, and for k = 1
    it is the singular crossing's + term minus its - term.  This runs in
    one linear pass; :func:`resolve_singular` enumerates the resolutions
    only so that the vassiliev suite can check this value against them.
    """
    sing = d.singular_ids()
    if not sing:
        return maip(d)
    if len(sing) > 1:
        return LaurentPoly.zero()
    labeling = propagate_labels(d)
    i, a = labeling.places[SING_PRIMARY][sing[0]]
    j, b = labeling.places[SING_SECONDARY][sing[0]]
    # P+ puts the primary strand over at a positive crossing: W = a - b - 1.
    # P- puts it under at a negative one, so the secondary strand is over
    # and W = b - a + 1; P- enters with coefficient -1, so its sign is +1.
    return contribution_poly(((1, i, j, a - b - 1), (1, j, i, b - a + 1)), labeling.delta)
