import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maip import checks
from maip.algebra import AffineInt, LaurentPoly, render, substitute_symbols
from maip.diagram import (OVER, SING_PRIMARY, SING_SECONDARY, UNDER, random_diagram,
                          validate)
from maip.errors import HasSingular
from maip.invariant import (contribution_poly, maip, propagate_labels, resolve_singular,
                            structured_maip, vassiliev_eval, weight_table)

from conftest import aff, assert_failure_lines, const, mono, sym, weight


# ---------------------------------------------------------------------------
# labeling


def arc_offsets(d, lab, ci):
    """Component ci's label offsets, one per arc: each passage's recorded
    incoming offset, then delta_i."""
    places = [lab.places[ev.role][ev.crossing] for ev in d.components[ci - 1].events]
    assert all(component == ci for component, _ in places)
    return tuple(offset for _, offset in places) + (lab.delta[ci],)


def test_labels_ex3(ex3):
    lab = propagate_labels(ex3)
    assert lab.delta == {1: -1, 2: 1, 3: 0}
    # c3, c3 + 1, c3
    assert arc_offsets(ex3, lab, 3) == (0, 1, 0)


def test_labels_ex2(ex2):
    lab = propagate_labels(ex2)
    assert lab.delta == {1: -1, 2: 1, 3: 0}
    # c1, c1 - 1, c1 - 2, c1 - 1
    assert arc_offsets(ex2, lab, 1) == (0, -1, -2, -1)


def test_labels_kink(kink):
    lab = propagate_labels(kink)
    assert lab.delta == {1: 0}
    # c1, c1 - 1, c1
    assert arc_offsets(kink, lab, 1) == (0, -1, 0)


def test_places_record_incoming_labels(ex2):
    lab = propagate_labels(ex2)
    # component 1 reads O1+ O2+ U1+ with incoming labels c1, c1 - 1, c1 - 2;
    # component 2 reads U2+ with incoming label c2
    assert lab.places[OVER] == {1: (1, 0), 2: (1, -1)}
    assert lab.places[UNDER] == {1: (1, -2), 2: (2, 0)}
    assert lab.places[SING_PRIMARY] == lab.places[SING_SECONDARY] == {}


def test_self_crossing_only_components_have_zero_delta():
    for seed in range(30):
        d = random_diagram(seed, 1, 0, seed % 9)
        assert propagate_labels(d).delta == {1: 0}


# ---------------------------------------------------------------------------
# weights


def test_weights_ex3(ex3):
    table = weight_table(ex3, propagate_labels(ex3))
    assert weight(table[1]) == aff(-1, c1=1, c3=-1)
    assert weight(table[2]) == aff(0, c2=1, c3=-1)
    # a record stores only the integer part; the symbols follow from i and j
    assert [(i, j, k) for _, i, j, k in table.values()] == [(1, 3, -1), (2, 3, 0)]
    assert all(type(k) is int for *_, k in table.values())


def test_weights_ex2_match_displayed_factors(ex2):
    # crossing 1: over-incoming c1 minus under-outgoing (c1 - 1)
    # crossing 2: over-incoming (c1 - 1) minus under-outgoing (c2 + 1)
    table = weight_table(ex2, propagate_labels(ex2))
    assert weight(table[1]) == AffineInt(1)
    assert weight(table[2]) == aff(-2, c1=1, c2=-1)


def test_weight_equals_over_incoming_minus_under_outgoing(ex2, ex3):
    for d in (ex2, ex3):
        lab = propagate_labels(d)
        positions = d.passage_positions()
        table = weight_table(d, lab)
        for cid in d.classical_ids():
            oi, op = positions[(cid, "O")]
            ui, up = positions[(cid, "U")]
            over_incoming = sym(oi) + arc_offsets(d, lab, oi)[op]
            under_outgoing = sym(ui) + arc_offsets(d, lab, ui)[up + 1]
            assert weight(table[cid]) == (over_incoming - under_outgoing).exponent()


def test_kink_weight_is_zero(kink):
    assert weight(weight_table(kink, propagate_labels(kink))[1]) == AffineInt(0)


def test_weight_requires_classical(singular, ex2):
    # only classical crossings carry a weight; singular crossing 1 has none
    assert weight_table(singular, propagate_labels(singular)) == {}
    assert list(weight_table(ex2, propagate_labels(ex2))) == ex2.classical_ids()


# ---------------------------------------------------------------------------
# the passage_positions route, kept as the reference for the walk's places


def reference_arcs(d):
    """Each component's label offsets, one per arc, walked apart from
    propagate_labels: -sign at O, +sign at U, -1 at X and +1 at Y."""
    steps = {OVER: -1, UNDER: 1, SING_PRIMARY: -1, SING_SECONDARY: 1}
    arcs = {}
    for ci, comp in enumerate(d.components, start=1):
        offsets = [0]
        for ev in comp.events:
            offsets.append(offsets[-1] + steps[ev.role] * (d.crossings[ev.crossing].sign or 1))
        arcs[ci] = offsets
    return arcs


def reference_places(d):
    """(crossing, role) -> (component, incoming offset), by event position."""
    arcs = reference_arcs(d)
    return {ref: (ci, arcs[ci][pos]) for ref, (ci, pos) in d.passage_positions().items()}


def reference_weight_table(d):
    """Every classical crossing's record, W = a - b - s read at the reference places."""
    places = reference_places(d)
    table = {}
    for cid in d.classical_ids():
        (i, a), (j, b) = places[(cid, OVER)], places[(cid, UNDER)]
        table[cid] = (d.crossings[cid].sign, i, j, a - b - d.crossings[cid].sign)
    return table


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=150, deadline=None)
def test_walk_records_the_reference_places(seed, n_closed, n_long, n_crossings, n_singular):
    if n_closed + n_long == 0:
        n_crossings = n_singular = 0
    d = random_diagram(seed, n_closed, n_long, n_crossings, n_singular=n_singular)
    lab = propagate_labels(d)
    walked = {(cid, role): place for role, by_crossing in lab.places.items()
              for cid, place in by_crossing.items()}
    assert walked == reference_places(d)
    delta = {ci: offsets[-1] for ci, offsets in reference_arcs(d).items()}
    assert lab.delta == delta
    reference = reference_weight_table(d)
    assert weight_table(d, lab) == reference
    if n_singular == 0:
        assert maip(d) == contribution_poly(tuple(reference.values()), delta)
    elif n_singular == 1:
        plus, minus = resolve_singular(d)
        assert vassiliev_eval(d) == maip(plus.diagram) + (-1) * maip(minus.diagram)


def reference_assembly(records, delta):
    """The polynomial summed term by term on AffineInt exponents."""
    terms = {}
    for rec in records:
        sign, var, j, _ = rec
        shift = delta[j]
        for exp, coeff in ((weight(rec) + shift, sign), (AffineInt(shift), -sign)):
            terms[(var, exp)] = terms.get((var, exp), 0) + coeff
    return LaurentPoly(terms)


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=150, deadline=None)
def test_integer_weights_follow_affine_arithmetic(seed, n_closed, n_long, n_singular, n_crossings):
    d = random_diagram(seed, n_closed, n_long, n_crossings, n_singular=n_singular)
    lab = propagate_labels(d)
    positions = d.passage_positions()
    table = weight_table(d, lab)
    for cid, rec in table.items():
        (i, p), (j, q) = positions[(cid, OVER)], positions[(cid, UNDER)]
        a, b = sym(i) + arc_offsets(d, lab, i)[p], sym(j) + arc_offsets(d, lab, j)[q]
        assert weight(rec) == (a - b - d.crossings[cid].sign).exponent()
        assert rec[1:3] == (i, j)
    assert contribution_poly(tuple(table.values()), lab.delta) == \
        reference_assembly(table.values(), lab.delta)


@st.composite
def composed_records(draw):
    """Records as predict_composed makes them: any integer k, self-crossings,
    and k = -delta_j, whose term cancels to the constant when i = j."""
    delta = {ci: draw(st.integers(min_value=-2, max_value=2)) for ci in (1, 2, 3)}
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i = draw(st.integers(min_value=1, max_value=3))
        j = i if draw(st.booleans()) else draw(st.integers(min_value=1, max_value=3))
        k = -delta[j] if draw(st.booleans()) else draw(st.integers(min_value=-3, max_value=3))
        records.append((draw(st.sampled_from((1, -1))), i, j, k))
    return records, delta


@given(composed_records())
@settings(max_examples=200, deadline=None)
def test_assembly_of_composed_records_matches_the_reference(case):
    records, delta = case
    assert contribution_poly(records, delta) == reference_assembly(records, delta)


def test_assembly_reference_sees_three_symbols_and_the_constant_term():
    delta = {1: 1, 2: 0, 3: -1}
    records = [(1, 1, 3, 2), (-1, 2, 3, 2), (1, 2, 1, -1), (1, 3, 3, 1)]
    expected = (mono(1, aff(1, c1=1, c3=-1)) + mono(1, -1, -1)
                + (-1) * mono(2, aff(1, c2=1, c3=-1)) + mono(2, -1)
                + mono(2, aff(0, c1=-1, c2=1)) + (-1) * mono(2, 1)
                + const(1) + (-1) * mono(3, -1))
    assert contribution_poly(records, delta) == expected == reference_assembly(records, delta)


# ---------------------------------------------------------------------------
# the polynomial


def test_maip_ex3(ex3):
    expected = mono(1, aff(-1, c1=1, c3=-1)) + mono(2, aff(0, c2=1, c3=-1), -1)
    assert maip(ex3) == expected
    assert render(maip(ex3)) == "t1^(c1-c3-1) - t2^(c2-c3)"


def test_maip_ex2(ex2):
    expected = (const(1) + mono(1, -1, -1)
                + mono(1, aff(-1, c1=1, c2=-1)) + mono(1, 1, -1))
    assert maip(ex2) == expected


def test_maip_ex1(ex1):
    expected = (const(1) + mono(1, -1, -1) + mono(1, aff(0, c1=1, c2=-1))
                + mono(1, 1, -1) + mono(2, aff(-1, c1=-1, c2=1))
                + mono(2, aff(0, c1=-1, c2=1), -1))
    assert maip(ex1) == expected
    assert propagate_labels(ex1).delta == {1: -1, 2: 1}


def test_maip_crossing_free_is_zero():
    d = random_diagram(11, 2, 1, 0)
    assert not maip(d)


def test_maip_rejects_singular(singular):
    with pytest.raises(HasSingular):
        maip(singular)


def test_maip_commutes_with_symbol_substitution():
    for seed in range(20):
        d = random_diagram(seed, seed % 2, 1 + seed % 2, seed % 10)
        assignment = {i: (i * 3 - 2) for i in range(1, len(d.components) + 1)}
        via_poly = substitute_symbols(maip(d), assignment)
        # Walk the labels from the integer starts: -sign over, +sign under.
        incoming = {}
        delta = {}
        for ci, comp in enumerate(d.components, start=1):
            label = assignment[ci]
            for ev in comp.events:
                incoming[(ev.crossing, ev.role)] = (ci, label)
                sign = d.crossings[ev.crossing].sign
                label += -sign if ev.role == OVER else sign
            delta[ci] = label - assignment[ci]
        # Each crossing's numeric weight a - b - s from those labels, less
        # the value of its symbol part c_i - c_j, is the record's k.
        records = []
        for cid in d.classical_ids():
            (i, a), (j, b) = incoming[(cid, OVER)], incoming[(cid, UNDER)]
            s = d.crossings[cid].sign
            records.append((s, i, j, a - b - s - (assignment[i] - assignment[j])))
        assert via_poly == substitute_symbols(contribution_poly(records, delta), assignment)


# ---------------------------------------------------------------------------
# singular resolution


def test_resolution_terms(singular):
    terms = resolve_singular(singular)
    assert [t.coefficient for t in terms] == [1, -1]
    pos, neg = terms
    assert pos.diagram.crossings[1].sign == 1
    assert [ev.role for ev in pos.diagram.components[1].events] == ["U"]
    assert [ev.role for ev in pos.diagram.components[0].events] == ["O"]
    assert neg.diagram.crossings[1].sign == -1
    assert [ev.role for ev in neg.diagram.components[0].events] == ["U"]
    for term in terms:
        assert validate(term.diagram) == []


def test_resolution_shares_one_labeling(singular):
    diagrams = [singular] + [random_diagram(s, s % 2, 1 + s % 2, s % 6, n_singular=1 + s % 2)
                             for s in range(8)]
    for d in diagrams:
        reference = propagate_labels(d)
        for term in resolve_singular(d):
            resolved = propagate_labels(term.diagram)
            for ci in reference.delta:
                assert arc_offsets(term.diagram, resolved, ci) == arc_offsets(d, reference, ci)
            assert resolved.delta == reference.delta


def test_two_singular_coefficients():
    d = random_diagram(4, 1, 1, 3, n_singular=2)
    assert [t.coefficient for t in resolve_singular(d)] == [1, -1, -1, 1]


def test_resolve_requires_singular(kink):
    with pytest.raises(ValueError, match=r"^diagram has no singular crossings$"):
        resolve_singular(kink)


def test_vassiliev_on_classical_diagram_is_maip(ex3):
    assert vassiliev_eval(ex3) == maip(ex3)


def test_singular_example_value(singular):
    """The one-singular-point example is nonzero: order exactly one.

    The positive resolution contributes t1^(c1-c2) - t1; the negative
    resolution's diagram has its crossing sign inside its own polynomial,
    so subtracting it contributes +t2^(c2-c1) - t2^(-1).
    """
    expected = (mono(1, aff(0, c1=1, c2=-1)) + mono(1, 1, -1)
                + mono(2, aff(0, c1=-1, c2=1)) + mono(2, -1, -1))
    assert vassiliev_eval(singular) == expected
    terms = resolve_singular(singular)
    assert maip(terms[0].diagram) == mono(1, aff(0, c1=1, c2=-1)) + mono(1, 1, -1)
    assert maip(terms[1].diagram) == mono(2, aff(0, c1=-1, c2=1), -1) + mono(2, -1)


def test_two_singular_points_vanish():
    for seed in range(40):
        d = random_diagram(seed, seed % 2, 1 + seed % 3, seed % 7, n_singular=2)
        assert not vassiliev_eval(d)


def signed_enumeration(d):
    total = LaurentPoly.zero()
    for term in resolve_singular(d):
        total = total + term.coefficient * maip(term.diagram)
    return total


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_closed_form_equals_the_signed_enumeration(seed, k):
    d = random_diagram(seed, seed % 2, 1 + seed % 3, seed % 9, n_singular=k)
    assert vassiliev_eval(d) == signed_enumeration(d)


def test_vassiliev_suite_catches_a_wrong_value(monkeypatch):
    def unsigned(d):
        return sum((maip(t.diagram) for t in resolve_singular(d)), LaurentPoly.zero())

    for wrong in (unsigned, lambda d: LaurentPoly.zero()):
        monkeypatch.setattr(checks, "vassiliev_eval", wrong)
        assert not checks.check_vassiliev_suite(30, 7).ok


def test_vassiliev_suite_reports_a_zero_value(monkeypatch):
    monkeypatch.setattr(checks, "vassiliev_eval", lambda d: LaurentPoly.zero())
    report = checks.check_vassiliev_suite(60, 7)
    assert len(report.failures) == 13, report.summary()
    assert_failure_lines(report, ["trial", "seed", "diagram", "value", "enumerated"])
    assert all(f["value"] == "0" != f["enumerated"] for f in report.failures)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_structured_form_sums_to_the_polynomial(seed):
    d = random_diagram(seed, 1, 1, seed % 10)
    assert structured_maip(d).polynomial() == maip(d)


def records_read_off_the_components(d):
    """Every classical crossing's record (sign, i, j, k), one crossing at a
    time: each of its two passages is found in ``d.components``, and its
    incoming offset is the sum of the label steps before it."""
    def place(cid, role):
        for ci, comp in enumerate(d.components, start=1):
            offset = 0
            for ev in comp.events:
                if ev == (cid, role):
                    return ci, offset
                sign = d.crossings[ev.crossing].sign
                if ev.role in (OVER, UNDER):
                    offset += -sign if ev.role == OVER else sign
                else:
                    offset += -1 if ev.role == SING_PRIMARY else 1
        raise AssertionError(f"no passage {role}{cid}")

    records = {}
    for cid, rec in d.crossings.items():
        if rec.sign is not None:
            (i, a), (j, b) = place(cid, OVER), place(cid, UNDER)
            records[cid] = (rec.sign, i, j, a - b - rec.sign)
    return records


def test_the_label_path_on_2000_seeded_diagrams():
    # 1-4 components, some of them empty, 0-12 crossings, and one diagram
    # in eight with singular crossings, which maip refuses after its walk.
    rng = random.Random(20250810)
    seen = {"empty component": 0, "no crossing": 0, "singular": 0}
    for _ in range(2000):
        n_components = rng.randint(1, 4)
        n_closed = rng.randint(0, n_components)
        n_singular = rng.randint(1, 2) if rng.random() < 0.125 else 0
        d = random_diagram(rng.randrange(10**6), n_closed, n_components - n_closed,
                           rng.randint(0, 12), n_singular=n_singular)
        seen["empty component"] += any(not comp.events for comp in d.components)
        seen["no crossing"] += not d.crossings
        assert weight_table(d, propagate_labels(d)) == records_read_off_the_components(d)
        if n_singular:
            seen["singular"] += 1
            with pytest.raises(HasSingular,
                               match=r"^diagram has singular crossings; use resolve$"):
                maip(d)
        else:
            assert maip(d) == structured_maip(d).polynomial()
    assert min(seen.values()) >= 100, seen


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=39))
@settings(max_examples=150, deadline=None)
def test_first_moment_sum_rule(seed, n_components, n_closed, n_crossings):
    """Sum of coefficient * exponent = -sum_i (c_i * delta_i + delta_i^2 / 2).

    Read off the finished polynomial and the index differences alone: the
    coefficient of each c_m is -delta_m, and twice the constant is
    -sum_i delta_i^2.  For a knot every delta is 0, which is the knot
    case P'(1) = 0 of Kauffman's affine index polynomial.
    """
    n_closed = min(n_closed, n_components)
    d = random_diagram(seed, n_closed, n_components - n_closed, n_crossings)
    delta = propagate_labels(d).delta
    symbols: dict[int, int] = {}
    constant = 0
    for (_, exp), coeff in maip(d).terms.items():
        constant += coeff * exp.const
        if exp.p:
            symbols[exp.p] = symbols.get(exp.p, 0) + coeff
            symbols[exp.q] = symbols.get(exp.q, 0) - coeff
    assert {i: a for i, a in symbols.items() if a} == {i: -dl for i, dl in delta.items() if dl}
    assert 2 * constant == -sum(dl * dl for dl in delta.values())
