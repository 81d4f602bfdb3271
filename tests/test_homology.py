import random
import sys
import tracemalloc
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maip import checks, homology, invariant
from maip.algebra import AffineInt, affine_weight
from maip.diagram import OVER, UNDER, parse, random_diagram
from maip.homology import (Prop2Report, check_prop2, homological_weight, maip_via_homology,
                           pairing, passage_index, smoothing)
from maip.invariant import maip, propagate_labels, weight_table

from conftest import aff, assert_failure_lines


# ---------------------------------------------------------------------------
# the set-based definition, kept as the reference for the slot ranges


def reference_pairing(class_, d):
    """Intersection count of a passage set against the rest of the diagram."""
    total = 0
    for cid, role in class_:
        if role == OVER and (cid, UNDER) not in class_:
            total -= d.crossings[cid].sign
        elif role == UNDER and (cid, OVER) not in class_:
            total += d.crossings[cid].sign
    return total


def reference_smoothing(d, cid, positions):
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


def slot_refs(d):
    """The (crossing, role) of every slot, in the passage index's order."""
    return [(ev.crossing, ev.role) for comp in d.components for ev in comp.events]


def refs_of(d, class_):
    """The passages of a class given as slot ranges."""
    refs = slot_refs(d)
    return {refs[s] for lo, hi in class_ for s in range(lo, hi)}


def all_refs(d):
    return set(slot_refs(d))


def shaped_diagram(seed, n_closed, n_long, n_crossings, n_singular):
    if n_closed + n_long == 0:
        n_long = 1
    return random_diagram(seed, n_closed, n_long, n_crossings, n_singular)


# 0-2 closed and 0-2 long components, 0-12 classical and 0-2 singular crossings
diagrams = st.builds(shaped_diagram, st.integers(0, 10**6), st.integers(0, 2),
                     st.integers(0, 2), st.integers(0, 12), st.integers(0, 2))


# ---------------------------------------------------------------------------
# the passage index


def test_passage_index_ex3(ex3):
    # slots: O1+ | O2- | U1+ U2-
    index = passage_index(ex3)
    assert index.plus == 0b0110
    assert index.minus == 0b1001
    assert index.span == {1: (0, 1), 2: (1, 2), 3: (2, 4)}
    assert index.place == {1: (1, 0, 3, 2), 2: (2, 1, 3, 3)}


def test_passage_index_counts_nothing_at_a_singular_passage(singular):
    index = passage_index(singular)
    assert index.plus == index.minus == 0
    assert index.place == {}


# ---------------------------------------------------------------------------
# the pairing


def test_pairing_empty_slice(ex3):
    assert pairing(passage_index(ex3), ((0, 0), (0, 0))) == 0
    assert reference_pairing(frozenset(), ex3) == 0


def test_pairing_hand_traced_slice(ex3):
    # smoothing crossing 1 of the three-strand example leaves {U2-} against {O2-}
    assert slot_refs(ex3)[3] == (2, UNDER)
    assert pairing(passage_index(ex3), ((3, 4), (4, 4))) == -1
    assert reference_pairing(frozenset({(2, UNDER)}), ex3) == -1


def test_pairing_whole_diagram_slice(ex3):
    n = len(slot_refs(ex3))
    assert pairing(passage_index(ex3), ((0, n), (n, n))) == 0
    assert reference_pairing(frozenset(all_refs(ex3)), ex3) == 0


def test_pairing_antisymmetric_under_swap():
    """A prefix range pairs to minus its complement suffix."""
    for seed in range(25):
        d = random_diagram(seed, 1, 2, 6)
        index = passage_index(d)
        n = len(slot_refs(d))
        half = n // 2
        assert pairing(index, ((0, half), (half, half))) == -pairing(index, ((half, n), (n, n)))


def test_pairing_equals_label_increment_sum():
    """Straddling contributions telescope to the class's total label change."""
    increments = {OVER: lambda s: -s, UNDER: lambda s: s}
    rng = random.Random(0)
    for seed in range(25):
        d = random_diagram(seed, 2, 1, 8)
        refs = slot_refs(d)
        half = frozenset(refs[::2])
        total = sum(increments[role](d.crossings[cid].sign) for cid, role in half)
        assert reference_pairing(half, d) == total
        index = passage_index(d)
        a, b, c, e = sorted(rng.randint(0, len(refs)) for _ in range(4))
        class_ = ((a, b), (c, e))
        total = sum(increments[role](d.crossings[cid].sign) for cid, role in refs_of(d, class_))
        assert pairing(index, class_) == total


def two_set_pairing(rest, slice_, d):
    """The pairing of a slice against an explicit complement, kept as the reference."""
    total = 0
    for cid in d.classical_ids():
        over, under = (cid, OVER), (cid, UNDER)
        in_slice = (over in slice_, under in slice_)
        if in_slice == (True, False) and under in rest:
            total -= d.crossings[cid].sign
        elif in_slice == (False, True) and over in rest:
            total += d.crossings[cid].sign
    return total


@given(diagrams)
@settings(max_examples=150, deadline=None)
def test_pairing_over_the_class_equals_the_two_set_pairing(d):
    refs = all_refs(d)
    index = passage_index(d)
    for cid in d.classical_ids():
        ranges = smoothing(index, cid)
        class_ = refs_of(d, ranges)
        rest = refs - class_ - {(cid, OVER), (cid, UNDER)}
        assert pairing(index, ranges) == two_set_pairing(rest, class_, d)


@given(diagrams)
@settings(max_examples=150, deadline=None)
def test_slot_ranges_equal_the_set_reference(d):
    """The range class is the reference passage set, and pairs the same."""
    index = passage_index(d)
    positions = d.passage_positions()
    for cid in d.classical_ids():
        ranges = smoothing(index, cid)
        reference = reference_smoothing(d, cid, positions)
        assert refs_of(d, ranges) == reference
        assert pairing(index, ranges) == reference_pairing(reference, d)


@given(diagrams)
@settings(max_examples=150, deadline=None)
def test_pairing_of_a_smoothing_is_its_class_increment_sum(d):
    """The pairing lemma that Prop 2 telescopes from (see the homology docstring)."""
    increment = {OVER: -1, UNDER: 1}  # times the sign; singular passages are left out
    index = passage_index(d)
    for cid in d.classical_ids():
        class_ = smoothing(index, cid)
        total = sum(increment[role] * d.crossings[c].sign for c, role in refs_of(d, class_)
                    if role in increment)
        assert pairing(index, class_) == total


# ---------------------------------------------------------------------------
# diagrams of hundreds of passages, so each bitset spans many machine words


def large_diagrams(count, seed):
    """Seeded draws of 100-300 classical and 0-2 singular crossings."""
    rng = random.Random(seed)
    return [shaped_diagram(rng.randrange(10**6), rng.randint(0, 2), rng.randint(0, 2),
                           rng.randint(100, 300), rng.randint(0, 2))
            for _ in range(count)]


def disjoint_ranges(rng, n, shape):
    """Two disjoint slot ranges of [0, n), in either order.

    ``shape`` 0 draws both freely, 1 empties the first, 2 makes them
    adjacent and 3 empties both.
    """
    a, b, c, e = sorted(rng.randint(0, n) for _ in range(4))
    if shape == 1:
        b = a
    elif shape == 2:
        c = b
    elif shape == 3:
        b, e = a, c
    return ((a, b), (c, e)) if rng.random() < 0.5 else ((c, e), (a, b))


def test_pairing_on_large_diagrams_equals_the_set_reference():
    rng = random.Random(1)
    for d in large_diagrams(6, seed=0):
        index = passage_index(d)
        n = len(slot_refs(d))
        assert n >= 200
        for draw in range(50):
            class_ = disjoint_ranges(rng, n, draw % 4)
            assert pairing(index, class_) == reference_pairing(refs_of(d, class_), d)


def test_passage_index_on_large_diagrams():
    increment = {OVER: -1, UNDER: 1}  # times the sign; a singular passage counts 0
    subjects = large_diagrams(6, seed=0)
    subjects += [parse("tangle m=0 n=0\n"), random_diagram(3, 0, 1, 0),
                 random_diagram(3, 1, 2, 0, n_singular=40)]
    subjects += [random_diagram(seed, 1, 2, 150, n_singular=seed * 20) for seed in range(1, 5)]
    for d in subjects:
        refs = slot_refs(d)
        slot = {ref: s for s, ref in enumerate(refs)}
        component = [ci for ci, comp in enumerate(d.components, start=1) for _ in comp.events]
        ends = list(accumulate((len(comp.events) for comp in d.components), initial=0))
        count = [increment[role] * d.crossings[cid].sign if role in increment else 0
                 for cid, role in refs]
        place = {}
        for cid in d.classical_ids():
            o, u = slot[(cid, OVER)], slot[(cid, UNDER)]
            place[cid] = (component[o], o, component[u], u)
        index = passage_index(d)
        assert index.span == {ci: (ends[ci - 1], ends[ci]) for ci in range(1, len(ends))}
        assert index.place == place
        assert index.plus == sum(1 << s for s, k in enumerate(count) if k == 1)
        assert index.minus == sum(1 << s for s, k in enumerate(count) if k == -1)


def test_passage_index_memory_is_linear():
    # Two bitsets of N bits and one entry per crossing: about 1.2 MiB at
    # 6400 crossings, where a table of N^2/8 bytes took 22.4 MiB.
    d = random_diagram(1, 2, 2, 6400)
    tracemalloc.start()
    try:
        passage_index(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("seed", range(3))
def test_oracle_on_400_crossings(seed):
    d = random_diagram(seed, seed % 3, 1 + seed % 2, 400)
    assert check_prop2(d).ok
    assert maip_via_homology(d) == maip(d)


def _homology_lines(d):
    """Line events run in homology.py while check_prop2 and maip_via_homology run on d."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == homology.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        check_prop2(d)
        maip_via_homology(d)
    finally:
        sys.settrace(previous)
    return lines


def test_oracle_runs_linear_python_work():
    # The pairing's O(N^2/64) work is big-int operations, which run no
    # line; the Python lines are linear: 20990 at 400 crossings and 41888
    # at 800.  A pairing that looped over its class's slots took 3.4-3.6 s
    # at 12800 crossings, inside CI's timeout, so the lines are counted.
    small, large = (_homology_lines(random_diagram(1, 2, 2, n)) for n in (400, 800))
    assert large <= 2.5 * small


# ---------------------------------------------------------------------------
# smoothing classes


def test_self_smoothing_slices(kink):
    assert smoothing(passage_index(kink), 1) == ((0, 0), (2, 2))
    assert refs_of(kink, smoothing(passage_index(kink), 1)) == set()


def test_self_smoothing_keeps_basepoint_half():
    d = parse("tangle m=0 n=0\ncomponent 1 closed : O2+ O1+ U1+ U2+\n")
    class_ = smoothing(passage_index(d), 1)
    assert class_ == ((0, 1), (3, 4))
    assert refs_of(d, class_) == {(2, OVER), (2, UNDER)}


def test_mixed_smoothing_slices(ex3):
    index = passage_index(ex3)
    assert refs_of(ex3, smoothing(index, 1)) == {(2, UNDER)}
    assert refs_of(ex3, smoothing(index, 2)) == set()


def test_slices_partition_all_other_passages():
    """The class and its complement partition the passages of the other crossings.

    That holds exactly when the class avoids the smoothed crossing's own
    two slots and its two ranges are disjoint, which is what lets
    :func:`pairing` read the complement as "not in the class".
    """
    for seed in range(20):
        d = random_diagram(seed, 1, 2, 7, n_singular=seed % 3)
        index = passage_index(d)
        n = len(slot_refs(d))
        for cid in d.classical_ids():
            _, o, _, u = index.place[cid]
            (a, b), (c, e) = smoothing(index, cid)
            assert 0 <= a <= b <= n and 0 <= c <= e <= n
            assert b <= c or e <= a
            slots = set(range(a, b)) | set(range(c, e))
            assert not slots & {o, u}
            assert refs_of(d, ((a, b), (c, e))) <= all_refs(d) - {(cid, OVER), (cid, UNDER)}


# ---------------------------------------------------------------------------
# homological weights


def test_homological_weights_ex3(ex3):
    # W_h = c_i - c_j + the pairing: c1 - c3 - 1 at crossing 1 and c2 - c3 at 2
    index = passage_index(ex3)
    assert [index.place[cid][::2] for cid in (1, 2)] == [(1, 3), (2, 3)]
    weights = [homological_weight(index, cid) for cid in (1, 2)]
    assert weights == [-1, 0]
    assert all(type(w) is int for w in weights)


def test_homological_weight_kink(kink):
    weight = homological_weight(passage_index(kink), 1)
    assert weight == 0 and type(weight) is int


def test_homological_weight_requires_classical(singular):
    index = passage_index(singular)
    for cid in (1, 2):  # singular, and no crossing at all
        with pytest.raises(ValueError, match=rf"^crossing {cid} is not a classical crossing$"):
            homological_weight(index, cid)


def test_early_undercrossing_flag():
    # Crossing 1 is met Under-first and crossing 2 Over-first.  Both pair
    # to 1 against delta_1 = 0, so each row's k shows which rule it took:
    # delta_1 - pairing = -1 for crossing 1, pairing - delta_1 = 1 for 2.
    d = parse("tangle m=0 n=0\ncomponent 1 closed : U1+ O2+ O1+ U2+\n")
    assert propagate_labels(d).delta == {1: 0}
    report = check_prop2(d)
    assert report.ok
    assert report.predicted == ((1, 1, 1, 1, -1), (2, 1, 1, 1, 1))


def test_prop2_ex3(ex3):
    assert check_prop2(ex3).ok


def test_prop2_checks_the_weights_the_polynomial_uses(ex3, monkeypatch):
    def shifted(d, labeling):
        table = weight_table(d, labeling)
        return {cid: (sign, i, j, k + 1) for cid, (sign, i, j, k) in table.items()}

    monkeypatch.setattr(homology, "weight_table", shifted)
    assert not check_prop2(ex3).ok


def test_prop2_checks_the_components_of_each_record(ex3, monkeypatch):
    # Swap the over and under components of the first mixed crossing and
    # keep its k: a comparison that read k alone would still pass.
    table = weight_table(ex3, propagate_labels(ex3))
    cid = next(cid for cid, (_, i, j, _) in table.items() if i != j)

    def swapped(d, labeling):
        table = weight_table(d, labeling)
        sign, i, j, k = table[cid]
        return {**table, cid: (sign, j, i, k)}

    monkeypatch.setattr(homology, "weight_table", swapped)
    report = check_prop2(ex3)
    assert list(report.failed) == [cid]
    (entry,) = report.failures()
    assert entry["id"] == cid
    assert entry["weight"] == str(aff(-1, c1=-1, c3=1))
    assert entry["expected"] == str(aff(-1, c1=1, c3=-1))


def test_prop2_kink_early_overcrossing(kink):
    report = check_prop2(kink)
    assert report.ok
    _, o, _, u = passage_index(kink).place[1]
    assert o < u
    # met Over-first, so k = pairing - delta_1 = 0 - 0, and W = 0
    assert propagate_labels(kink).delta == {1: 0}
    assert report.predicted == ((1, 1, 1, 0, 0),)
    assert report.table[1][1:] == (1, 1, 0)


def test_prop2_early_undercrossing_sign():
    # Crossing 3 is a self-crossing of component 2 met Under-first, with
    # pairing -1 and delta_2 = -2.
    d = parse("tangle m=1 n=1\ncomponent 1 closed : O1- O2-\n"
              "component 2 long from B1 to T1 : U3- U1- O3- U2-\n")
    report = check_prop2(d)
    assert report.ok
    assert propagate_labels(d).delta == {1: 2, 2: -2}
    # a self-crossing's W_h is its pairing, so W = -(W_h - delta_2) is
    # delta_2 - W_h = -1, where pairing - delta_2 would be 1
    assert homological_weight(passage_index(d), 3) == -1
    assert report.predicted[2] == (3, 2, 2, -1, -1)
    assert report.table[3][1:] == (2, 2, -1)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_prop2_random(seed):
    d = random_diagram(seed, seed % 3, 1 + seed % 2, seed % 13)
    report = check_prop2(d)
    assert report.ok, report.failures()


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_corollary_random(seed):
    d = random_diagram(seed, seed % 2, 1 + seed % 3, seed % 13)
    assert maip_via_homology(d) == maip(d)


# ---------------------------------------------------------------------------
# the integer rows against the per-crossing exponent route


FAILURE_KEYS = ["id", "weight", "homological", "expected"]


def reference_prop2(d, table):
    """Prop 2 checked crossing by crossing on exponents, kept as the reference.

    Each crossing's table weight, W_h = c_i - c_j + pairing and predicted
    weight are built as exponents and compared with their own equality.
    Returns the rows (cid, i, j, pairing, k) and the failure record of
    each crossing that disagrees.
    """
    delta = propagate_labels(d).delta
    index = passage_index(d)
    rows, failures = [], []
    for cid in d.classical_ids():
        ci, o, cj, u = index.place[cid]
        pairing = homological_weight(index, cid)
        early_under = ci == cj and u < o
        k = delta[cj] - pairing if early_under else pairing - delta[cj]
        rows.append((cid, ci, cj, pairing, k))
        wh = affine_weight(ci, cj, pairing)
        expected = affine_weight(ci, cj, k)
        weight = affine_weight(*table[cid][1:])
        if weight != expected:
            failures.append(dict(zip(FAILURE_KEYS, (cid, str(weight), str(wh), str(expected)))))
    return rows, failures


def planted(table, fault, chosen, n_components):
    """``table`` with ``fault`` planted in the records of the crossings in ``chosen``.

    "k+1" shifts k and "swap" exchanges i and j.  On a self-crossing
    "move" puts both strands on the next component and "split" only the
    under strand; "join" puts a mixed crossing's under strand on its
    over strand's component.
    """
    out = dict(table)
    for cid in chosen:
        sign, i, j, k = table[cid]
        nxt = i % n_components + 1
        if fault == "k+1":
            out[cid] = (sign, i, j, k + 1)
        elif fault == "swap":
            out[cid] = (sign, j, i, k)
        elif fault == "move" and i == j:
            out[cid] = (sign, nxt, nxt, k)
        elif fault == "split" and i == j:
            out[cid] = (sign, i, nxt, k)
        elif fault == "join" and i != j:
            out[cid] = (sign, i, i, k)
    return out


# 0-2 closed and 1-2 long components, 0-12 classical crossings
classical_diagrams = st.builds(random_diagram, st.integers(0, 10**6), st.integers(0, 2),
                               st.integers(1, 2), st.integers(0, 12))

# The classical draws among 20 large ones: seven diagrams of 213-293
# crossings on 1-3 components, each with Under-first self-crossings, so
# every mask spans many machine words.
large_classical_diagrams = [d for d in large_diagrams(20, seed=0) if not d.has_singular()]


@given(st.one_of(classical_diagrams, st.sampled_from(large_classical_diagrams)),
       st.sampled_from(["clean", "k+1", "swap", "move", "split", "join"]),
       st.integers(0, 2**12 - 1))
@settings(max_examples=200, deadline=None)
def test_prop2_rows_equal_the_exponent_route(d, fault, mask):
    ids = d.classical_ids()
    table = planted(weight_table(d, propagate_labels(d)), fault,
                    [cid for n, cid in enumerate(ids) if mask >> n & 1], len(d.components))
    with mock.patch.object(homology, "weight_table", lambda *_: table):
        report = check_prop2(d)
    rows, failures = reference_prop2(d, table)
    assert report.predicted == tuple(rows)
    assert report.ok == (not failures)
    assert list(report.failed) == [f["id"] for f in failures]
    assert report.failures() == failures
    assert all(list(f) == FAILURE_KEYS for f in report.failures())
    assert len(report.predicted) == len(ids)


def test_prop2_constant_exponents_agree_whatever_their_component():
    # A self-crossing's weight is a constant, so a record that puts it on
    # another component, still as a self-crossing, has the same weight.
    d = parse("tangle m=0 n=0\ncomponent 1 closed : O1+ U1+ O2+\ncomponent 2 closed : U2+\n")
    table = weight_table(d, propagate_labels(d))
    assert table[1][1:3] == (1, 1)
    moved = planted(table, "move", [1], 2)
    assert moved[1][1:3] == (2, 2)
    with mock.patch.object(homology, "weight_table", lambda *_: moved):
        report = check_prop2(d)
    assert report.ok
    assert reference_prop2(d, moved) == (list(report.predicted), [])
    cid, i, j, pairing, k = report.predicted[0]
    assert (cid, i, j) == (1, 1, 1) and pairing == homological_weight(passage_index(d), 1)
    assert affine_weight(*moved[cid][1:]) == affine_weight(i, j, k) == AffineInt(0)


def test_passing_prop2_builds_no_exponent_of_its_own(monkeypatch):
    # From the passage index to the verdict and the polynomial's keys the
    # oracle works in integers: a passing check builds no AffineInt at all.
    d = random_diagram(5, 1, 2, 60)
    direct = maip(d)
    calls = []
    new = AffineInt.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(AffineInt, "__new__", counted)
    report = check_prop2(d)
    assert report.ok and report.failures() == []
    homological = maip_via_homology(d)
    assert calls == []
    AffineInt(1)    # the counter sees a direct construction
    assert calls == [(1,)]
    monkeypatch.undo()
    assert homological == direct


def test_corollary_reads_no_labeling(monkeypatch):
    subjects = [random_diagram(seed, seed % 3, 1 + seed % 2, seed % 13) for seed in range(60)]
    subjects += [random_diagram(seed, 2, 2, 200) for seed in range(3)]
    expected = [maip(d) for d in subjects]

    def refused(d):
        raise AssertionError("the corollary oracle read the labeling")

    monkeypatch.setattr(homology, "propagate_labels", refused)
    monkeypatch.setattr(invariant, "propagate_labels", refused)
    assert [maip_via_homology(d) for d in subjects] == expected


def test_corollary_ex3(ex3):
    assert maip_via_homology(ex3) == maip(ex3)


def test_corollary_crossing_free():
    d = random_diagram(2, 1, 1, 0)
    assert not maip_via_homology(d)


# ---------------------------------------------------------------------------
# the prop2 and corollary suites' failure records


def test_prop2_suite_reports_weights_off_by_one(monkeypatch):
    def off_by_one(d):
        report = check_prop2(d)
        return Prop2Report({cid: (sign, i, j, k + 1) for cid, (sign, i, j, k) in report.table.items()},
                           report.predicted)

    monkeypatch.setattr(checks, "check_prop2", off_by_one)
    report = checks.check_prop2_suite(30, 7)
    assert len(report.failures) == 28, report.summary()
    assert_failure_lines(report, ["trial", "seed", "diagram", "crossings"])
    (entry, *_) = report.failures[0]["crossings"]
    assert list(entry) == ["id", "weight", "homological", "expected"]
    assert entry["weight"] != entry["expected"]


def test_corollary_suite_reports_a_doubled_reassembly(monkeypatch):
    monkeypatch.setattr(checks, "maip_via_homology", lambda d: 2 * maip_via_homology(d))
    report = checks.check_corollary_suite(30, 7)
    assert len(report.failures) == 24, report.summary()
    assert_failure_lines(report, ["trial", "seed", "diagram", "direct", "homological"])
