from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maip import homology
from maip.algebra import AffineInt
from maip.diagram import OVER, UNDER, parse, random_diagram
from maip.errors import NotClassical
from maip.homology import (check_prop2, homological_weight, maip_via_homology,
                           pairing, smoothing)
from maip.invariant import maip, propagate_labels, weight_table

from conftest import aff


def all_refs(d):
    return {(ev.crossing, ev.role) for comp in d.components for ev in comp.events}


# ---------------------------------------------------------------------------
# the pairing


def test_pairing_empty_slice(ex3):
    assert pairing(frozenset(), ex3) == 0


def test_pairing_hand_traced_slice(ex3):
    # smoothing crossing 1 of the three-strand example leaves {U2-} against {O2-}
    assert pairing(frozenset({(2, UNDER)}), ex3) == -1


def test_pairing_whole_diagram_slice(ex3):
    assert pairing(frozenset(all_refs(ex3)), ex3) == 0


def test_pairing_antisymmetric_under_swap():
    for seed in range(25):
        d = random_diagram(seed, 1, 2, 6)
        refs = [(ev.crossing, ev.role) for comp in d.components for ev in comp.events]
        half = frozenset(refs[: len(refs) // 2])
        rest = frozenset(refs[len(refs) // 2:])
        assert pairing(half, d) == -pairing(rest, d)


def test_pairing_equals_label_increment_sum():
    """Straddling contributions telescope to the slice's total label change."""
    increments = {OVER: lambda s: -s, UNDER: lambda s: s}
    for seed in range(25):
        d = random_diagram(seed, 2, 1, 8)
        refs = [(ev.crossing, ev.role) for comp in d.components for ev in comp.events]
        half = frozenset(refs[::2])
        total = sum(increments[role](d.sign(cid)) for cid, role in half)
        assert pairing(half, d) == total


def two_set_pairing(rest, slice_, d):
    """The pairing of a slice against an explicit complement, kept as the reference."""
    total = 0
    for cid in d.classical_ids():
        over, under = (cid, OVER), (cid, UNDER)
        in_slice = (over in slice_, under in slice_)
        if in_slice == (True, False) and under in rest:
            total -= d.sign(cid)
        elif in_slice == (False, True) and over in rest:
            total += d.sign(cid)
    return total


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 12), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_pairing_over_the_class_equals_the_two_set_pairing(seed, n_closed, n_long,
                                                            n_crossings, n_singular):
    if n_closed + n_long == 0:
        n_long = 1
    d = random_diagram(seed, n_closed, n_long, n_crossings, n_singular)
    refs = all_refs(d)
    positions = d.passage_positions()
    for cid in d.classical_ids():
        class_ = smoothing(d, cid, positions)
        rest = refs - class_ - {(cid, OVER), (cid, UNDER)}
        assert pairing(class_, d) == two_set_pairing(rest, class_, d)


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 12), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_pairing_of_a_smoothing_is_its_class_increment_sum(seed, n_closed, n_long,
                                                          n_crossings, n_singular):
    """The pairing lemma that Prop 2 telescopes from (see the homology docstring)."""
    if n_closed + n_long == 0:
        n_long = 1
    d = random_diagram(seed, n_closed, n_long, n_crossings, n_singular)
    increment = {OVER: -1, UNDER: 1}  # times the sign; singular passages are left out
    positions = d.passage_positions()
    for cid in d.classical_ids():
        class_ = smoothing(d, cid, positions)
        total = sum(increment[role] * d.sign(c) for c, role in class_ if role in increment)
        assert pairing(class_, d) == total


# ---------------------------------------------------------------------------
# smoothing classes


def test_self_smoothing_slices(kink):
    assert smoothing(kink, 1, kink.passage_positions()) == frozenset()


def test_self_smoothing_keeps_basepoint_half():
    d = parse("tangle m=0 n=0\ncomponent 1 closed : O2+ O1+ U1+ U2+\n")
    assert smoothing(d, 1, d.passage_positions()) == frozenset({(2, OVER), (2, UNDER)})


def test_mixed_smoothing_slices(ex3):
    positions = ex3.passage_positions()
    assert smoothing(ex3, 1, positions) == frozenset({(2, UNDER)})
    assert smoothing(ex3, 2, positions) == frozenset()


def test_slices_partition_all_other_passages():
    """The class and its complement partition the passages of the other crossings.

    That holds exactly when the class avoids the smoothed crossing's own
    two passages and draws only on the others, which is what lets
    :func:`pairing` read the complement as "not in the class".
    """
    for seed in range(20):
        d = random_diagram(seed, 1, 2, 7, n_singular=seed % 3)
        refs = all_refs(d)
        positions = d.passage_positions()
        for cid in d.classical_ids():
            own = {(cid, OVER), (cid, UNDER)}
            class_ = smoothing(d, cid, positions)
            assert not (class_ & own)
            assert class_ <= refs - own


# ---------------------------------------------------------------------------
# homological weights


def test_homological_weights_ex3(ex3):
    positions = ex3.passage_positions()
    assert homological_weight(ex3, 1, positions) == aff(-1, c1=1, c3=-1)
    assert homological_weight(ex3, 2, positions) == aff(0, c2=1, c3=-1)


def test_homological_weight_kink(kink):
    assert homological_weight(kink, 1, kink.passage_positions()) == AffineInt(0)


def test_homological_weight_requires_classical(singular):
    with pytest.raises(NotClassical):
        homological_weight(singular, 1, singular.passage_positions())


def test_early_undercrossing_flag():
    d = parse("tangle m=0 n=0\ncomponent 1 closed : U1+ O1+\n")
    assert check_prop2(d).entries[0].early_under
    e = parse("tangle m=0 n=0\ncomponent 1 closed : O1+ U1+\n")
    assert not check_prop2(e).entries[0].early_under


def test_prop2_ex3(ex3):
    assert check_prop2(ex3).ok


def test_prop2_checks_the_weights_the_polynomial_uses(ex3, monkeypatch):
    def shifted(d, labeling):
        table = weight_table(d, labeling)
        return {cid: replace(rec, k=rec.k + 1) for cid, rec in table.items()}

    monkeypatch.setattr(homology, "weight_table", shifted)
    assert not check_prop2(ex3).ok


def test_prop2_kink_early_overcrossing(kink):
    report = check_prop2(kink)
    assert report.ok
    entry = report.entries[0]
    assert entry.weight == AffineInt(0)
    assert entry.homological == AffineInt(0)
    assert not entry.early_under


def test_prop2_early_undercrossing_sign():
    d = parse("tangle m=0 n=0\ncomponent 1 closed : U1+ O2+ U2+ O1+\n")
    report = check_prop2(d)
    assert report.ok
    by_id = {e.crossing: e for e in report.entries}
    assert by_id[1].early_under
    lab = propagate_labels(d)
    assert by_id[1].weight == -(by_id[1].homological - AffineInt(lab.delta[1]))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_prop2_random(seed):
    d = random_diagram(seed, seed % 3, 1 + seed % 2, seed % 13)
    report = check_prop2(d)
    assert report.ok, [str(e.weight) for e in report.failures()]


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_corollary_random(seed):
    d = random_diagram(seed, seed % 2, 1 + seed % 3, seed % 13)
    assert maip_via_homology(d) == maip(d)


def test_corollary_ex3(ex3):
    assert maip_via_homology(ex3) == maip(ex3)


def test_corollary_crossing_free():
    d = random_diagram(2, 1, 1, 0)
    assert maip_via_homology(d).is_zero()
