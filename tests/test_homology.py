from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maip import homology
from maip.algebra import AffineInt
from maip.diagram import OVER, UNDER, parse, random_diagram
from maip.errors import NotClassical
from maip.homology import (check_prop2, homological_weight, maip_via_homology,
                           pairing, smooth_mixed_crossing, smooth_self_crossing)
from maip.invariant import maip, propagate_labels, weight_table


def aff(const=0, **coeffs):
    return AffineInt.of(const, {int(k[1:]): v for k, v in coeffs.items()})


# ---------------------------------------------------------------------------
# the pairing


def test_pairing_empty_slice(ex3):
    assert pairing(frozenset({(1, OVER), (1, UNDER)}), frozenset(), ex3) == 0


def test_pairing_hand_traced_slice(ex3):
    # smoothing crossing 1 of the three-strand example leaves {U2-} against {O2-}
    assert pairing(frozenset({(2, OVER)}), frozenset({(2, UNDER)}), ex3) == -1


def test_pairing_whole_diagram_slice(ex3):
    everything = frozenset((ev.crossing, ev.role)
                           for comp in ex3.components for ev in comp.events)
    assert pairing(frozenset(), everything, ex3) == 0


def test_pairing_antisymmetric_under_swap():
    for seed in range(25):
        d = random_diagram(seed, 1, 2, 6)
        refs = [(ev.crossing, ev.role) for comp in d.components for ev in comp.events]
        half = frozenset(refs[: len(refs) // 2])
        rest = frozenset(refs[len(refs) // 2:])
        assert pairing(rest, half, d) == -pairing(half, rest, d)


def test_pairing_equals_label_increment_sum():
    """Straddling contributions telescope to the slice's total label change."""
    increments = {OVER: lambda s: -s, UNDER: lambda s: s}
    for seed in range(25):
        d = random_diagram(seed, 2, 1, 8)
        refs = [(ev.crossing, ev.role) for comp in d.components for ev in comp.events]
        half = frozenset(refs[::2])
        rest = frozenset(refs[1::2])
        total = sum(increments[role](d.sign(cid)) for cid, role in half)
        assert pairing(rest, half, d) == total


# ---------------------------------------------------------------------------
# smoothing slices


def test_self_smoothing_slices(kink):
    sl = smooth_self_crossing(kink, 1)
    assert sl.slice == frozenset() and sl.rest == frozenset()


def test_self_smoothing_keeps_basepoint_half():
    d = parse("tangle m=0 n=0\ncomponent 1 closed : O2+ O1+ U1+ U2+\n")
    sl = smooth_self_crossing(d, 1)
    assert sl.slice == frozenset({(2, OVER), (2, UNDER)})
    assert sl.rest == frozenset()


def test_mixed_smoothing_slices(ex3):
    sl = smooth_mixed_crossing(ex3, 1)
    assert sl.slice == frozenset({(2, UNDER)})
    assert sl.rest == frozenset({(2, OVER)})
    sl2 = smooth_mixed_crossing(ex3, 2)
    assert sl2.slice == frozenset()
    assert sl2.rest == frozenset({(1, OVER), (1, UNDER)})


def test_slices_partition_all_other_passages():
    for seed in range(20):
        d = random_diagram(seed, 1, 2, 7)
        refs = {(ev.crossing, ev.role) for comp in d.components for ev in comp.events}
        positions = d.passage_positions()
        for cid in d.classical_ids():
            ci, _ = positions[(cid, OVER)]
            cj, _ = positions[(cid, UNDER)]
            sl = (smooth_self_crossing(d, cid) if ci == cj
                  else smooth_mixed_crossing(d, cid))
            assert sl.slice | sl.rest == refs - {(cid, OVER), (cid, UNDER)}
            assert not (sl.slice & sl.rest)


# ---------------------------------------------------------------------------
# homological weights


def test_homological_weights_ex3(ex3):
    assert homological_weight(ex3, 1) == aff(-1, c1=1, c3=-1)
    assert homological_weight(ex3, 2) == aff(0, c2=1, c3=-1)


def test_homological_weight_kink(kink):
    assert homological_weight(kink, 1) == AffineInt(0)


def test_homological_weight_requires_classical(singular):
    with pytest.raises(NotClassical):
        homological_weight(singular, 1)


def test_early_undercrossing_flag():
    d = parse("tangle m=0 n=0\ncomponent 1 closed : U1+ O1+\n")
    assert check_prop2(d).entries[0].early_under
    e = parse("tangle m=0 n=0\ncomponent 1 closed : O1+ U1+\n")
    assert not check_prop2(e).entries[0].early_under


def test_prop2_ex3(ex3):
    assert check_prop2(ex3).ok


def test_prop2_checks_the_weights_the_polynomial_uses(ex3, monkeypatch):
    def shifted(d, labeling=None):
        table = weight_table(d, labeling)
        return {cid: replace(rec, weight=rec.weight + 1) for cid, rec in table.items()}

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
