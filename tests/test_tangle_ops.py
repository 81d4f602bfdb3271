from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maip import checks
from maip.algebra import AffineInt, LaurentPoly, reindex
from maip.checks import random_composable_pair
from maip.diagram import (Component, Passage, TangleDiagram, parse, random_diagram,
                          serialize, validate)
from maip.errors import ArityMismatch, OrientationMismatch
from maip.invariant import maip, propagate_labels, structured_maip
from maip.tangle_ops import GluePlan, PlanEntry, compose, cut, predict_composed, tensor
from maip.words import Identity, from_generator_word

from conftest import aff, const, flip_every_sign, mono, sym


def empty_tangle():
    return TangleDiagram(0, 0, (), {})


def identity_word_for_top(slot_roles):
    """One identity row matching a boundary: "start" slots flow downward."""
    atoms = tuple(Identity("d" if role == "start" else "u") for role in slot_roles)
    return (atoms,)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_with_empty(ex3):
    assert tensor(empty_tangle(), ex3) == ex3
    assert tensor(ex3, empty_tangle()) == ex3


def test_tensor_boundary_arities(ex2, ex3):
    t = tensor(ex3, ex2)
    assert (t.m, t.n) == (2 + 4, 4 + 2)
    assert validate(t) == []


def test_tensor_additivity(ex2, ex3):
    t = tensor(ex3, ex2)
    shift = {i: i + 3 for i in (1, 2, 3)}
    assert maip(t) == maip(ex3) + reindex(maip(ex2), shift)


def test_tensor_self(ex3):
    t = tensor(ex3, ex3)
    shift = {i: i + 3 for i in (1, 2, 3)}
    assert maip(t) == maip(ex3) + reindex(maip(ex3), shift)


@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(0, 2), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_tensor_additivity_with_closed_components_on_both_sides(seed, n_closed, n_long, n):
    a = random_diagram(seed, n_closed, n_long, n)
    b = random_diagram(seed + 1, 1 + seed % 2, seed % 3, seed % 9)
    t = tensor(a, b)
    assert validate(t) == [], serialize(t)
    shift = {i: i + len(a.components) for i in range(1, len(b.components) + 1)}
    assert maip(t) == maip(a) + reindex(maip(b), shift)


# ---------------------------------------------------------------------------
# compose


def test_compose_matches_published_composite(ex2, ex3, ex4):
    composite = compose(ex3, ex2)
    assert composite == ex4
    assert validate(composite) == []
    expected = (const(1)
                + mono(1, aff(-1, c1=1, c2=-1)) + mono(1, aff(0, c1=1, c2=-1), -1)
                + mono(2, -1, -1) + mono(2, 1, -1) + mono(2, aff(0, c1=-1, c2=1)))
    assert maip(composite) == expected


def test_composite_matches_closed_version_after_renaming(ex1, ex2, ex3):
    # closing the composite's two long components gives the two-loop diagram,
    # whose components are numbered the other way around
    swap = {1: 2, 2: 1}
    assert maip(ex1) == reindex(maip(compose(ex3, ex2)), swap)


def _identity_over(d):
    roles = [d.slot_map()[f"T{k}"][1] for k in range(1, d.m + 1)]
    return from_generator_word(identity_word_for_top(roles))


def test_compose_identity_is_identity(ex3):
    assert compose(_identity_over(ex3), ex3) == ex3


def test_compose_arity_mismatch(ex3):
    with pytest.raises(ArityMismatch):
        compose(ex3, ex3)


def test_compose_orientation_mismatch():
    upper = parse("tangle m=1 n=1\ncomponent 1 long from B1 to T1 :\n")
    lower = parse("tangle m=1 n=1\ncomponent 1 long from T1 to B1 :\n")
    with pytest.raises(OrientationMismatch):
        compose(upper, lower)


def test_compose_cycle_closes_into_kink(kink):
    upper = parse("tangle m=0 n=2\ncomponent 1 long from B1 to B2 : O1+ U1+\n")
    lower = parse("tangle m=2 n=0\ncomponent 1 long from T2 to T1 :\n")
    composite = compose(upper, lower)
    assert composite == kink
    plan = GluePlan.from_tangles(upper, lower)
    assert [e.kind for e in plan.entries] == ["cycle"]


def test_compose_carries_closed_components():
    upper = parse("tangle m=1 n=1\n"
                  "component 1 long from T1 to B1 :\n"
                  "component 2 closed : O1+ U1+\n")
    lower = parse("tangle m=1 n=1\ncomponent 1 long from T1 to B1 :\n")
    composite = compose(upper, lower)
    assert [c.kind for c in composite.components] == ["long", "closed"]
    assert len(composite.components[1].events) == 2


# ---------------------------------------------------------------------------
# cut


def test_cut_bases_a_closed_component_on_an_upper_piece(kink):
    upper, lower = cut(kink, set())
    assert serialize(upper) == "tangle m=0 n=2\ncomponent 1 long from B2 to B1 :\n"
    assert serialize(lower) == "tangle m=2 n=0\ncomponent 1 long from T1 to T2 : O1+ U1+\n"
    assert compose(upper, lower) == kink


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(1, 2), st.integers(0, 8),
       st.integers(0, 2), st.sampled_from(("random", "none", "all")))
@settings(max_examples=150, deadline=None)
def test_cut_then_compose_gives_the_diagram_back(seed, n_closed, n_long, n_classical,
                                                 n_singular, subset):
    d = random_diagram(seed, n_closed, n_long, n_classical, n_singular)
    upper_ids = {"random": {cid for cid in d.crossings if (seed >> cid) & 1},
                 "none": set(), "all": set(d.crossings)}[subset]
    upper, lower = cut(d, upper_ids)
    assert validate(upper) == validate(lower) == []
    assert set(upper.crossings) == upper_ids
    composite = compose(upper, lower)
    # tensor shifts the lower crossing ids past the upper ones
    shift = max(upper.crossings, default=0)

    def unshift(cid):
        return cid - shift if cid > shift else cid

    components = [Component(c.kind, tuple(Passage(unshift(ev.crossing), ev.role)
                                          for ev in c.events), c.start, c.end)
                  for c in composite.components]
    assert Counter(components) == Counter(d.components)
    assert {unshift(cid): rec for cid, rec in composite.crossings.items()} == d.crossings
    assert (composite.m, composite.n) == (d.m, d.n)


# ---------------------------------------------------------------------------
# prediction


def test_predict_reproduces_published_composition(ex2, ex3):
    plan = GluePlan.from_tangles(ex3, ex2)
    assert [e.members for e in plan.entries] == [(1, 5, 2), (4, 3, 6)]
    predicted = predict_composed(structured_maip(ex3), structured_maip(ex2), plan)
    assert predicted == maip(compose(ex3, ex2))


def test_predict_identity_composition(ex3):
    identity = _identity_over(ex3)
    plan = GluePlan.from_tangles(identity, ex3)
    predicted = predict_composed(structured_maip(identity), structured_maip(ex3), plan)
    assert predicted == maip(ex3)


def test_predict_covers_cycles(kink):
    upper = parse("tangle m=0 n=2\ncomponent 1 long from B1 to B2 : O1+ U1+\n")
    lower = parse("tangle m=2 n=0\ncomponent 1 long from T2 to T1 :\n")
    plan = GluePlan.from_tangles(upper, lower)
    predicted = predict_composed(structured_maip(upper), structured_maip(lower), plan)
    assert predicted == maip(kink)


def test_predict_rejects_unknown_component(ex3):
    plan = GluePlan((PlanEntry("chain", (1, 9)),))
    with pytest.raises(ValueError, match=r"^plan references unknown component 9$"):
        predict_composed(structured_maip(ex3), structured_maip(ex3), plan)


def test_predict_merges_deltas_along_chains(ex2, ex3):
    plan = GluePlan.from_tangles(ex3, ex2)
    delta = propagate_labels(tensor(ex3, ex2)).delta
    merged = {idx: sum(delta[i] for i in entry.members)
              for idx, entry in enumerate(plan.entries, start=1)}
    composite_delta = propagate_labels(compose(ex3, ex2)).delta
    assert composite_delta == merged == {1: 1, 2: -1}


def substituted_prediction(upper, lower, plan):
    """The prediction by symbol substitution, in the reference arithmetic.

    Each piece's start symbol is replaced by its composite start symbol
    plus the index differences of the members before it, inside each
    record's full weight k + c_over - c_under; the terms are then summed
    one by one.
    """
    factors = ((0, upper), (len(upper.delta), lower))
    delta = {shift + ci: step for shift, f in factors for ci, step in f.delta.items()}
    label, var, merged = {}, {}, {}
    for new_index, entry in enumerate(plan.entries, start=1):
        start = sym(new_index)
        for i in entry.members:
            label[i], var[i] = start, new_index
            start = start + delta[i]
        merged[new_index] = sum(delta[i] for i in entry.members)
    terms = Counter()
    for shift, factor in factors:
        for rec in factor.records:
            sign, over, under, k = rec
            substituted = label[shift + over] - label[shift + under] + k
            i, shift_j = var[shift + over], merged[var[shift + under]]
            terms[(i, (substituted + shift_j).exponent())] += sign
            terms[(i, AffineInt(shift_j))] -= sign
    return LaurentPoly(terms)


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(1, 2), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_predict_equals_the_substitution_route(seed, n_closed, n_long, n_classical):
    d = random_diagram(seed, n_closed, n_long, n_classical)
    upper, lower = cut(d, {cid for cid in d.crossings if (seed >> cid) & 1})
    plan = GluePlan.from_tangles(upper, lower)
    upper_records, lower_records = structured_maip(upper), structured_maip(lower)
    predicted = predict_composed(upper_records, lower_records, plan)
    assert predicted == substituted_prediction(upper_records, lower_records, plan)
    assert predicted == maip(compose(upper, lower))


def test_predict_on_random_pairs():
    cyclic = 0
    for trial in range(60):
        _d, upper, lower = random_composable_pair(0, trial)
        plan = GluePlan.from_tangles(upper, lower)
        cyclic += any(e.kind == "cycle" for e in plan.entries)
        direct = maip(compose(upper, lower))
        upper_records, lower_records = structured_maip(upper), structured_maip(lower)
        predicted = predict_composed(upper_records, lower_records, plan)
        assert predicted == direct, (serialize(upper), serialize(lower))
        assert predicted == substituted_prediction(upper_records, lower_records, plan)
    assert cyclic >= 20


def test_compose_associative_when_arities_permit():
    a = parse("tangle m=1 n=1\ncomponent 1 long from T1 to B1 : O1+ U1+\n")
    b = parse("tangle m=1 n=1\ncomponent 1 long from T1 to B1 : O1- U1-\n")
    c = parse("tangle m=1 n=1\ncomponent 1 long from T1 to B1 :\n")
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left == right
    assert maip(left) == maip(right)


# ---------------------------------------------------------------------------
# the compose suite's failure records


def failed_compose_trials(monkeypatch, name, planted):
    """The compose suite's failures at seed 7 over 40 trials, with checks.<name> planted."""
    monkeypatch.setattr(checks, name, planted)
    report = checks.check_compose_suite(40, 7)
    for failure in report.failures:
        assert list(failure) == ["trial", "seed", "diagram", "upper", "lower", "problems"]
    return report.failures


def test_compose_suite_reports_a_tensor_that_swaps_its_factors(monkeypatch):
    failures = failed_compose_trials(monkeypatch, "tensor", lambda a, b: tensor(b, a))
    assert len(failures) == 34
    assert all(f["problems"] == ["tensor additivity failed"] for f in failures)


def test_compose_suite_reports_a_cut_that_compose_does_not_undo(monkeypatch):
    def flipped_lower(d, upper_ids):
        upper, lower = cut(d, upper_ids)
        return upper, flip_every_sign(lower)

    failures = failed_compose_trials(monkeypatch, "cut", flipped_lower)
    assert len(failures) == 33
    assert all("compose(*cut(d)) is not d" in f["problems"] for f in failures)
