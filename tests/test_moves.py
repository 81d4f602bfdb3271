import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maip import checks
from maip.checks import check_moves
from maip.diagram import Passage, parse, random_diagram, serialize, validate
from maip.invariant import maip, propagate_labels, vassiliev_eval, weight_table
from maip.moves import (MOVE_KINDS, MoveSite, WalkState, apply_site, find_r1_delete_sites,
                        find_r2_delete_sites, find_r3_sites, find_sites, random_walk)
from maip.words import Crossing, Identity, from_generator_word

from conftest import flip_every_sign, reference_sites, weight

TWO_STRANDS = "tangle m=2 n=2\ncomponent 1 long from B1 to T1 :\ncomponent 2 long from B2 to T2 :\n"


def crossing_free_loop():
    return parse("tangle m=0 n=0\ncomponent 1 closed :\n")


# ---------------------------------------------------------------------------
# R1


def test_r1_insert_makes_kink(kink):
    d = apply_site(crossing_free_loop(), MoveSite("R1+", ((1, 0),), sign=1, order="over_first"))
    assert d == kink
    assert not maip(d)


def test_r1_round_trip(kink):
    sites = find_r1_delete_sites(kink)
    assert len(sites) == 1
    assert apply_site(kink, sites[0]) == crossing_free_loop()


def test_r1_orders():
    over_first, under_first = (
        apply_site(crossing_free_loop(), MoveSite("R1+", ((1, 0),), sign=-1, order=order))
        for order in ("over_first", "under_first"))
    assert [ev.role for ev in over_first.components[0].events] == ["O", "U"]
    assert [ev.role for ev in under_first.components[0].events] == ["U", "O"]
    for d in (over_first, under_first):
        assert not maip(d)
        assert validate(d) == []


def test_r1_delete_rejects_non_kink(ex3):
    with pytest.raises(ValueError, match=r"^not a site of this diagram: R1- 3:0$"):
        apply_site(ex3, MoveSite("R1-", ((3, 0),)))


def test_r1_no_wraparound_sites():
    # both passages adjacent only through the basepoint: not a removable kink
    d = parse("tangle m=0 n=0\ncomponent 1 closed : U1+ O2+ U2+ O1+\n")
    assert find_r1_delete_sites(d) == [MoveSite("R1-", ((1, 1),))]


# ---------------------------------------------------------------------------
# R2


def test_r2_insert_across_strands_cancels():
    base = parse(TWO_STRANDS)
    for same in (True, False):
        for sign in (1, -1):
            d = apply_site(base, MoveSite("R2+", ((1, 0), (2, 0)), sign=sign, same_direction=same))
            assert validate(d) == []
            assert len(d.classical_ids()) == 2
            assert not maip(d)
            w = weight_table(d, propagate_labels(d))
            assert weight(w[1]) == weight(w[2])


def test_r2_round_trip():
    base = parse(TWO_STRANDS)
    d = apply_site(base, MoveSite("R2+", ((1, 0), (2, 0)), sign=1, same_direction=True))
    sites = find_r2_delete_sites(d)
    assert len(sites) == 1
    assert apply_site(d, sites[0]) == base


def test_r2_same_component():
    base = crossing_free_loop()
    d = apply_site(base, MoveSite("R2+", ((1, 0), (1, 0)), sign=-1, same_direction=False))
    assert validate(d) == []
    assert not maip(d)
    sites = find_r2_delete_sites(d)
    assert sites and apply_site(d, sites[0]) == base


def test_r2_delete_rejects_same_sign_pair():
    d = parse("tangle m=2 n=2\n"
              "component 1 long from B1 to T1 : O1+ O2+\n"
              "component 2 long from B2 to T2 : U1+ U2+\n")
    assert find_r2_delete_sites(d) == []
    with pytest.raises(ValueError, match=r"^not a site of this diagram: R2- 1:0 2:0$"):
        apply_site(d, MoveSite("R2-", ((1, 0), (2, 0))))


# ---------------------------------------------------------------------------
# R3


def braid_r3_diagram():
    # three strands in the slide position, all crossings positive
    return parse(
        "tangle m=3 n=3\n"
        "component 1 long from B1 to T1 : O1+ O2+\n"
        "component 2 long from B2 to T2 : U1+ O3+\n"
        "component 3 long from B3 to T3 : U2+ U3+\n")


def test_r3_site_found_and_preserves():
    d = braid_r3_diagram()
    sites = find_r3_sites(d)
    assert sites
    moved = apply_site(d, sites[0])
    assert validate(moved) == []
    assert moved != d
    assert maip(moved) == maip(d)


def test_r3_involution():
    d = braid_r3_diagram()
    site = find_r3_sites(d)[0]
    assert apply_site(apply_site(d, site), site) == d


def test_r3_mixed_signs_not_offered():
    d = parse(
        "tangle m=3 n=3\n"
        "component 1 long from B1 to T1 : O1+ O2-\n"
        "component 2 long from B2 to T2 : U1+ O3+\n"
        "component 3 long from B3 to T3 : U2- U3+\n")
    assert find_r3_sites(d) == []


def test_r3_sites_on_crossing_free_diagram():
    assert find_r3_sites(crossing_free_loop()) == []
    assert find_r3_sites(parse(TWO_STRANDS)) == []


def test_r3_apply_rejects_bad_site():
    with pytest.raises(ValueError, match=r"^not a site of this diagram: R3 1:0 2:0 3:1$"):
        apply_site(braid_r3_diagram(), MoveSite("R3", ((1, 0), (2, 0), (3, 1))))


# ---------------------------------------------------------------------------
# one scan, one applier


@pytest.mark.parametrize("site", [
    MoveSite("R9", ((1, 0),)),
    MoveSite("R1-", ((0, 0),)),
    MoveSite("R1-", ((1, -1),)),
    MoveSite("R1-", ((1, 1),)),
    MoveSite("R3", ((1, 0),)),
], ids=["unknown-kind", "component-0", "offset-minus-1",
        "offset-at-end", "kink-labelled-r3"])
def test_apply_site_rejects_sites_the_scan_does_not_offer(kink, site):
    with pytest.raises(ValueError, match=rf"^not a site of this diagram: {re.escape(site.describe())}$"):
        apply_site(kink, site)


# The kink has one component with two passages: arc positions 1:0..1:2.
# Each bad anchor maps to the message it raises.
_BAD_ANCHORS = {"component-0": ((0, 0), r"no component 0"),
                "component-past-end": ((2, 0), r"no component 2"),
                "offset-minus-1": ((1, -1), r"arc position -1 out of range 0\.\.2"),
                "offset-past-end": ((1, 3), r"arc position 3 out of range 0\.\.2")}


@pytest.mark.parametrize("site, message", [
    *((MoveSite("R1+", (bad,), sign=1, order="over_first"), message)
      for bad, message in _BAD_ANCHORS.values()),
    *((MoveSite("R2+", (bad, (1, 1)), sign=1, same_direction=True), message)
      for bad, message in _BAD_ANCHORS.values()),
    *((MoveSite("R2+", ((1, 1), bad), sign=1, same_direction=True), message)
      for bad, message in _BAD_ANCHORS.values()),
    (MoveSite("R1+", ((1, 0), (1, 1)), sign=1, order="over_first"),
     r"wrong number of anchors: R1\+ 1:0 1:1 sign=\+ order=over_first"),
    (MoveSite("R2+", ((1, 0),), sign=1, same_direction=True),
     r"wrong number of anchors: R2\+ 1:0 sign=\+ same_direction=True"),
], ids=[*(f"{kind}-{name}" for kind in ("r1", "r2-first", "r2-second") for name in _BAD_ANCHORS),
        "r1-two-anchors", "r2-one-anchor"])
def test_apply_site_range_checks_insertion_anchors(kink, site, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_site(kink, site)


@pytest.mark.parametrize("site, message", [
    (MoveSite("R1+", ((1, 0),), sign=1, order="sideways"),
     "order must be 'over_first' or 'under_first'"),
    (MoveSite("R1+", ((1, 0),), sign=2, order="over_first"),
     r"crossing sign must be \+1 or -1, got 2"),
    (MoveSite("R2+", ((1, 0), (1, 1)), sign=0, same_direction=True),
     r"crossing sign must be \+1 or -1, got 0"),
    *((MoveSite("R2+", ((1, 0), (1, 1)), sign=1, same_direction=bad),
       "same_direction must be True or False") for bad in (None, 0, 1, "yes")),
], ids=["unknown-order", "r1-bad-sign", "r2-bad-sign",
        *(f"r2-same-direction-{bad!r}" for bad in (None, 0, 1, "yes"))])
def test_apply_site_rejects_bad_insertion_parameters(kink, site, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_site(kink, site)


def test_apply_site_rejects_a_kink_removed_twice(kink):
    (site,) = find_sites(kink)["R1-"]
    once = apply_site(kink, site)
    with pytest.raises(ValueError, match=r"^not a site of this diagram: R1- 1:0$"):
        apply_site(once, site)


def test_apply_site_places_only_the_kind_it_applies(monkeypatch):
    # A deletion or R3 site is checked against its own kind's list alone,
    # and an insertion against none.
    subjects = [braid_r3_diagram(), *(random_diagram(seed, 1, 2, 40) for seed in range(10))]
    offered = [(d, site) for d in subjects for found in find_sites(d).values() for site in found]
    assert {site.kind for _, site in offered} == {"R1-", "R2-", "R3"}
    placed = []
    place = WalkState._placed

    def counted(self, kind):
        placed.append(kind)
        return place(self, kind)

    monkeypatch.setattr(WalkState, "_placed", counted)
    for d, site in offered:
        placed.clear()
        apply_site(d, site)
        assert placed == [site.kind]
    placed.clear()
    apply_site(subjects[0], MoveSite("R1+", ((1, 0),), sign=1, order="over_first"))
    assert placed == []


def test_a_kind_with_no_sites_is_placed_without_a_pass(kink):
    state = WalkState(kink)
    assert not state.sites["R3"]
    state.lines = None    # a pass over the passage lists would fail
    assert state._placed("R3") == []


# The top pair (O1, O2) at 1:0 names both R3 candidates.
TWO_CHIRALITIES = parse("tangle m=1 n=1\n"
                        "component 1 long from B1 to T1 : O1+ O2+ U4+ U1+ O3+ O4+ U2+ U3+\n")


def test_r3_chiralities_of_one_top_pair_keep_their_order():
    # The walk's rng.choice reads this order, so a site index must keep it.
    assert [s.describe() for s in find_sites(TWO_CHIRALITIES)["R3"]] == [
        "R3 1:0 1:3 1:6", "R3 1:0 1:5 1:2", "R3 1:4 1:1 1:6"]


# ---------------------------------------------------------------------------
# the scan against its slow reference


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=60, deadline=None)
def test_scan_matches_reference_on_random_diagrams(seed):
    d = random_diagram(seed, seed % 3, 1 + seed % 3, seed % 15, n_singular=seed % 2)
    assert find_sites(d) == reference_sites(d)


def test_scan_matches_reference_at_the_ends_of_components():
    # After one R3 the mirror's middle pair (O3, U1) starts component 2.
    d = braid_r3_diagram()
    moved = apply_site(d, find_r3_sites(d)[0])
    loop = parse("tangle m=1 n=1\n"
                 "component 1 long from B1 to T1 : O1+ O2+ U4+ U1+ O3+ O4+ U2+ U3+\n")
    for diagram in (d, moved, loop):
        assert find_sites(diagram) == reference_sites(diagram)
        assert find_sites(diagram)["R3"]


def walk_states(d, n_moves, seed):
    """Each step of ``random_walk(d, n_moves, seed, log)`` as (site, state), from (None, start).

    The state is the one walk state the steps share, so read it before
    taking the next step.
    """
    rng = random.Random(seed)
    state = WalkState(d)
    yield None, state
    for _ in range(n_moves):
        site = state.draw(rng)
        if site is None:
            return
        state.apply(site)
        yield site, state


def _explicit_arcs(d):
    return [(ci, k) for ci, comp in enumerate(d.components, start=1)
            for k in range(len(comp.events) + 1)]


def reference_draw(d, rng):
    """The walk's next move on d: a kind, then a site from find_sites(d) or an explicit arc."""
    kinds = ["R1+", "R2+"] if d.components else []
    kinds += [kind for kind, found in find_sites(d).items() if found]
    if not kinds:
        return None
    kind = rng.choice(kinds)
    arcs = _explicit_arcs(d)
    if kind == "R1+":
        return MoveSite(kind, (rng.choice(arcs),), sign=rng.choice((1, -1)),
                        order=rng.choice(("over_first", "under_first")))
    if kind == "R2+":
        return MoveSite(kind, (rng.choice(arcs), rng.choice(arcs)),
                        sign=rng.choice((1, -1)), same_direction=rng.choice((True, False)))
    return rng.choice(find_sites(d)[kind])


def test_walk_states_take_the_steps_of_random_walk():
    d = random_diagram(3, 1, 2, 8, n_singular=1)
    log = []
    walked = random_walk(d, 40, 11, log)
    steps = list(walk_states(d, 40, 11))
    assert [site.describe() for site, _ in steps[1:]] == log
    assert steps[-1][1].diagram() == walked


def test_walk_step_retests_only_the_pairs_its_edit_can_reach(monkeypatch):
    # After the initial scan of 6396 pairs, a step hands the pair test at
    # most 11 pairs (4.7 on average) here.  A step that rescanned the whole
    # diagram took 0.9-1.1 s for CI's 3200-crossing walk, well inside its
    # timeout, so the pairs are counted instead.
    tested = []
    test = WalkState._test

    def counted(self, pairs):
        pairs = list(pairs)
        tested.append(len(pairs))
        return test(self, pairs)

    monkeypatch.setattr(WalkState, "_test", counted)
    random_walk(random_diagram(1, 2, 2, 3200), 150, 1, [])
    assert len(tested) == 151 and tested[0] == 6396
    assert max(tested[1:]) <= 32


def _check_carried_sites(d, n_moves, seed):
    """Walk d step by step; after every step the carried sites are a fresh scan's.

    The state's sites must equal find_sites and reference_sites on the
    diagram built from the state, and its next draw must equal the draw
    from find_sites' lists.  Returns the moves applied, by kind.
    """
    rng = random.Random(seed)
    state = WalkState(d)
    applied = dict.fromkeys(MOVE_KINDS, 0)
    while True:
        walked = state.diagram()
        assert validate(walked) == [], serialize(walked)
        assert state.listed() == find_sites(walked) == reference_sites(walked), serialize(walked)
        if sum(applied.values()) == n_moves:
            return applied
        twin = random.Random()
        twin.setstate(rng.getstate())
        site = state.draw(rng)
        assert site == reference_draw(walked, twin), serialize(walked)
        if site is None:
            return applied
        state.apply(site)
        applied[site.kind] += 1


@pytest.mark.parametrize("seed", range(24))
def test_carried_sites_match_a_fresh_scan_after_every_step(seed):
    # Suite-sized diagrams with 0-2 singular crossings, often with empty components.
    d = random_diagram(seed, seed % 3, 1 + seed % 3, seed % 13, n_singular=seed % 3)
    _check_carried_sites(d, 60, seed)


# Empty components first, in the middle and last; the kink offers R1-.
EMPTY_COMPONENTS = parse("tangle m=2 n=2\n"
                         "component 1 long from B1 to T1 :\n"
                         "component 2 closed : O1+ U2- O2- U1+\n"
                         "component 3 closed :\n"
                         "component 4 long from B2 to T2 : O3+ U3+\n"
                         "component 5 closed :\n")


@pytest.mark.parametrize("seed", range(8))
def test_carried_sites_match_a_fresh_scan_with_empty_components(seed):
    _check_carried_sites(EMPTY_COMPONENTS, 60, seed)


def braid_word(k):
    """(s1 s2)^k on three upward strands, every crossing positive: rich in R3 sites."""
    s1 = (Crossing("positive"), Identity())
    s2 = (Identity(), Crossing("positive"))
    return from_generator_word((s1, s2) * k)


@pytest.mark.parametrize("seed", range(8))
def test_carried_sites_match_a_fresh_scan_on_r3_rich_walks(seed):
    # (s1 s2)^6 offers 10 R3 sites, each naming three passages, which a
    # draw places in one pass over the passage lists.
    d = braid_word(6 if seed % 2 else 3)
    assert len(find_r3_sites(d)) == (10 if seed % 2 else 4)
    assert _check_carried_sites(d, 80, seed)["R3"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_carried_sites_match_a_fresh_scan_on_a_line_of_kinks(seed):
    # Twelve kinks: an R1- draw places twelve sites, one on every other
    # passage, in one pass over the line.
    d = parse("tangle m=1 n=1\ncomponent 1 long from B1 to T1 : "
              + " ".join(f"O{x}+ U{x}+" for x in range(1, 13)) + "\n")
    assert _check_carried_sites(d, 40, seed)["R1-"] > 0


def test_a_rank_draw_keeps_the_order_of_one_top_pairs_r3_sites():
    # A draw counts the sites of one top pair in the order the scan lists
    # them; some of these walks draw the second site of (O1, O2).
    drawn = set()
    for seed in range(12):
        _check_carried_sites(TWO_CHIRALITIES, 30, seed)
        log = []
        random_walk(TWO_CHIRALITIES, 30, seed, log)
        drawn.update(log)
    assert "R3 1:0 1:5 1:2" in drawn


def test_carried_sites_match_a_fresh_scan_at_scale():
    # 3200 passages, and a walk on which some kind holds more than 8
    # sites, so one pass over the passage lists places many sites at once.
    d = random_diagram(1, 2, 2, 1600)
    assert max(sum(map(len, found.values())) for _, state in walk_states(d, 60, 4)
               for found in state.sites.values()) > 8
    _check_carried_sites(d, 60, 4)


def test_scan_matches_reference_on_every_walked_diagram(monkeypatch):
    # Replay each walk of a seeded moves suite step by step and scan every
    # diagram it passes through; R3 sites mostly appear on walked
    # diagrams, not on freshly drawn ones.
    walks = []

    def spy(d, n_moves, seed, log):
        walks.append((d, n_moves, seed))
        return random_walk(d, n_moves, seed, log)

    monkeypatch.setattr(checks, "random_walk", spy)
    assert check_moves(80, 7).ok
    monkeypatch.undo()
    seen = [state.diagram() for walk in walks for _, state in walk_states(*walk)]
    offered = {"R1-": 0, "R2-": 0, "R3": 0}
    for d in seen:
        sites = find_sites(d)
        assert sites == reference_sites(d), serialize(d)
        for kind, found in sites.items():
            offered[kind] += len(found)
    assert len(seen) > 1000 and all(offered.values()), offered


def test_a_new_crossing_takes_the_highest_id_left_plus_one():
    # Crossing 9, the highest, is a kink: once R1- drops it, the next R1+
    # gets max(2, 5) + 1 = 6, in one walk state as through apply_site.
    d = parse("tangle m=1 n=1\n"
              "component 1 long from B1 to T1 : O2+ O5- U2+ O9+ U9+ U5-\n")
    kink = MoveSite("R1-", ((1, 3),))
    insert = MoveSite("R1+", ((1, 0),), sign=-1, order="under_first")
    expected = parse("tangle m=1 n=1\n"
                     "component 1 long from B1 to T1 : U6- O6- O2+ O5- U2+ U5-\n")
    assert apply_site(apply_site(d, kink), insert) == expected
    state = WalkState(d)
    state.apply(kink)
    state.apply(insert)
    assert state.diagram() == expected
    assert state.listed() == find_sites(expected)


def test_the_carried_top_is_the_highest_id_after_every_step():
    # Suite-sized walks delete the highest crossing often: the top falls
    # back by the scan above the floor on some steps and to the heap's
    # highest input id on others.
    scanned = popped = 0
    for seed in range(40):
        d = random_diagram(seed, seed % 3, 1 + seed % 2, seed % 13)
        top = floor = None
        for _, state in walk_states(d, 120, seed):
            assert state.top == max(state.crossings, default=0)
            if top is not None and state.top < top:
                scanned += state.floor == floor
                popped += state.floor < floor
            top, floor = state.top, state.floor
    assert scanned > 100 and popped >= 5, (scanned, popped)


def test_a_deleted_top_falls_back_over_an_id_gap_without_scanning_it():
    # Ids are unbounded, so the step below a deleted top must not count
    # down through the gap between 1000000 and 2: the table is looked up
    # a few times, not once per id in the gap.
    looked_up = []

    class Table(dict):
        def __contains__(self, x):
            looked_up.append(x)
            return dict.__contains__(self, x)

    d = parse("tangle m=1 n=1\ncomponent 1 long from B1 to T1 : O2+ U2+ O1000000- U1000000-\n")
    state = WalkState(d)
    state.crossings = Table(state.crossings)
    state.apply(MoveSite("R1-", ((1, 2),)))
    assert (state.top, state.floor) == (2, 2) and len(looked_up) <= 4
    state.apply(MoveSite("R1+", ((1, 0),), sign=1, order="over_first"))
    state.apply(MoveSite("R1-", ((1, 0),)))
    assert (state.top, state.floor) == (2, 2)
    state.apply(MoveSite("R1-", ((1, 0),)))
    assert (state.top, state.crossings) == (0, {})
    state.apply(MoveSite("R1+", ((1, 0),), sign=-1, order="over_first"))
    assert state.diagram() == parse("tangle m=1 n=1\ncomponent 1 long from B1 to T1 : O1- U1-\n")
    assert len(looked_up) <= 12


@pytest.mark.parametrize("seed", range(40))
def test_walk_draws_an_arc_as_a_choice_from_the_explicit_list(seed):
    log = []
    random_walk(EMPTY_COMPONENTS, 1, seed, log)
    assert log == [reference_draw(EMPTY_COMPONENTS, random.Random(seed)).describe()]


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=40, deadline=None)
def test_every_offered_site_applies_and_preserves_the_polynomial(seed):
    d = random_diagram(seed, seed % 2, 1 + seed % 2, seed % 10)
    d = random_walk(d, 1 + seed % 30, seed, [])
    sites = find_sites(d)
    assert sites == {"R1-": find_r1_delete_sites(d), "R2-": find_r2_delete_sites(d),
                     "R3": find_r3_sites(d)}
    for site in sites["R1-"] + sites["R2-"] + sites["R3"]:
        moved = apply_site(d, site)
        assert validate(moved) == [], site.describe()
        assert maip(moved) == maip(d), site.describe()


# ---------------------------------------------------------------------------
# move bookkeeping invariants


def _untouched_preserved(d, moved, touched_components):
    lab_before = propagate_labels(d)
    lab_after = propagate_labels(moved)
    for ci in lab_before.delta:
        if ci not in touched_components:
            assert lab_before.delta[ci] == lab_after.delta.get(ci)


def test_moves_preserve_untouched_deltas_and_weights(ex1):
    d = apply_site(ex1, MoveSite("R1+", ((1, 2),), sign=-1, order="over_first"))
    _untouched_preserved(ex1, d, {1})
    before = weight_table(ex1, propagate_labels(ex1))
    after = weight_table(d, propagate_labels(d))
    for cid, entry in before.items():
        assert after[cid] == entry


def test_every_move_kind_preserves_untouched_weights():
    base = parse(
        "tangle m=3 n=3\n"
        "component 1 long from B1 to T1 : O1+ O2+\n"
        "component 2 long from B2 to T2 : U1+ O3+\n"
        "component 3 long from B3 to T3 : U2+ U3+\n"
        "component 4 closed : O4- U4-\n")
    moved = {
        "R1+": apply_site(base, MoveSite("R1+", ((4, 1),), sign=1, order="over_first")),
        "R2+": apply_site(base, MoveSite("R2+", ((1, 0), (4, 2)), sign=-1, same_direction=False)),
        "R3": apply_site(base, find_r3_sites(base)[0]),
    }
    original = weight_table(base, propagate_labels(base))
    for kind, d in moved.items():
        assert validate(d) == [], kind
        assert maip(d) == maip(base), kind
        table = weight_table(d, propagate_labels(d))
        for cid, entry in original.items():
            assert table[cid] == entry, (kind, cid)


def test_walk_stress_large_move_count():
    d = random_diagram(123, 1, 2, 10)
    walked = random_walk(d, 200, 321, [])
    assert validate(walked) == []
    assert maip(walked) == maip(d)


# ---------------------------------------------------------------------------
# random walk


def test_random_walk_zero_moves(ex3):
    assert random_walk(ex3, 0, 1, []) == ex3


def test_random_walk_deterministic(ex1):
    a = random_walk(ex1, 25, 42, [])
    b = random_walk(ex1, 25, 42, [])
    assert a == b


def test_a_walk_keeps_the_input_passages_and_makes_two_per_new_crossing():
    # The walked diagram shares the input's Passage objects, so a long walk
    # holds one copy of them.  Records are shared per sign, so a crossing
    # is new when the input lacks its id; no new crossing of this walk
    # takes an id the input had.
    d = random_diagram(3, 1, 2, 40)
    own = {p: p for comp in d.components for p in comp.events}
    log = []
    walked = random_walk(d, 60, 5, log)
    assert {line.split()[0] for line in log} >= {"R1+", "R2+"}
    new = walked.crossings.keys() - d.crossings.keys()
    assert new
    made = {}
    for comp in walked.components:
        for p in comp.events:
            if p.crossing in new:
                assert type(p) is Passage
                made.setdefault(p.crossing, set()).add(p)
            else:
                assert p is own[p]
    assert made == {x: {Passage(x, "O"), Passage(x, "U")} for x in new}


def test_random_walk_logs_moves(ex1):
    log = []
    random_walk(ex1, 10, 7, log)
    assert len(log) == 10
    assert all(line.split()[0] in ("R1+", "R1-", "R2+", "R2-", "R3") for line in log)


@given(st.integers(min_value=0, max_value=50_000), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_random_walk_preserves_polynomial(seed, n_moves):
    d = random_diagram(seed, seed % 2, 1 + seed % 3, seed % 13)
    walked = random_walk(d, n_moves, seed + 1, [])
    assert validate(walked) == [], serialize(walked)
    assert maip(walked) == maip(d)


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=30, deadline=None)
def test_random_walk_preserves_resolved_sum_on_singular_diagrams(seed):
    d = random_diagram(seed, seed % 2, 1 + seed % 2, seed % 8, n_singular=1)
    walked = random_walk(d, 1 + seed % 25, seed + 1, [])
    assert validate(walked) == []
    assert vassiliev_eval(walked) == vassiliev_eval(d)


# ---------------------------------------------------------------------------
# the moves suite's failure records


def planted_walk(edit):
    """random_walk, with ``edit`` applied to the diagram it returns."""
    def walk(d, n_moves, seed, log):
        return edit(random_walk(d, n_moves, seed, log))
    return walk


def drop_the_highest_record(d):
    crossings = dict(d.crossings)
    if crossings:
        del crossings[max(crossings)]
    return replace(d, crossings=crossings)


def test_moves_suite_reports_a_walk_that_changes_the_polynomial(monkeypatch):
    monkeypatch.setattr(checks, "random_walk", planted_walk(flip_every_sign))
    report = check_moves(40, 7)
    assert len(report.failures) == 33, report.summary()
    failure = report.failures[0]
    assert list(failure) == ["trial", "seed", "diagram", "moves", "violations",
                             "before", "after"]
    assert failure["violations"] == [] and failure["before"] != failure["after"]
    lines = report.failure_lines()
    assert lines[0] == f"-- trial {failure['trial']} (seed {failure['seed']})"
    assert lines[1:6] == [f"   {key}: {failure[key]}" for key in list(failure)[2:]]


def test_moves_suite_reports_an_invalid_walk_without_evaluating_it(monkeypatch):
    # A passage of an undeclared crossing would make the label walk raise.
    monkeypatch.setattr(checks, "random_walk", planted_walk(drop_the_highest_record))
    report = check_moves(20, 7)
    assert not report.ok
    for failure in report.failures:
        assert failure["violations"] and failure["after"] is None
    assert json.loads(json.dumps(report.to_json()))["failures"] == report.failures
