import json
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maip.algebra import AffineInt, LaurentPoly
from maip.diagram import (Component, CrossingRecord, Passage, TangleDiagram,
                          from_json, parse, random_diagram, serialize, to_json,
                          validate)
from maip.errors import (ArityMismatch, DiagramParseError, HasSingular, OrientationMismatch,
                         ValidationFailure)
from maip.homology import check_prop2, maip_via_homology
from maip.invariant import maip, propagate_labels, resolve_singular
from maip.moves import random_walk
from maip.tangle_ops import compose
from maip.words import Cap, Crossing, Cup, Identity, from_generator_word

from conftest import FIXTURES, fixture_text, load, reference_from_json, reference_parse


def test_validate_kink_ok(kink):
    assert validate(kink) == []


def test_validate_duplicate_role():
    d = TangleDiagram(0, 0, (Component("closed", (Passage(1, "O"), Passage(1, "O"))),),
                      {1: CrossingRecord.classical(1)})
    problems = validate(d)
    assert any("duplicate role" in p for p in problems)
    assert any("missing U" in p for p in problems)


def test_validate_names_a_role_of_the_other_kind_in_order():
    events = (Passage(1, "O"), Passage(1, "X"), Passage(2, "Y"), Passage(2, "U"),
              Passage(3, "Q"), Passage(1, "U"))
    d = TangleDiagram(0, 0, (Component("closed", events),),
                      {1: CrossingRecord.classical(-1), 2: CrossingRecord.singular()})
    assert validate(d) == [
        "crossing 1: role X on a classical crossing",
        "crossing 2: role U on a singular crossing",
        "crossing 3: referenced but not declared",
        "crossing 2: missing X passage",
        "crossing 1: unexpected role X",
        "crossing 2: unexpected role U",
    ]


def test_every_maker_of_records_shares_one_record_per_sign():
    # random_diagram, the resolutions, a generator word and a walk that
    # mints crossings build no record of their own: each record is the one
    # classical() or singular() gives.
    d = random_diagram(1, 2, 2, 200, n_singular=3)
    word = from_generator_word(((Crossing("positive"), Crossing("negative")),))
    walked = random_walk(random_diagram(3, 1, 2, 40), 60, 5, [])
    assert max(walked.crossings) > 40
    made = [d, word, walked, *(term.diagram for term in resolve_singular(d))]
    records = [rec for diagram in made for rec in diagram.crossings.values()]
    assert {rec.sign for rec in records} == {1, -1, None}
    shared = {1: CrossingRecord.classical(1), -1: CrossingRecord.classical(-1),
              None: CrossingRecord.singular()}
    assert all(rec is shared[rec.sign] for rec in records)


@pytest.mark.parametrize("sign", [0, 2, None, "x"])
def test_classical_record_rejects_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match=rf"^crossing sign must be \+1 or -1, got {sign}$"):
        CrossingRecord.classical(sign)


def test_validate_endpoint_arity():
    d = TangleDiagram(1, 0, (Component("long", (), "T1", None),), {})
    assert any("endpoint arity" in p for p in validate(d))


def test_validate_slot_usage():
    d = TangleDiagram(2, 0, (Component("long", (), "T1", "T1"),), {})
    problems = validate(d)
    assert any("T1" in p and "arity" in p for p in problems)
    assert any("T2" in p and "unused" in p for p in problems)


def test_validate_unknown_kind_is_not_called_closed():
    d = TangleDiagram(1, 0, (Component("loop", (), "T1", None),), {})
    problems = validate(d)
    assert "component 1: unknown kind 'loop'" in problems
    assert not any("closed component" in p for p in problems)


def test_validate_names_a_slot_beyond_the_boundary():
    d = TangleDiagram(1, 0, (Component("long", (), "T1", "T2"),), {})
    assert validate(d) == ["slot T2: not in boundary (m=1, n=0)"]
    for make in (lambda: parse("tangle m=1 n=0\ncomponent 1 long from T1 to T2 :\n"),
                 lambda: from_json(to_json(d))):
        with pytest.raises(ValidationFailure) as info:
            make()
        assert info.value.violations == ["slot T2: not in boundary (m=1, n=0)"]


def test_validate_ids_start_at_1():
    d = TangleDiagram(0, 0, (Component("closed", (Passage(0, "O"), Passage(0, "U"))),),
                      {0: CrossingRecord.classical(1)})
    assert validate(d) == ["crossing 0: ids start at 1"]
    for make in (lambda: parse("tangle m=0 n=0\ncomponent 1 closed : O0+ U0+\n"),
                 lambda: from_json(to_json(d))):
        with pytest.raises(ValidationFailure) as info:
            make()
        assert info.value.violations == ["crossing 0: ids start at 1"]


def test_parse_ex3(ex3):
    assert ex3.m == 2 and ex3.n == 4
    assert len(ex3.components) == 3
    assert ex3.crossings[1].sign == 1
    assert ex3.crossings[2].sign == -1


def test_parse_sign_mismatch():
    with pytest.raises(DiagramParseError, match="sign mismatch at crossing 1"):
        parse("tangle m=0 n=0\ncomponent 1 closed : O1+ U1-\n")


@pytest.mark.parametrize("tokens, message", [
    ("O1+ U1-", "sign mismatch at crossing 1"),
    ("X1 O1+", "crossing 1 is both classical and singular"),
    ("O1+ Y1", "crossing 1 is both classical and singular"),
    ("O1+ Q2-", "bad token 'Q2-'"),
])
def test_text_and_json_share_token_checks(tokens, message):
    with pytest.raises(DiagramParseError, match=message):
        parse(f"tangle m=0 n=0\ncomponent 1 closed : {tokens}\n")
    with pytest.raises(DiagramParseError, match=message):
        from_json({"m": 0, "n": 0, "components": [{"kind": "closed", "events": tokens.split()}]})


def test_parse_reports_position():
    with pytest.raises(DiagramParseError) as err:
        parse("tangle m=0 n=0\ncomponent 1 closed : O1+ Q2-\n")
    assert err.value.line == 2
    assert err.value.column == 26


@pytest.mark.parametrize("text, column", [
    # the bad token's text also appears earlier on the line, as a slot
    ("tangle m=1 n=1\ncomponent 1 long from T1 to B1 : O1+ U1+ T1\n", 42),
    # X1 clashes with O1+; the text "X1" first occurs inside "X12"
    ("tangle m=0 n=0\ncomponent 1 closed : O1+ X12 U1+ Y12 X1\n", 38),
    # component indices out of order, and one too long to convert
    ("tangle m=0 n=0\ncomponent  2 closed :\n", 12),
    ("tangle m=0 n=0\n    component 2 closed :\n", 15),
    ("tangle m=0 n=0\n  component " + "1" * 5000 + " closed :\n", 13),
], ids=["same-text-as-a-slot", "same-text-inside-a-token", "index-after-two-spaces",
        "indented-index", "indented-over-long-index"])
def test_parse_error_points_at_the_token(text, column):
    with pytest.raises(DiagramParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (2, column)


def test_parse_comments_and_blank_lines(kink):
    text = "# a kink\n\ntangle m=0 n=0\ncomponent 1 closed : O1+ U1+  # the kink\n"
    assert parse(text) == kink


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "singular", "kink"])
def test_fixture_round_trips(name):
    text = fixture_text(name)
    assert serialize(parse(text)) == text
    assert from_json(to_json(parse(text))) == parse(text)


def test_all_fixtures_valid():
    for path in FIXTURES.glob("*.tangle"):
        assert validate(parse(path.read_text())) == [], path.name


@given(st.integers(min_value=0, max_value=10_000), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 12), st.integers(0, 2))
@settings(max_examples=60)
def test_random_diagram_valid_and_round_trips(seed, n_closed, n_long, n_cr, n_sing):
    if n_closed + n_long == 0:
        n_long = 1
    d = random_diagram(seed, n_closed, n_long, n_cr, n_sing)
    assert validate(d) == []
    assert parse(serialize(d)) == d
    assert random_diagram(seed, n_closed, n_long, n_cr, n_sing) == d


def test_random_diagram_trivial():
    d = random_diagram(3, 1, 0, 0)
    assert d == TangleDiagram(0, 0, (Component("closed", ()),), {})


@pytest.mark.parametrize("counts", [(-1, 2, 3), (2, -1, 3), (0, 0, -1)],
                         ids=["closed", "long", "crossings"])
def test_random_diagram_rejects_negative_counts(counts):
    with pytest.raises(ValueError):
        random_diagram(0, *counts)


def test_round_trip_with_two_digit_ids_and_slots():
    d = random_diagram(17, 2, 8, 14, n_singular=2)
    assert max(d.crossings) >= 10
    assert d.m + d.n == 16
    assert validate(d) == []
    assert parse(serialize(d)) == d
    assert from_json(to_json(d)) == d


# ---------------------------------------------------------------------------
# the reader against the reference reader, one planted fault at a time


def mirror_text(data):
    """The text form of a JSON mirror, faults and all (tokens joined by one space).

    A token that is not a string is written as its JSON text.
    """
    lines = [f"tangle m={data['m']} n={data['n']}"]
    for idx, comp in enumerate(data["components"], start=1):
        head = (f"component {idx} closed :" if comp["kind"] == "closed"
                else f"component {idx} long from {comp['start']} to {comp['end']} :")
        tokens = (tok if isinstance(tok, str) else json.dumps(tok) for tok in comp["events"])
        lines.append(f"{head} {' '.join(tokens)}".rstrip())
    return "\n".join(lines) + "\n"


def _pick_token(data, rng):
    """(component entry, index) of a uniformly drawn token."""
    places = [(comp, i) for comp in data["components"] for i in range(len(comp["events"]))]
    return rng.choice(places)


def _other_kind(tok):
    role, rest = tok[0], tok[1:]
    if role in "OU":
        return ("X" if role == "O" else "Y") + rest[:-1]
    return ("O" if role == "X" else "U") + rest + "+"


def _rename(data, old, new):
    pattern = re.compile(rf"(?<=^[OUXY]){old}(?=[+-]?$)")
    for comp in data["components"]:
        comp["events"] = [pattern.sub(str(new), tok) for tok in comp["events"]]


_SPACES = [" ", "\n", "\t", "\u3000"]
# Words that are not tokens: an unknown role, a classical role without a
# sign, a singular role with one, a token with more after it, and an id in
# Arabic-Indic digits.
_BAD_WORDS = ["Q5+", "O5", "X5+", "O5+5", "O\u0661+"]


def _plant_clash(data, rng):
    """Insert a token that clashes with a classical token just before it.

    Returns the clash's component entry and index.
    """
    comp, i = rng.choice([(comp, i) for comp in data["components"]
                          for i, tok in enumerate(comp["events"]) if tok[-1] in "+-"])
    tok = comp["events"][i]
    comp["events"].insert(i + 1, ("U" if tok[0] == "O" else "O") + tok[1:-1]
                          + ("-" if tok[-1] == "+" else "+"))
    return comp, i + 1


def plant(data, fault, rng):
    """Plant one fault of kind ``fault`` in the JSON mirror ``data``, in place."""
    if fault == "duplicate":
        comp, i = _pick_token(data, rng)
        target, _ = _pick_token(data, rng)
        target["events"].insert(rng.randrange(len(target["events"]) + 1), comp["events"][i])
    elif fault == "drop":
        comp, i = _pick_token(data, rng)
        del comp["events"][i]
    elif fault == "other_kind":
        comp, i = _pick_token(data, rng)
        comp["events"][i] = _other_kind(comp["events"][i])
    elif fault == "id_0":
        comp, i = _pick_token(data, rng)
        _rename(data, re.search(r"\d+", comp["events"][i]).group(), 0)
    elif fault == "sign_clash":
        classical = [(comp, i) for comp in data["components"]
                     for i, tok in enumerate(comp["events"]) if tok[-1] in "+-"]
        comp, i = rng.choice(classical)
        tok = comp["events"][i]
        comp["events"][i] = tok[:-1] + ("-" if tok[-1] == "+" else "+")
    elif fault == "shared_slot":
        longs = [comp for comp in data["components"] if comp["kind"] == "long"]
        rng.choice(longs)["end"] = rng.choice(longs)["start"]
    elif fault == "unused_slot":
        data[rng.choice("mn")] += 1
    elif fault == "inner_space":
        comp, i = rng.choice([(comp, i) for comp in data["components"]
                              for i in range(len(comp["events"]) - 1)])
        comp["events"][i] += rng.choice(_SPACES)
    elif fault == "non_string":
        comp, i = _pick_token(data, rng)
        comp["events"][i] = rng.choice([7, None, ["O1+"]])
    elif fault == "empty_token":
        comp, i = _pick_token(data, rng)
        comp["events"][i] = ""
    elif fault == "space_after_clash":
        # a whitespace-wrapped token after the clash, in the same list
        comp, i = _plant_clash(data, rng)
        events, space = comp["events"], rng.choice(_SPACES)
        events.insert(rng.randrange(i + 1, len(events) + 1), space + rng.choice(events) + space)
    elif fault == "bad_word":
        comp, i = _pick_token(data, rng)
        comp["events"].insert(i, rng.choice(_BAD_WORDS))
    elif fault == "long_id":
        comp, i = _pick_token(data, rng)
        tok = comp["events"][i]
        comp["events"][i] = tok[0] + "7" * 5000 + tok[-1] * (tok[-1] in "+-")
    elif fault in ("bad_before_clash", "bad_after_clash"):
        comp, i = _plant_clash(data, rng)
        where = (rng.randrange(0, i + 1) if fault == "bad_before_clash"
                 else rng.randrange(i + 1, len(comp["events"]) + 1))
        comp["events"].insert(where, rng.choice(_BAD_WORDS))


def outcome(read, source):
    """What ``read(source)`` returns, or its error's type, message, place and violations."""
    try:
        return read(source)
    except (DiagramParseError, ValidationFailure) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None),
                getattr(exc, "violations", None))


FAULTS = ["none", "duplicate", "drop", "other_kind", "id_0", "sign_clash", "shared_slot",
          "unused_slot", "inner_space", "non_string", "empty_token", "space_after_clash",
          "bad_word", "long_id", "bad_before_clash", "bad_after_clash"]


@pytest.mark.parametrize("fault", FAULTS)
@given(seed=st.integers(0, 10**6), n_closed=st.integers(0, 2), n_long=st.integers(1, 3),
       n_cr=st.integers(2, 12), n_sing=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_reader_matches_the_reference_reader(fault, seed, n_closed, n_long, n_cr, n_sing):
    d = random_diagram(seed, n_closed, n_long, n_cr, n_sing)
    data = to_json(d)
    assume(fault != "inner_space" or any(len(c["events"]) > 1 for c in data["components"]))
    if fault != "none":
        plant(data, fault, random.Random(seed))
    text = mirror_text(data)
    for read, reference, source in ((parse, reference_parse, text),
                                    (from_json, reference_from_json, data)):
        got = outcome(read, source)
        assert got == outcome(reference, source)
        if fault == "none":
            assert got == d
        elif fault != "inner_space" or read is from_json:
            assert isinstance(got, tuple)
        if isinstance(got, TangleDiagram):
            assert all(type(ev) is Passage for comp in got.components for ev in comp.events)
        if fault in ("space_after_clash", "bad_after_clash"):
            assert "sign mismatch" in got[1]
        if fault in ("bad_word", "bad_before_clash"):
            assert "bad token" in got[1]


# ---------------------------------------------------------------------------
# generator words


def test_word_single_identity():
    d = from_generator_word(((Identity("u"),),))
    assert d.m == 1 and d.n == 1
    assert len(d.components) == 1
    assert d.components[0].kind == "long"
    assert d.crossings == {}


def test_word_closed_circle():
    word = ((Cap(("u", "d")),), (Cup(("u", "d")),))
    d = from_generator_word(word)
    assert (d.m, d.n) == (0, 0)
    assert len(d.components) == 1
    assert d.components[0].kind == "closed"
    assert d.crossings == {}


def test_word_positive_crossing_on_upward_strands():
    d = from_generator_word(((Crossing("positive", "u", "u"),),))
    assert (d.m, d.n) == (2, 2)
    assert [c.kind for c in d.components] == ["long", "long"]
    assert d.crossings[1].sign == 1
    over, under = d.components[0].events[0], d.components[1].events[0]
    assert (over.role, under.role) == ("O", "U")
    # bottom-left enters, exits top-right as the overstrand
    assert d.components[0].start == "B1" and d.components[0].end == "T2"
    assert d.components[1].start == "B2" and d.components[1].end == "T1"


@pytest.mark.parametrize("kind, dir_a, dir_b, sign", [
    ("positive", "u", "u", 1), ("positive", "u", "d", -1),
    ("positive", "d", "u", -1), ("positive", "d", "d", 1),
    ("negative", "u", "u", -1), ("negative", "u", "d", 1),
    ("negative", "d", "u", 1), ("negative", "d", "d", -1),
])
def test_word_crossing_sign(kind, dir_a, dir_b, sign):
    atom = Crossing(kind, dir_a, dir_b)
    d = from_generator_word(((atom,),))
    assert atom.sign() == d.crossings[1].sign == sign


def test_word_virtual_crossing_leaves_no_trace():
    word = ((Crossing("virtual", "u", "u"),),)
    d = from_generator_word(word)
    assert d.crossings == {}
    assert all(c.events == () for c in d.components)
    # routing still swaps the strands
    assert d.components[0].end == "T2"


def test_word_row_arity_mismatch():
    word = ((Identity("u"), Identity("u")), (Identity("u"),))
    with pytest.raises(ArityMismatch, match=r"^rows 0 and 1 disagree on strand count \(2 and 1\)$"):
        from_generator_word(word)


def test_word_direction_mismatch():
    word = ((Identity("u"),), (Identity("d"),))
    with pytest.raises(OrientationMismatch, match=r"^rows 0 and 1 disagree on strand directions$"):
        from_generator_word(word)


def test_word_output_always_valid():
    word = (
        (Identity("d"), Cap(("u", "d"))),
        (Crossing("positive", "u", "d"), Identity("d")),
        (Identity("u"), Identity("d"), Identity("d")),
    )
    d = from_generator_word(word)
    assert validate(d) == []
    assert (d.m, d.n) == (1, 3)
    assert len(d.classical_ids()) == 1


def test_word_tensor_rows_concatenate_boundaries():
    single = from_generator_word(((Identity("u"),),))
    double = from_generator_word(((Identity("u"), Identity("u")),))
    assert (single.m, single.n) == (1, 1)
    assert (double.m, double.n) == (2, 2)


def random_rows(rng, n_rows):
    """Rows of a random valid word, top to bottom: each row's bottom is the next one's top."""
    top = [rng.choice("ud") for _ in range(rng.randrange(5))]
    rows = []
    for _ in range(n_rows):
        row, bottom, i = [], [], 0
        while i < len(top) or rng.random() < 0.2:  # caps may widen the row
            r = rng.random()
            if r < 0.15 or i == len(top):
                dirs = rng.choice((("u", "d"), ("d", "u")))
                row.append(Cap(dirs))
                bottom += dirs
            elif i + 1 < len(top) and r < 0.6:
                dir_b, dir_a = top[i], top[i + 1]
                if dir_a != dir_b and r < 0.3:
                    row.append(Cup((dir_b, dir_a)))
                else:
                    row.append(Crossing(rng.choice(("positive", "negative", "virtual")),
                                        dir_a, dir_b))
                    bottom += (dir_a, dir_b)
                i += 2
            else:
                row.append(Identity(top[i]))
                bottom.append(top[i])
                i += 1
        rows.append(tuple(row))
        top = bottom
    return tuple(rows)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_random_word_valid_with_row_major_crossing_ids(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, rng.randrange(1, 6))
    d = from_generator_word(rows)
    assert validate(d) == []
    classical = [atom for row in rows for atom in row
                 if isinstance(atom, Crossing) and atom.kind != "virtual"]
    assert ({cid: rec.sign for cid, rec in d.crossings.items()}
            == {k: atom.sign() for k, atom in enumerate(classical, start=1)})


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_word_is_the_composite_of_its_rows(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, rng.randrange(2, 6))
    upper = from_generator_word(rows[:-1])
    lower = from_generator_word(rows[-1:])
    assert from_generator_word(rows) == compose(upper, lower)


def trefoil_rows(long):
    """The 2-strand closure of sigma_1^3, its return strand on the right.

    The long closure leaves strand 1 open (a 1-1 tangle); the closed one
    joins it to an outer return strand.
    """
    cap, cup = Cap(("u", "d")), Cup(("u", "d"))
    twist = (Crossing("positive", "u", "u"), Identity("d"))
    rows = ((Identity("u"), cap),) + (twist,) * 3 + ((Identity("u"), cup),)
    if long:
        return rows
    return ((cap,),) + tuple(row + (Identity("d"),) for row in rows) + ((cup,),)


@pytest.mark.parametrize("long", [False, True], ids=["closed", "long"])
def test_trefoil_closure_has_zero_polynomial(long):
    # one-component classical diagrams have maip == 0 (Kauffman 2013)
    d = from_generator_word(trefoil_rows(long))
    assert validate(d) == []
    assert (d.m, d.n) == ((1, 1) if long else (0, 0))
    assert [c.kind for c in d.components] == ["long" if long else "closed"]
    assert len(d.classical_ids()) == 3
    assert propagate_labels(d).delta == {1: 0}
    assert not maip(d)


# ---------------------------------------------------------------------------
# input checks of the constructors and entry points


@pytest.mark.parametrize("call, error, message", [
    (lambda: LaurentPoly({(None, AffineInt(1)): 1}), ValueError, "variable-free terms"),
    (lambda: random_diagram(0, 0, 0, 3), ValueError, "at least one component"),
    (lambda: Identity("x"), ValueError, "direction must be"),
    (lambda: Cup(("u", "u")), ValueError, "cup needs one 'u' and one 'd' leg"),
    (lambda: Cap(("d", "d")), ValueError, "cap needs one 'u' and one 'd' leg"),
    (lambda: Crossing("bogus"), ValueError, "unknown crossing kind"),
    (lambda: from_json([]), DiagramParseError, "a diagram must be a JSON object"),
    (lambda: check_prop2(load("singular")), HasSingular, "resolve singular"),
    (lambda: maip_via_homology(load("singular")), HasSingular, "resolve singular"),
], ids=["poly-constant-without-variable", "diagram-without-components", "identity-direction",
        "cup-legs", "cap-legs", "crossing-kind", "json-not-an-object", "prop2-singular",
        "corollary-singular"])
def test_input_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
