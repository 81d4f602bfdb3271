import re
from dataclasses import replace
from pathlib import Path

import pytest

from maip.algebra import AffineInt, LaurentPoly
from maip.diagram import (OVER, UNDER, Component, CrossingRecord, Passage, TangleDiagram,
                          parse, require_valid)
from maip.errors import DiagramParseError
from maip.moves import MoveSite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.tangle").read_text()


def load(name: str):
    return parse(fixture_text(name))


class Affine:
    """An integer plus any integer combination of the symbols c_i.

    The reference arithmetic for labels and weights, written apart from
    the package's exponent; :meth:`exponent` hands a result over through
    ``AffineInt.of``.
    """

    def __init__(self, const=0, coeffs=None):
        self.const, self.coeffs = const, dict(coeffs or {})

    def __add__(self, other):
        other = Affine(other) if isinstance(other, int) else other
        coeffs = dict(self.coeffs)
        for i, a in other.coeffs.items():
            coeffs[i] = coeffs.get(i, 0) + a
        return Affine(self.const + other.const, coeffs)

    def __neg__(self):
        return Affine(-self.const, {i: -a for i, a in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other

    def exponent(self):
        return AffineInt.of(self.const, self.coeffs)


def sym(i):
    """The start-label symbol c_i, in the reference arithmetic."""
    return Affine(0, {i: 1})


def weight(rec):
    """A record (sign, i, j, k)'s weight k + c_i - c_j, summed in the reference arithmetic."""
    _, i, j, k = rec
    return (sym(i) - sym(j) + k).exponent()


def flip_every_sign(d):
    """``d`` with every crossing's sign flipped; all its crossings are classical."""
    return replace(d, crossings={cid: CrossingRecord.classical(-rec.sign)
                                 for cid, rec in d.crossings.items()})


def assert_failure_lines(report, keys):
    """Every failure of ``report`` has ``keys`` in order and prints as a
    trial line plus one line per key after trial and seed."""
    assert all(list(failure) == keys for failure in report.failures)
    failure = report.failures[0]
    lines = report.failure_lines()
    assert lines[0] == f"-- trial {failure['trial']} (seed {failure['seed']})"
    assert lines[1:len(keys) - 1] == [f"   {key}: {failure[key]}" for key in keys[2:]]
    assert len(lines) == (len(keys) - 1) * len(report.failures)


def aff(const=0, **coeffs):
    """An affine exponent, e.g. ``aff(-1, c1=1, c3=-1)`` for c1 - c3 - 1."""
    return AffineInt.of(const, {int(k[1:]): v for k, v in coeffs.items()})


def mono(var, exp, coeff=1):
    """``coeff * t_var^exp``; an int exponent is a constant one."""
    return LaurentPoly({(var, AffineInt(exp) if isinstance(exp, int) else exp): coeff})


def const(k):
    """The constant polynomial k."""
    return LaurentPoly({(None, AffineInt(0)): k})


@pytest.fixture
def ex1():
    return load("ex1")


@pytest.fixture
def ex2():
    return load("ex2")


@pytest.fixture
def ex3():
    return load("ex3")


@pytest.fixture
def ex4():
    return load("ex4")


@pytest.fixture
def singular():
    return load("singular")


@pytest.fixture
def kink():
    return load("kink")


# ---------------------------------------------------------------------------
# the reference reader: token by token, then a full validate


_REF_HEADER_RE = re.compile(r"^tangle\s+m=([0-9]+)\s+n=([0-9]+)$")
_REF_COMPONENT_RE = re.compile(
    r"^component\s+([0-9]+)\s+(?:(closed)|long\s+from\s+([TB][0-9]+)\s+to\s+([TB][0-9]+))\s*:(.*)$"
)
_REF_TOKEN_RE = re.compile(r"([OU])([0-9]+)([+-])|([XY])([0-9]+)")
_REF_WORD_RE = re.compile(r"\S+")
_REF_RECORDS = {"+": CrossingRecord.classical(1), "-": CrossingRecord.classical(-1),
                None: CrossingRecord.singular()}


def _ref_number(digits, line, column):
    try:
        return int(digits)
    except ValueError:
        raise DiagramParseError("number is too long", line, column) from None


def _read_tokens(tokens, crossings, line=None):
    """One component's passages from (token, column) pairs, one token at a time."""
    events = []
    for tok, column in tokens:
        tm = _REF_TOKEN_RE.fullmatch(tok) if isinstance(tok, str) else None
        if not tm:
            raise DiagramParseError(f"bad token {tok!r}", line, column)
        try:
            cid = int(tm.group(2) or tm.group(5))
        except ValueError:
            raise DiagramParseError("crossing id is too long", line, column) from None
        rec = _REF_RECORDS[tm.group(3)]
        prev = crossings.setdefault(cid, rec)
        if prev is not rec:
            if (prev.sign is None) != (rec.sign is None):
                raise DiagramParseError(
                    f"crossing {cid} is both classical and singular", line, column)
            raise DiagramParseError(f"sign mismatch at crossing {cid}", line, column)
        events.append(Passage(cid, tm.group(1) or tm.group(4)))
    return tuple(events)


def reference_parse(text):
    """What ``parse`` returns or raises, read token by token and validated in full."""
    header = None
    components, crossings = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            m = _REF_HEADER_RE.match(line)
            if not m:
                raise DiagramParseError("expected header 'tangle m=<int> n=<int>'", lineno, 1)
            header = (_ref_number(m.group(1), lineno, 1), _ref_number(m.group(2), lineno, 1))
            continue
        m = _REF_COMPONENT_RE.match(line)
        if not m:
            raise DiagramParseError("expected a 'component ...' line", lineno, 1)
        indent = len(raw) - len(raw.lstrip())
        idx_col = indent + m.start(1) + 1
        idx = _ref_number(m.group(1), lineno, idx_col)
        if idx != len(components) + 1:
            raise DiagramParseError(
                f"component index {idx} out of order (expected {len(components) + 1})",
                lineno, idx_col)
        col = indent + m.start(5) + 1
        tokens = ((t.group(), col + t.start()) for t in _REF_WORD_RE.finditer(m.group(5)))
        events = _read_tokens(tokens, crossings, lineno)
        if m.group(2) == "closed":
            components.append(Component("closed", events))
        else:
            components.append(Component("long", events, m.group(3), m.group(4)))
    if header is None:
        raise DiagramParseError("empty input: missing 'tangle' header", 1, 1)
    return require_valid(TangleDiagram(header[0], header[1], tuple(components), crossings))


def reference_from_json(data):
    """What ``from_json`` returns or raises, read token by token and validated in full."""
    if not isinstance(data, dict):
        raise DiagramParseError("a diagram must be a JSON object")
    for key in ("m", "n"):
        if type(data.get(key)) is not int or data[key] < 0:
            raise DiagramParseError(f"'{key}' must be a non-negative integer")
    entries = data.get("components")
    if not isinstance(entries, list):
        raise DiagramParseError("'components' must be a list")
    components, crossings = [], {}
    for k, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise DiagramParseError(f"component {k}: must be an object")
        kind, start, end = entry.get("kind"), entry.get("start"), entry.get("end")
        tokens = entry.get("events", [])
        if not (isinstance(kind, str) and isinstance(tokens, list)
                and all(slot is None or isinstance(slot, str) for slot in (start, end))):
            raise DiagramParseError(f"component {k}: 'kind' must be a string, 'start' and "
                                    "'end' slot names or null, and 'events' a list")
        components.append(Component(kind, _read_tokens(((tok, None) for tok in tokens), crossings),
                                    start, end))
    return require_valid(TangleDiagram(data["m"], data["n"], tuple(components), crossings))


# ---------------------------------------------------------------------------
# the reference site scan: every passage indexed, every (O, O) pair tried


def _r3_pattern(d: TangleDiagram, anchors) -> bool:
    """True when the three adjacent pairs form the slide configuration.

    The top pair is the scan's (O_x, O_y) with x != y.  Either chirality
    is accepted: top (O_x, O_y) with middle (U_x, O_z) and bottom
    (U_y, U_z), or the mirror image top (O_y, O_x) with middle (O_z, U_x)
    and bottom (U_z, U_y).  All six passages involve exactly three
    crossings sharing one sign.
    """
    pairs = []
    for ci, k in anchors:
        events = d.components[ci - 1].events
        if not 0 <= k <= len(events) - 2:
            return False
        pairs.append((events[k], events[k + 1]))
    (t1, t2), (m1, m2), (b1, b2) = pairs
    if m1.role == UNDER and m2.role == OVER:
        x, y = t1.crossing, t2.crossing
        z = m2.crossing
        bottom_ok = (b1.crossing, b2.crossing) == (y, z)
    elif m1.role == OVER and m2.role == UNDER:
        x, y = t2.crossing, t1.crossing
        z = m1.crossing
        bottom_ok = (b1.crossing, b2.crossing) == (z, y)
    else:
        return False
    mid_under = m1 if m1.role == UNDER else m2
    return (mid_under.crossing == x and z not in (x, y)
            and b1.role == UNDER and b2.role == UNDER and bottom_ok
            and d.crossings[x].sign == d.crossings[y].sign == d.crossings[z].sign)


def reference_sites(d):
    """What ``find_sites`` returns, with no under-only index and no sign gate.

    Every passage's position comes from ``passage_positions``, and every
    adjacent (O_x, O_y) pair with x != y is tried as an R2- top and as
    both R3 chiralities through ``_r3_pattern``, whatever its signs.  The
    pattern is written here apart from the scan's inline checks, so a
    fault in either shows up as a difference.
    """
    positions = d.passage_positions()
    sites = {"R1-": [], "R2-": [], "R3": []}
    for ci, comp in enumerate(d.components, start=1):
        for k in range(len(comp.events) - 1):
            a, b = comp.events[k], comp.events[k + 1]
            if a.crossing == b.crossing:
                if {a.role, b.role} == {OVER, UNDER}:
                    sites["R1-"].append(MoveSite("R1-", ((ci, k),)))
                continue
            if a.role != OVER or b.role != OVER:
                continue
            cu, ku = positions[(a.crossing, UNDER)]
            cv, kv = positions[(b.crossing, UNDER)]
            if d.crossings[a.crossing].sign == -d.crossings[b.crossing].sign and cu == cv and abs(ku - kv) == 1:
                sites["R2-"].append(MoveSite("R2-", ((ci, k), (cu, min(ku, kv)))))
            for anchors in (((ci, k), (cu, ku), (cv, kv)), ((ci, k), (cv, kv - 1), (cu, ku - 1))):
                if _r3_pattern(d, anchors):
                    sites["R3"].append(MoveSite("R3", anchors))
    return sites
