"""Combinatorial tangle diagrams: extended Gauss codes with boundary slots.

A diagram lists, per component, the ordered crossing passages met while
traversing it from its start (long components) or basepoint (closed
components).  Classical crossings appear once as Over and once as Under
and carry a sign; singular crossings appear once as primary and once as
secondary, where the primary strand is the one that passes over in the
positive resolution.

Virtual crossings are deliberately absent from the model: they
contribute nothing to labels, weights, or the intersection pairing, and
the purely virtual moves act trivially on abstract Gauss codes, so
erasing them makes that part of the invariance story true by
representation.

Boundary slots are named ``T1..Tm`` (top, left to right) and ``B1..Bn``
(bottom); each long component records the slot it begins at and the
slot it ends at.

Both input formats read a component's tokens with one reader.  A valid
line is read in bulk, by C-level operations over the whole line: one
regex search proves every word a token, and ``str.translate`` with
``split`` lines up the ids, signs and roles.  A line that the bulk reader
rejects is read again word by word, which raises
:class:`DiagramParseError` at the first bad word; the text reader places
it at its line and column.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import repeat
from operator import is_not
from typing import NamedTuple

from .errors import DiagramParseError, ValidationFailure

OVER = "O"
UNDER = "U"
SING_PRIMARY = "X"
SING_SECONDARY = "Y"

CLASSICAL_ROLES = (OVER, UNDER)
SINGULAR_ROLES = (SING_PRIMARY, SING_SECONDARY)


class Passage(NamedTuple):
    crossing: int
    role: str

    def token(self, sign: int | None) -> str:
        if self.role in SINGULAR_ROLES:
            return f"{self.role}{self.crossing}"
        return f"{self.role}{self.crossing}{'+' if sign > 0 else '-'}"


@dataclass(frozen=True)
class CrossingRecord:
    """Classical crossings carry sign +1/-1; singular ones carry None.

    :meth:`classical` and :meth:`singular` return one shared record per sign.
    """

    sign: int | None

    @staticmethod
    def classical(sign: int) -> "CrossingRecord":
        if sign not in (1, -1):
            raise ValueError(f"crossing sign must be +1 or -1, got {sign}")
        return _RECORDS[sign]

    @staticmethod
    def singular() -> "CrossingRecord":
        return _RECORDS[None]


_RECORDS = {sign: CrossingRecord(sign) for sign in (1, -1, None)}


@dataclass(frozen=True)
class Component:
    kind: str                      # "closed" | "long"
    events: tuple[Passage, ...]
    start: str | None = None       # slot name, long components only
    end: str | None = None


@dataclass
class TangleDiagram:
    """An (m, n)-tangle diagram; treat as immutable after construction."""

    m: int
    n: int
    components: tuple[Component, ...]
    crossings: dict[int, CrossingRecord] = field(default_factory=dict)

    def classical_ids(self) -> list[int]:
        return sorted(i for i, r in self.crossings.items() if r.sign is not None)

    def singular_ids(self) -> list[int]:
        return sorted(i for i, r in self.crossings.items() if r.sign is None)

    def has_singular(self) -> bool:
        return any(r.sign is None for r in self.crossings.values())

    def passage_positions(self) -> dict[tuple[int, str], tuple[int, int]]:
        """Map (crossing id, role) -> (1-based component index, event offset)."""
        out = {}
        for ci, comp in enumerate(self.components, start=1):
            for pos, ev in enumerate(comp.events):
                out[(ev.crossing, ev.role)] = (ci, pos)
        return out

    def slot_map(self) -> dict[str, tuple[int, str]]:
        """Map slot name -> (1-based component index, "start" | "end")."""
        out: dict[str, tuple[int, str]] = {}
        for ci, comp in enumerate(self.components, start=1):
            if comp.kind == "long":
                if comp.start is not None:
                    out[comp.start] = (ci, "start")
                if comp.end is not None:
                    out[comp.end] = (ci, "end")
        return out


# ---------------------------------------------------------------------------
# validation


# The roles a crossing's passages may take, and the name of its kind.
_ROLES_OF_CLASSICAL = (CLASSICAL_ROLES, "classical")
_ROLES_OF_SINGULAR = (SINGULAR_ROLES, "singular")


def _component_problems(ci: int, comp: Component):
    """Component ``ci``'s violations of its kind and endpoints, in validate's order."""
    if comp.kind not in ("closed", "long"):
        yield f"component {ci}: unknown kind {comp.kind!r}"
    if comp.kind == "long":
        if comp.start is None or comp.end is None:
            yield f"component {ci}: endpoint arity"
        elif comp.start == comp.end:
            yield f"component {ci}: endpoint arity (start and end share slot {comp.start})"
    elif comp.kind == "closed" and (comp.start is not None or comp.end is not None):
        yield f"component {ci}: closed component carries boundary slots"


def _slot_problems(d: TangleDiagram):
    """The boundary's violations: every slot used once, and no other slot."""
    # One line per unused slot is bounded by the input only while the
    # declared boundary stays within reach of the long components.
    n_long = sum(comp.kind == "long" for comp in d.components)
    if d.m + d.n > 3 * n_long:
        yield (f"boundary: m={d.m}, n={d.n}, but {n_long} long components "
               f"reach at most {2 * n_long} slots")
        return
    expected = [f"T{k}" for k in range(1, d.m + 1)] + [f"B{k}" for k in range(1, d.n + 1)]
    used: dict[str, int] = {}
    for comp in d.components:
        for slot in (comp.start, comp.end):
            if slot is not None:
                used[slot] = used.get(slot, 0) + 1
    for slot in expected:
        count = used.pop(slot, 0)
        if count == 0:
            yield f"slot {slot}: unused"
        elif count > 1:
            yield f"slot {slot}: used {count} times"
    for slot in sorted(used):
        yield f"slot {slot}: not in boundary (m={d.m}, n={d.n})"


def validate(d: TangleDiagram) -> list[str]:
    """Return every violated structural invariant; empty list means valid."""
    errs: list[str] = []
    seen: dict[Passage, int] = {}
    for ci, comp in enumerate(d.components, start=1):
        errs.extend(_component_problems(ci, comp))
        for ev in comp.events:
            rec = d.crossings.get(ev.crossing)
            if rec is None:
                errs.append(f"crossing {ev.crossing}: referenced but not declared")
                continue
            roles, kind = _ROLES_OF_SINGULAR if rec.sign is None else _ROLES_OF_CLASSICAL
            if ev.role not in roles:
                errs.append(f"crossing {ev.crossing}: role {ev.role} on a {kind} crossing")
            seen[ev] = seen.get(ev, 0) + 1

    for cid, rec in sorted(d.crossings.items()):
        if cid < 1:
            errs.append(f"crossing {cid}: ids start at 1")
        roles, _ = _ROLES_OF_SINGULAR if rec.sign is None else _ROLES_OF_CLASSICAL
        for role in roles:
            count = seen.pop((cid, role), 0)
            if count == 0:
                errs.append(f"crossing {cid}: missing {role} passage")
            elif count > 1:
                errs.append(f"crossing {cid}: duplicate role {role}")
    for (cid, role), _count in sorted(seen.items()):
        errs.append(f"crossing {cid}: unexpected role {role}")
    errs.extend(_slot_problems(d))
    return errs


def require_valid(d: TangleDiagram) -> TangleDiagram:
    errs = validate(d)
    if errs:
        raise ValidationFailure(errs)
    return d


# ---------------------------------------------------------------------------
# reading: text format and JSON mirror

_HEADER_RE = re.compile(r"^tangle\s+m=([0-9]+)\s+n=([0-9]+)$")
_COMPONENT_RE = re.compile(
    r"^component\s+([0-9]+)\s+(?:(closed)|long\s+from\s+([TB][0-9]+)\s+to\s+([TB][0-9]+))\s*:(.*)$"
)
# One match per whitespace-separated word: a classical token (groups 1-3),
# a singular one (groups 4-5), or any other word (group 6).  Ids are ASCII
# digits: ``\d`` would take any script's digits, and ``int`` converts them.
_WORD_RE = re.compile(r"([OU])([0-9]+)([+-])(?!\S)|([XY])([0-9]+)(?!\S)|(\S+)")
# A whitespace character that starts a word which is not a token.  Searched
# over ``" " + line``, no match proves every word of the line a token in one
# C-level scan of constant memory; a fullmatch of repeated tokens would keep
# backtracking state for every token (about 280 bytes each on CPython 3.11).
_NOT_A_TOKEN_RE = re.compile(r"\s(?![OU][0-9]+[+-](?!\S)|[XY][0-9]+(?!\S))\S")
# A space that does not start a token ending at a space or at the end.
# Searched over ``" " + joined`` for JSON tokens joined by single spaces,
# no match proves every piece between single spaces a token: a token that
# is empty or holds whitespace leaves a piece that is none.
_NOT_A_SPACED_TOKEN_RE = re.compile(r" (?![OU][0-9]+[+-](?![^ ])|[XY][0-9]+(?![^ ]))")
# What each token leaves under ``str.translate``: its id, its role, or its
# sign ("." for a singular token), so that ``split`` lines them up by word.
_IDS_ONLY = str.maketrans("", "", "OUXY+-")
_ROLES_ONLY = str.maketrans("", "", "0123456789+-")
_SIGNS_ONLY = str.maketrans("XY", "..", "0123456789OU")
# Shared records, so that a crossing met twice with the same kind and
# sign finds the very record it declared.
_TOKEN_RECORDS = {"+": CrossingRecord.classical(1), "-": CrossingRecord.classical(-1),
                  ".": CrossingRecord.singular()}


def _number(digits: str, line: int, column: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise DiagramParseError("number is too long", line, column) from None


def _passages(line: str, crossings: dict[int, CrossingRecord], at: tuple[int, int] | None = None,
              words_proven: bool = False) -> tuple[Passage, ...]:
    """One component's passages from its whitespace-separated tokens.

    Declares each crossing met in ``crossings``, shared by both input
    formats: a classical crossing keeps one sign, and no crossing is both
    classical and singular.  A valid line is read in bulk, by C-level
    operations over the whole line: the ``_NOT_A_TOKEN_RE`` gate, ids
    through ``map(int, ...)``, one ``setdefault`` identity test per token
    and ``tuple.__new__`` for the passages.  A line that the gate, ``int``
    or the identity test rejects is read again word by word, which raises
    :class:`DiagramParseError` at the first word that is not a token,
    whose id is too long or whose record clashes.  ``at`` is the line
    and column where ``line`` starts in the caller's input, if it has
    one; the error is placed at its word.  ``words_proven`` skips the
    gate for a caller that has proved every word a token.
    """
    if words_proven or _NOT_A_TOKEN_RE.search(" " + line) is None:
        try:
            ids = list(map(int, line.translate(_IDS_ONLY).split()))
        except ValueError:  # more digits than the interpreter converts
            pass
        else:
            records = list(map(_TOKEN_RECORDS.__getitem__, line.translate(_SIGNS_ONLY).split()))
            if not any(map(is_not, map(crossings.setdefault, ids, records), records)):
                roles = line.translate(_ROLES_ONLY).split()
                return tuple(map(tuple.__new__, repeat(Passage), zip(ids, roles)))
    # The word pass only locates the first bad word: each way the bulk read
    # rejects a line is a word it raises on.  The bulk read may have declared
    # the crossings before its first clash, each with the record its token
    # asks for, so reading the line again from its start meets the same error.
    for word in _WORD_RE.finditer(line):
        digits, sign, sing_digits, other = word.group(2, 3, 5, 6)
        if other:
            message = f"bad token {other!r}"
        else:
            try:
                cid = int(digits or sing_digits)
            except ValueError:  # more digits than the interpreter converts
                message = "crossing id is too long"
            else:
                rec = _TOKEN_RECORDS[sign or "."]
                if crossings.setdefault(cid, rec) is rec:
                    continue
                message = (f"sign mismatch at crossing {cid}"
                           if (crossings[cid].sign is None) == (rec.sign is None)
                           else f"crossing {cid} is both classical and singular")
        if at is None:
            raise DiagramParseError(message)
        raise DiagramParseError(message, at[0], at[1] + word.start())
    raise AssertionError("the bulk read rejected a line that has no bad word")


def _proven_valid(d: TangleDiagram) -> bool:
    """Whether a diagram fresh from the reader passes :func:`validate`.

    The reader declares each crossing by the first token that names it
    and rejects any later token of another kind or sign, so every passage
    has a declared crossing and a role of its kind.  Such a diagram is
    valid exactly when its passages are distinct and two per crossing,
    no id is 0, and its components and slots pass validate's checks.
    """
    n_passages = sum(len(comp.events) for comp in d.components)
    return (n_passages == 2 * len(d.crossings) and 0 not in d.crossings
            and not any(any(_component_problems(ci, comp))
                        for ci, comp in enumerate(d.components, start=1))
            and not any(_slot_problems(d))
            and len(set().union(*(comp.events for comp in d.components))) == n_passages)


def parse(text: str) -> TangleDiagram:
    """Parse the line-oriented diagram format; '#' begins a comment.

    Raises :class:`DiagramParseError` on syntax or sign problems and
    :class:`ValidationFailure` if the parsed diagram is not structurally
    valid.
    """
    header: tuple[int, int] | None = None
    components: list[Component] = []
    crossings: dict[int, CrossingRecord] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise DiagramParseError("expected header 'tangle m=<int> n=<int>'", lineno, 1)
            header = (_number(m.group(1), lineno, 1), _number(m.group(2), lineno, 1))
            continue
        m = _COMPONENT_RE.match(line)
        if not m:
            raise DiagramParseError("expected a 'component ...' line", lineno, 1)
        indent = len(raw) - len(raw.lstrip())
        idx_col = indent + m.start(1) + 1
        idx = _number(m.group(1), lineno, idx_col)
        if idx != len(components) + 1:
            raise DiagramParseError(
                f"component index {idx} out of order (expected {len(components) + 1})",
                lineno, idx_col)
        events = _passages(m.group(5), crossings, (lineno, indent + m.start(5) + 1))
        if m.group(2) == "closed":
            components.append(Component("closed", events))
        else:
            components.append(Component("long", events, m.group(3), m.group(4)))

    if header is None:
        raise DiagramParseError("empty input: missing 'tangle' header", 1, 1)
    d = TangleDiagram(header[0], header[1], tuple(components), crossings)
    return d if _proven_valid(d) else require_valid(d)


def serialize(d: TangleDiagram) -> str:
    """Canonical text form; parse(serialize(d)) == d for valid diagrams."""
    lines = [f"tangle m={d.m} n={d.n}"]
    for idx, comp in enumerate(d.components, start=1):
        tokens = " ".join(ev.token(d.crossings[ev.crossing].sign) for ev in comp.events)
        if comp.kind == "closed":
            head = f"component {idx} closed :"
        else:
            head = f"component {idx} long from {comp.start} to {comp.end} :"
        lines.append(f"{head} {tokens}".rstrip())
    return "\n".join(lines) + "\n"


def to_json(d: TangleDiagram) -> dict:
    return {
        "m": d.m,
        "n": d.n,
        "components": [
            {
                "index": idx,
                "kind": comp.kind,
                "start": comp.start,
                "end": comp.end,
                "events": [ev.token(d.crossings[ev.crossing].sign) for ev in comp.events],
            }
            for idx, comp in enumerate(d.components, start=1)
        ],
    }


def from_json(data: dict) -> TangleDiagram:
    """Build a diagram from the mirror that :func:`to_json` writes.

    Raises :class:`DiagramParseError` when ``data`` does not have the
    mirror's shape or a token is bad, and :class:`ValidationFailure` as
    :func:`parse` does.
    """
    if not isinstance(data, dict):
        raise DiagramParseError("a diagram must be a JSON object")
    for key in ("m", "n"):
        if type(data.get(key)) is not int or data[key] < 0:
            raise DiagramParseError(f"'{key}' must be a non-negative integer")
    entries = data.get("components")
    if not isinstance(entries, list):
        raise DiagramParseError("'components' must be a list")
    components: list[Component] = []
    crossings: dict[int, CrossingRecord] = {}
    for k, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise DiagramParseError(f"component {k}: must be an object")
        kind, start, end = entry.get("kind"), entry.get("start"), entry.get("end")
        tokens = entry.get("events", [])
        if not (isinstance(kind, str) and isinstance(tokens, list)
                and all(slot is None or isinstance(slot, str) for slot in (start, end))):
            raise DiagramParseError(f"component {k}: 'kind' must be a string, 'start' and "
                                    "'end' slot names or null, and 'events' a list")
        try:
            joined = " ".join(tokens)
        except TypeError:  # a token that is not a string
            joined = " "     # which the check below rejects
        # Every piece between single spaces is a token, and there are as
        # many pieces as tokens: so each token is one of them.
        if (_NOT_A_SPACED_TOKEN_RE.search(" " + joined) is None
                and joined.count(" ") == len(tokens) - 1):
            events = _passages(joined, crossings, words_proven=True)
        else:  # read up to the first token of another shape (if any), then reject it
            i = next((i for i, tok in enumerate(tokens)
                      if not isinstance(tok, str) or tok.split() != [tok]), len(tokens))
            events = _passages(" ".join(tokens[:i]), crossings)
            if i < len(tokens):
                raise DiagramParseError(f"bad token {tokens[i]!r}")
        components.append(Component(kind, events, start, end))
    d = TangleDiagram(data["m"], data["n"], tuple(components), crossings)
    return d if _proven_valid(d) else require_valid(d)


# ---------------------------------------------------------------------------
# random diagrams (fuel for the property harnesses)


def random_diagram(seed: int, n_closed: int, n_long: int, n_crossings: int,
                   n_singular: int = 0) -> TangleDiagram:
    """Deterministic pseudo-random valid diagram.

    Every passage is assigned to a uniformly random component and a
    uniformly random position within it; any such assignment is a valid
    virtual tangle, so no realizability filtering is needed.  Long
    component endpoints land on top or bottom boundary uniformly.
    """
    if n_crossings < 0 or n_singular < 0:
        raise ValueError("crossing counts must be >= 0")
    if n_closed < 0 or n_long < 0:
        raise ValueError("component counts must be >= 0")
    total = n_closed + n_long
    if total == 0 and (n_crossings or n_singular):
        raise ValueError("crossings need at least one component")
    rng = random.Random(seed)

    crossings: dict[int, CrossingRecord] = {}
    passages: list[Passage] = []
    for cid in range(1, n_crossings + 1):
        crossings[cid] = CrossingRecord.classical(rng.choice((1, -1)))
        passages.append(Passage(cid, OVER))
        passages.append(Passage(cid, UNDER))
    for cid in range(n_crossings + 1, n_crossings + n_singular + 1):
        crossings[cid] = CrossingRecord.singular()
        passages.append(Passage(cid, SING_PRIMARY))
        passages.append(Passage(cid, SING_SECONDARY))

    buckets: list[list[Passage]] = [[] for _ in range(total)]
    for p in passages:
        buckets[rng.randrange(total)].append(p)
    for bucket in buckets:
        rng.shuffle(bucket)

    top_ends: list[tuple[int, str]] = []
    bottom_ends: list[tuple[int, str]] = []
    for ci in range(n_closed, total):
        for which in ("start", "end"):
            (top_ends if rng.random() < 0.5 else bottom_ends).append((ci, which))
    rng.shuffle(top_ends)
    rng.shuffle(bottom_ends)
    slot_of: dict[tuple[int, str], str] = {}
    for k, key in enumerate(top_ends, start=1):
        slot_of[key] = f"T{k}"
    for k, key in enumerate(bottom_ends, start=1):
        slot_of[key] = f"B{k}"

    components = []
    for ci in range(total):
        events = tuple(buckets[ci])
        if ci < n_closed:
            components.append(Component("closed", events))
        else:
            components.append(Component("long", events, slot_of[(ci, "start")], slot_of[(ci, "end")]))
    return TangleDiagram(len(top_ends), len(bottom_ends), tuple(components), crossings)
