"""Exact arithmetic for the invariant polynomial and its exponents.

Every exponent is ``k + c_p - c_q`` (:class:`AffineInt`): a crossing's
weight k + c_i - c_j over the per-component starting-label symbols
``c_1, c_2, ...``, shifted by an integer delta_j, or a plain integer.
That integer shift is the only arithmetic on an exponent; symbols are
evaluated on a whole polynomial (:func:`substitute_symbols`).
The invariant is a Laurent polynomial in variables ``t_1, t_2, ...``
with such exponents and plain Python int coefficients, so nothing ever
overflows or rounds (:class:`LaurentPoly`).

A polynomial stores each term ``coeff * t_var^(const + c_p - c_q)`` as

    (var, lo, up, hi, const)  ->  nonzero int

with lo = min(p, q), hi = max(p, q) and up = (p < q); a constant
exponent has lo = hi = 0 and up false.  Any term with exponent 0 lives
under the single key ``(0, 0, False, 0, 0)``, var 0 standing for no
variable: t_i^0 and t_j^0 are both the constant 1, and contributions
from different variables must merge and cancel.  The natural order of
these tuples is the canonical term order, so :func:`render` and
:func:`poly_json_text` sort with plain ``sorted``.  Only this module knows
the layout: :func:`_key` builds a key, the constructor takes a mapping
with ``(variable index | None, AffineInt)`` keys, :attr:`LaurentPoly.terms`
gives them back, and :func:`from_weight_sums` builds the invariant from
its integer sums.

Polynomials are output only: :func:`render` writes the text form and
:func:`poly_json_text` the JSON form, each as text in one pass over the
sorted keys.  :func:`poly_to_json` is that JSON text read back into
lists and dicts, for callers that inspect the terms; nothing reads a
polynomial from input.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import MissingSymbol, SymbolicExponent


# ---------------------------------------------------------------------------
# exponents


class AffineInt(NamedTuple):
    """The exponent ``const + c_p - c_q``, with p = q = 0 for a constant.

    A crossing's weight k + c_i - c_j, shifted by an integer delta_j, or
    delta_j alone: no exponent of the invariant has another shape.  Build
    a symbolic one with :func:`affine_weight`, which keeps p != q; equality
    and hashing are those of the three ints.  Only an int can be added,
    which shifts const; exponents neither add nor multiply.
    """

    const: int = 0
    p: int = 0
    q: int = 0

    @staticmethod
    def of(const: int = 0, coeffs: Mapping[int, int] | None = None) -> "AffineInt":
        """``const + sum a_i*c_i``; the nonzero a_i must be {} or {p: 1, q: -1}."""
        syms = {i: a for i, a in (coeffs or {}).items() if a}
        if not syms:
            return AffineInt(const)
        by_coeff = {a: i for i, a in syms.items()}
        if len(syms) != 2 or set(by_coeff) != {1, -1} or min(syms) < 1:
            raise ValueError(f"not an exponent k + c_p - c_q: {syms}")
        return affine_weight(by_coeff[1], by_coeff[-1], const)

    def __add__(self, other: int) -> "AffineInt":
        if not isinstance(other, int):
            return NotImplemented
        return AffineInt(self.const + other, self.p, self.q)

    __radd__ = __add__

    def __mul__(self, other):  # not tuple repetition: an exponent has no product
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.const != 0 or self.p != 0

    def __str__(self) -> str:
        const, p, q = self
        if not p:
            return str(const)
        return _exponent_text(p, True, q, const) if p < q else _exponent_text(q, False, p, const)


def affine_weight(i: int, j: int, k: int) -> AffineInt:
    """k + c_i - c_j, the one exponent shape of a crossing's weight.

    With i the over and j the under component, a crossing's record
    (sign, i, j, k) has this weight; the symbol part is 0 when i = j.
    """
    return AffineInt(k) if i == j else AffineInt(k, i, j)


def _exponent_text(lo: int, up: bool, hi: int, const: int) -> str:
    """The exponent of a stored key as text, e.g. ``c1-c3-1``, ``-c1+c2`` or ``-2``."""
    if not lo:
        return str(const)
    syms = f"c{lo}-c{hi}" if up else f"-c{lo}+c{hi}"
    return f"{syms}{const:+d}" if const else syms


# ---------------------------------------------------------------------------
# Laurent polynomials with affine exponents


_CONSTANT = (0, 0, False, 0, 0)     # the key of the constant term


class LaurentPoly:
    """Normalised integer Laurent polynomial with AffineInt exponents.

    Built from a mapping ``(variable index | None, AffineInt) -> int``;
    treat instances as immutable values, and all arithmetic returns new
    polynomials.  The zero polynomial has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int | None, AffineInt], int]):
        def keyed():
            for (var, (const, p, q)), coeff in terms.items():
                key = _key(var, p, q, const)
                if var is None and key is not _CONSTANT:
                    raise ValueError("variable-free terms must have exponent 0")
                yield key, coeff
        self._terms = _merged(keyed())

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _poly({})

    @property
    def terms(self) -> dict[tuple[int | None, AffineInt], int]:
        """The terms keyed as the constructor takes them."""
        out = {}
        for (var, lo, up, hi, const), coeff in self._terms.items():
            exp = (const, lo, hi) if up else (const, hi, lo)
            out[var or None, tuple.__new__(AffineInt, exp)] = coeff
        return out

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            coeff += terms.get(key, 0)
            if coeff:
                terms[key] = coeff
            else:
                del terms[key]
        return _poly(terms)

    def __rmul__(self, k: int) -> "LaurentPoly":
        return _poly({key: k * c for key, c in self._terms.items()} if k else {})

    def symbols(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for _, lo, _, hi, _ in self._terms:
            if lo:
                seen.update((lo, hi))
        return tuple(sorted(seen))

    def __repr__(self) -> str:
        return f"LaurentPoly({render(self)!r})"


def _key(var: int, p: int, q: int, const: int) -> tuple:
    """The stored key of t_var^(const + c_p - c_q); p = q makes the exponent constant."""
    if p < q:
        return (var, p, True, q, const)
    if p > q:
        return (var, q, False, p, const)
    return (var, 0, False, 0, const) if const else _CONSTANT


def _poly(terms: dict[tuple, int]) -> LaurentPoly:
    """A polynomial over stored keys that are already merged, with no zero coefficient."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


def _merged(pairs: Iterable[tuple[tuple, int]]) -> dict[tuple, int]:
    """Terms over stored keys that may repeat or sum to zero, merged, zeros dropped."""
    terms: dict[tuple, int] = {}
    for key, coeff in pairs:
        terms[key] = terms.get(key, 0) + coeff
    return {k: c for k, c in terms.items() if c}


def from_weight_sums(sums: Mapping[tuple[int, int, int], int]) -> LaurentPoly:
    """The sum of coeff * t_i^(const + c_i - c_j) over ``sums[(i, j, const)]``.

    The exponent is the constant ``const`` when i = j.  Keys with distinct
    (i, j, const) stay distinct, except that every constant exponent 0
    is the constant term, so only those merge.
    """
    terms: dict[tuple, int] = {}
    constant = 0
    for (i, j, const), coeff in sums.items():
        if not coeff:
            continue
        # _key(i, i, j, const), inlined: this is maip's hot path, and a call
        # per term made it 1.4x slower (0.060 -> 0.084 ms at 1600 crossings, Xeon)
        if i != j:
            terms[(i, i, True, j, const) if i < j else (i, j, False, i, const)] = coeff
        elif const:
            terms[(i, 0, False, 0, const)] = coeff
        else:
            constant += coeff
    if constant:
        terms[_CONSTANT] = constant
    return _poly(terms)


def substitute_symbols(p: LaurentPoly, assignment: Mapping[int, int]) -> LaurentPoly:
    """Replace every symbol c_i with assignment[i]; exponents become constants."""
    def pairs():
        for (var, lo, up, hi, const), coeff in p._terms.items():
            if lo:
                missing = [i for i in (lo, hi) if i not in assignment]
                if missing:
                    raise MissingSymbol("no value for " + ", ".join(f"c{i}" for i in missing))
                const += assignment[lo] - assignment[hi] if up else assignment[hi] - assignment[lo]
            yield _key(var, 0, 0, const), coeff
    return _poly(_merged(pairs()))


def collapse_variables(p: LaurentPoly) -> LaurentPoly:
    """Rename every variable to t_1, merging like terms (one-variable reduction)."""
    for (_, lo, up, hi, const) in p._terms:
        if lo:
            raise SymbolicExponent(f"exponent {_exponent_text(lo, up, hi, const)} "
                                   "still symbolic; substitute first")
    return _poly(_merged((_key(1 if var else 0, 0, 0, const), coeff)
                         for (var, _, _, _, const), coeff in p._terms.items()))


def reindex(p: LaurentPoly, index_map: Mapping[int, int]) -> LaurentPoly:
    """Renumber t_i and c_i together by ``index_map`` (missing entries stay fixed).

    Both symbols of an exponent sent to one index cancel, leaving its
    constant.
    """
    get = index_map.get

    def pairs():
        for (var, lo, up, hi, const), coeff in p._terms.items():
            plus, minus = (lo, hi) if up else (hi, lo)
            yield _key(get(var, var), get(plus, plus), get(minus, minus), const), coeff
    return _poly(_merged(pairs()))


# ---------------------------------------------------------------------------
# canonical text form


def render(p: LaurentPoly) -> str:
    """Canonical string form, e.g. ``t1^(c1-c3-1) - t2^(c2-c3)``.

    Terms are ordered by variable index (the constant term first), then
    by symbol-coefficient vector, then by exponent constant, which makes
    the form injective on normalised polynomials.
    """
    terms = p._terms
    pieces = []
    for key in sorted(terms):      # keys, not items: a list of int tuples sorts faster
        var, lo, up, hi, const = key
        coeff = terms[key]
        mag = abs(coeff)
        if not var:
            body = str(mag)
        else:
            body = f"t{var}" if mag == 1 else f"{mag}t{var}"
            if lo or const != 1:
                body = f"{body}^({_exponent_text(lo, up, hi, const)})"
        pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    if not pieces:
        return "0"
    # the first term carries its sign with no space: "t1 - t2", "-t1 + t2"
    pieces[0] = pieces[0][2:] if pieces[0][0] == "+" else "-" + pieces[0][2:]
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# JSON form


def poly_json_text(p: LaurentPoly) -> str:
    """The JSON form as text, terms in canonical order, e.g.
    ``[{"var": 1, "coeff": -1, "exp": {"const": -1, "syms": {"c1": 1, "c3": -1}}}]``.

    ``var`` is null for the constant term.  The text is what ``json.dumps``
    prints for :func:`poly_to_json`, written in one pass over the sorted
    keys: building a dict per term and dumping it took 3.4x as long (313
    -> 92 us at 131 terms, Xeon).
    """
    terms = p._terms
    syms_text: dict[tuple, str] = {}    # (lo, up, hi) -> its "syms" object
    pieces = []
    for key in sorted(terms):
        var, lo, up, hi, const = key
        syms = syms_text.get((lo, up, hi))
        if syms is None:
            syms = syms_text[lo, up, hi] = (
                "{}" if not lo else f'{{"c{lo}": 1, "c{hi}": -1}}' if up
                else f'{{"c{lo}": -1, "c{hi}": 1}}')
        pieces.append(f'{{"var": {var or "null"}, "coeff": {terms[key]}, '
                      f'"exp": {{"const": {const}, "syms": {syms}}}}}')
    return f"[{', '.join(pieces)}]"


def poly_to_json(p: LaurentPoly) -> list[dict]:
    """The JSON form as a structure: :func:`poly_json_text` read back."""
    import json     # here, so that importing this module does not load json

    return json.loads(poly_json_text(p))
