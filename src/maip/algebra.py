"""Exact arithmetic for the invariant polynomial and its exponents.

Every exponent is ``k + c_p - c_q`` (:class:`AffineInt`): a crossing's
weight k + c_i - c_j over the per-component starting-label symbols
``c_1, c_2, ...``, shifted by an integer delta_j, or a plain integer.
The invariant is a Laurent polynomial in variables ``t_1, t_2, ...``
with such exponents and plain Python int coefficients, so nothing ever
overflows or rounds (:class:`LaurentPoly`).

A polynomial is stored as a mapping

    (variable index | None, exponent: AffineInt)  ->  nonzero int

normalised so that any term with exponent 0 lives under the single
variable-free key ``(None, 0)``: t_i^0 and t_j^0 are both the constant 1,
and contributions from different variables must merge and cancel.

Polynomials are output only: :func:`render` and :func:`poly_to_json`
write them, and nothing reads them back.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple

from .errors import MissingSymbol, SymbolicExponent


# ---------------------------------------------------------------------------
# exponents


class AffineInt(NamedTuple):
    """The exponent ``const + c_p - c_q``, with p = q = 0 for a constant.

    A crossing's weight k + c_i - c_j, shifted by an integer delta_j, or
    delta_j alone: no exponent of the invariant has another shape.  Build
    a symbolic one with :func:`affine_weight`, which keeps p != q; equality
    and hashing are those of the three ints.  Only an int can be added or
    subtracted, and negation swaps p and q.
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

    def __sub__(self, other: int) -> "AffineInt":
        return self + -other if isinstance(other, int) else NotImplemented

    def __mul__(self, other):  # not tuple repetition: an exponent has no product
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "AffineInt":
        return AffineInt(-self.const, self.q, self.p)

    def __bool__(self) -> bool:
        return self.const != 0 or self.p != 0

    @property
    def is_constant(self) -> bool:
        return not self.p

    def symbols(self) -> tuple[int, ...]:
        return tuple(sorted((self.p, self.q))) if self.p else ()

    def substitute(self, assignment: Mapping[int, int]) -> int:
        """Evaluate at integer values for every symbol present."""
        const, p, q = self
        if not p:
            return const
        missing = [i for i in self.symbols() if i not in assignment]
        if missing:
            names = ", ".join(f"c{i}" for i in missing)
            raise MissingSymbol(f"no value for {names}")
        return const + assignment[p] - assignment[q]

    def rename_symbols(self, sym_map: Mapping[int, int]) -> "AffineInt":
        if not self.p:
            return self
        return affine_weight(sym_map.get(self.p, self.p), sym_map.get(self.q, self.q), self.const)

    def __str__(self) -> str:
        const, p, q = self
        out = "" if not p else f"c{p}-c{q}" if p < q else f"-c{q}+c{p}"
        if const or not out:
            out += f"{const:+d}"
        return out.removeprefix("+")


def affine_weight(i: int, j: int, k: int) -> AffineInt:
    """k + c_i - c_j, the one exponent shape of a crossing's weight.

    With i the over and j the under component, a crossing's record
    (sign, i, j, k) has this weight; the symbol part is 0 when i = j.
    """
    return AffineInt(k) if i == j else AffineInt(k, i, j)


ZERO = AffineInt(0)
ONE = AffineInt(1)


# ---------------------------------------------------------------------------
# Laurent polynomials with affine exponents


TermKey = tuple[int | None, AffineInt]


class LaurentPoly:
    """Normalised integer Laurent polynomial with AffineInt exponents.

    Treat instances as immutable values; all arithmetic returns new
    polynomials.  The zero polynomial has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, int] | Iterable[tuple[TermKey, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[TermKey, int] = {}
        for (var, exp), coeff in items:
            if not exp:
                var, exp = None, ZERO
            elif var is None:
                raise ValueError("variable-free terms must have exponent 0")
            key = (var, exp)
            merged[key] = merged.get(key, 0) + coeff
        self._terms = {k: c for k, c in merged.items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @property
    def terms(self) -> dict[TermKey, int]:
        return dict(self._terms)

    def items_sorted(self) -> list[tuple[TermKey, int]]:
        return sorted(self._terms.items(), key=lambda kv: _term_key(*kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(itertools.chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __rmul__(self, k: int) -> "LaurentPoly":
        return LaurentPoly({key: k * c for key, c in self._terms.items()})

    def symbols(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for _, exp in self._terms:
            seen.update(exp.symbols())
        return tuple(sorted(seen))

    def __repr__(self) -> str:
        return f"LaurentPoly({render(self)!r})"


def _term_key(var: int | None, exp: AffineInt):
    const, p, q = exp
    return (0 if var is None else var, min(p, q), p < q, max(p, q), const)


def substitute_symbols(p: LaurentPoly, assignment: Mapping[int, int]) -> LaurentPoly:
    """Replace every symbol c_i with assignment[i]; exponents become constants."""
    return LaurentPoly(((v, AffineInt(exp.substitute(assignment))), coeff)
                       for (v, exp), coeff in p.terms.items())


def collapse_variables(p: LaurentPoly) -> LaurentPoly:
    """Rename every variable to t_1, merging like terms (one-variable reduction)."""
    for _, exp in p.terms:
        if not exp.is_constant:
            raise SymbolicExponent(f"exponent {exp} still symbolic; substitute first")
    return LaurentPoly(((None if v is None else 1, exp), coeff)
                       for (v, exp), coeff in p.terms.items())


def reindex(p: LaurentPoly, index_map: Mapping[int, int]) -> LaurentPoly:
    """Renumber t_i and c_i together by ``index_map`` (missing entries stay fixed)."""
    return LaurentPoly(((None if v is None else index_map.get(v, v),
                         exp.rename_symbols(index_map)), coeff)
                       for (v, exp), coeff in p.terms.items())


# ---------------------------------------------------------------------------
# canonical text form


def render(p: LaurentPoly) -> str:
    """Canonical string form, e.g. ``t1^(c1-c3-1) - t2^(c2-c3)``.

    Terms are ordered by variable index (the constant term first), then
    by symbol-coefficient vector, then by exponent constant, which makes
    the form injective on normalised polynomials.
    """
    items = p.items_sorted()
    if not items:
        return "0"
    pieces = []
    for idx, ((var, exp), coeff) in enumerate(items):
        mag = abs(coeff)
        if var is None:
            body = str(mag)
        else:
            prefix = "" if mag == 1 else str(mag)
            if exp == ONE:
                body = f"{prefix}t{var}"
            else:
                body = f"{prefix}t{var}^({exp})"
        if idx == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# JSON form


def affine_to_json(a: AffineInt) -> dict:
    const, p, q = a
    syms = {} if not p else {f"c{p}": 1, f"c{q}": -1} if p < q else {f"c{q}": -1, f"c{p}": 1}
    return {"const": const, "syms": syms}


def poly_to_json(p: LaurentPoly) -> list[dict]:
    return [
        {"var": var, "coeff": coeff, "exp": affine_to_json(exp)}
        for (var, exp), coeff in p.items_sorted()
    ]

