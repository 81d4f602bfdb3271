"""Exact arithmetic for arc labels and the invariant polynomial.

Arc labels, index differences and crossing weights are affine integer
expressions ``k + sum_i a_i*c_i`` over the per-component starting-label
symbols ``c_1, c_2, ...`` (:class:`AffineInt`).  The invariant is a
Laurent polynomial in variables ``t_1, t_2, ...`` whose exponents are
such affine expressions and whose coefficients are plain Python ints,
so nothing ever overflows or rounds (:class:`LaurentPoly`).

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
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MissingSymbol, SymbolicExponent


# ---------------------------------------------------------------------------
# affine integer expressions


@dataclass(frozen=True)
class AffineInt:
    """An integer plus an integer combination of label symbols c_i.

    ``coeffs`` holds (symbol index, nonzero coefficient) pairs sorted by
    index; equality and hashing are structural, so two expressions are
    equal exactly when constant and coefficients agree.
    """

    const: int = 0
    coeffs: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(const: int = 0, coeffs: Mapping[int, int] | None = None) -> "AffineInt":
        return AffineInt(const, _norm_coeffs(coeffs or {}))

    @staticmethod
    def symbol(i: int) -> "AffineInt":
        if i < 1:
            raise ValueError(f"symbol index must be >= 1, got {i}")
        return AffineInt(0, ((i, 1),))

    def __add__(self, other: "AffineInt | int") -> "AffineInt":
        if isinstance(other, int):
            return AffineInt(self.const + other, self.coeffs)
        merged = dict(self.coeffs)
        for i, a in other.coeffs:
            merged[i] = merged.get(i, 0) + a
        return AffineInt(self.const + other.const, _norm_coeffs(merged))

    __radd__ = __add__

    def __neg__(self) -> "AffineInt":
        return AffineInt(-self.const, tuple((i, -a) for i, a in self.coeffs))

    def __sub__(self, other: "AffineInt | int") -> "AffineInt":
        return self + (-other if isinstance(other, AffineInt) else -other)

    def __bool__(self) -> bool:
        return bool(self.const or self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def symbols(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coeffs)

    def substitute(self, assignment: Mapping[int, int]) -> int:
        """Evaluate at integer values for every symbol present."""
        missing = [i for i, _ in self.coeffs if i not in assignment]
        if missing:
            names = ", ".join(f"c{i}" for i in missing)
            raise MissingSymbol(f"no value for {names}")
        return self.const + sum(a * assignment[i] for i, a in self.coeffs)

    def rename_symbols(self, sym_map: Mapping[int, int]) -> "AffineInt":
        merged: dict[int, int] = {}
        for i, a in self.coeffs:
            j = sym_map.get(i, i)
            merged[j] = merged.get(j, 0) + a
        return AffineInt(self.const, _norm_coeffs(merged))

    def __str__(self) -> str:
        parts = []
        for i, a in self.coeffs:
            if a == 1:
                parts.append(f"+c{i}")
            elif a == -1:
                parts.append(f"-c{i}")
            else:
                parts.append(f"{a:+d}c{i}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def _norm_coeffs(coeffs: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((i, a) for i, a in coeffs.items() if a != 0))


def affine_weight(i: int, j: int, k: int) -> AffineInt:
    """k + c_i - c_j, the one exponent shape of a crossing's weight.

    With i the over and j the under component, a crossing's record
    (sign, i, j, k) has this weight; the symbol part is 0 when i = j.
    """
    if i == j:
        return AffineInt(k)
    return AffineInt(k, ((i, 1), (j, -1)) if i < j else ((j, -1), (i, 1)))


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
    return (0 if var is None else var, exp.coeffs, exp.const)


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
    return {"const": a.const, "syms": {f"c{i}": k for i, k in a.coeffs}}


def poly_to_json(p: LaurentPoly) -> list[dict]:
    return [
        {"var": var, "coeff": coeff, "exp": affine_to_json(exp)}
        for (var, exp), coeff in p.items_sorted()
    ]

