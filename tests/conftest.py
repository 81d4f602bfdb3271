from pathlib import Path

import pytest

from maip.algebra import AffineInt, LaurentPoly
from maip.diagram import parse

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
