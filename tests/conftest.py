from pathlib import Path

import pytest

from maip.algebra import AffineInt, LaurentPoly
from maip.diagram import parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.tangle").read_text()


def load(name: str):
    return parse(fixture_text(name))


def sym(i):
    """The start-label symbol c_i."""
    return AffineInt.symbol(i)


def weight(rec):
    """A record (sign, i, j, k)'s weight k + c_i - c_j, in AffineInt arithmetic."""
    _, i, j, k = rec
    return sym(i) - sym(j) + k


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
