import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maip.algebra import (AffineInt, LaurentPoly, affine_weight, collapse_variables,
                          poly_json_text, poly_to_json, reindex, render, substitute_symbols)
from maip.errors import SymbolicExponent

from conftest import aff, const, mono


# ---------------------------------------------------------------------------
# strategies

consts = st.integers(min_value=-40, max_value=40)
symbol_indices = st.integers(min_value=1, max_value=11)
affine_ints = st.one_of(consts.map(AffineInt),
                        st.builds(affine_weight, symbol_indices, symbol_indices, consts))

term_keys = st.tuples(st.integers(min_value=1, max_value=12), affine_ints)
polys = st.builds(
    lambda entries, const: LaurentPoly({**entries, (None, AffineInt(0)): const}),
    st.dictionaries(term_keys, st.integers(min_value=-25, max_value=25), max_size=6),
    st.integers(min_value=-25, max_value=25),
)


# ---------------------------------------------------------------------------
# exponents


def test_affine_add_constant_shift():
    assert aff(-2, c1=1, c2=-1) + 1 == aff(-1, c1=1, c2=-1)
    assert 1 + aff(-2, c1=1, c2=-1) == aff(-1, c1=1, c2=-1)
    assert aff(-2, c1=1, c2=-1) + -1 == aff(-3, c1=1, c2=-1)


def test_affine_add_pairing_shift():
    # the shifted weight that shows up at a positive mixed crossing
    assert affine_weight(1, 3, 0) + (-1) == aff(-1, c1=1, c3=-1)
    assert str(affine_weight(1, 3, 0) + -1) == "c1-c3-1"
    assert str(affine_weight(3, 1, 0) + -1) == "-c1+c3-1"


def test_affine_add_cancellation():
    # c_i - c_i cancels to the constant, which is false only when it is 0
    assert affine_weight(2, 2, 0) == AffineInt(0) == aff(0, c2=0)
    assert not affine_weight(2, 2, 0)
    assert not AffineInt(3) + -3
    assert affine_weight(1, 2, 3) + -3
    assert affine_weight(2, 2, 3) == AffineInt(3)


@given(affine_ints, affine_ints, st.integers(-9, 9), st.integers(-9, 9))
def test_affine_group_laws(a, b, m, n):
    assert (a + m) + n == a + (m + n)
    assert a + 0 == a
    assert (a + m) + -m == a
    assert bool(a) == (a != AffineInt(0))
    # exponents do not add: only an int shifts one
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a - b
    with pytest.raises(TypeError):
        a * 2


def test_of_takes_only_the_weight_shape():
    for coeffs in ({1: 2}, {1: 1}, {1: 1, 2: 1, 3: -1}, {1: -1}, {0: 1, 2: -1}):
        with pytest.raises(ValueError):
            AffineInt.of(0, coeffs)
    assert AffineInt.of(4, {3: 0}) == AffineInt(4)
    assert AffineInt.of(4, {3: 1, 2: -1, 5: 0}) == affine_weight(3, 2, 4)
    assert AffineInt.of(4, {}) == AffineInt.of(4) == AffineInt(4)


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_add_cancels():
    p = mono(1, 1) + const(-1)
    q = const(1) + mono(1, 1, -1)
    assert not (p + q)


def test_poly_add_merges_mixed_variables():
    # t1^(c1-c3-1) - 1 plus 1 - t2^(c2-c3)
    p = mono(1, aff(-1, c1=1, c3=-1)) + const(-1)
    q = const(1) + mono(2, aff(0, c2=1, c3=-1), -1)
    total = p + q
    assert total == (mono(1, aff(-1, c1=1, c3=-1))
                     + mono(2, aff(0, c2=1, c3=-1), -1))


@given(polys, polys, polys)
def test_poly_add_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + LaurentPoly.zero() == p
    assert not (p + (-1) * p)


def test_zero_exponents_merge_across_variables():
    p = mono(1, 0, 3) + mono(2, 0, -1)
    assert p == const(2)


# ---------------------------------------------------------------------------
# substitution and collapse


def test_substitute_zero_assignment():
    p = mono(1, aff(0, c1=1, c2=-1)) + mono(1, 1, -1)
    assert substitute_symbols(p, {1: 0, 2: 0}) == (
        const(1) + mono(1, 1, -1))


def test_substitute_example_result():
    # t1^(c1-c3-1) - t2^(c2-c3) at c=0 -> t1^(-1) - 1
    p = (mono(1, aff(-1, c1=1, c3=-1))
         + mono(2, aff(0, c2=1, c3=-1), -1))
    assert substitute_symbols(p, {1: 0, 2: 0, 3: 0}) == (
        mono(1, -1) + const(-1))


def test_substitute_zero_poly():
    assert substitute_symbols(LaurentPoly.zero(), {}) == LaurentPoly.zero()


@given(polys, polys)
def test_substitute_commutes_with_add(p, q):
    assignment = {i: i for i in range(1, 12)}
    lhs = substitute_symbols(p + q, assignment)
    rhs = substitute_symbols(p, assignment) + substitute_symbols(q, assignment)
    assert lhs == rhs


def test_collapse_cancellation():
    p = mono(1, 2) + mono(2, 2, -1)
    assert not collapse_variables(p)


def test_collapse_single_variable_noop():
    p = mono(1, -1) + const(-1)
    assert collapse_variables(p) == p


def test_collapse_merges_coefficients():
    p = mono(1, 1) + mono(2, 1)
    assert collapse_variables(p) == mono(1, 1, 2)


def test_collapse_rejects_symbols():
    with pytest.raises(SymbolicExponent):
        collapse_variables(mono(1, aff(0, c1=1, c2=-1)))


def test_reindex_swaps_variables_and_symbols():
    p = mono(1, aff(0, c1=1, c3=-1)) + mono(2, aff(2, c2=1, c1=-1), -1)
    q = reindex(p, {1: 2, 2: 1})
    assert q == mono(2, aff(0, c2=1, c3=-1)) + mono(1, aff(2, c1=1, c2=-1), -1)
    # both symbols of a term sent to one index cancel; the term then
    # merges with the existing term of the same constant exponent
    p = mono(1, aff(2, c1=1, c2=-1)) + mono(3, 2, -1) + mono(1, aff(0, c2=1, c1=-1)) + const(-1)
    assert not reindex(p, {2: 1, 3: 1})
    q = reindex(mono(2, aff(-1, c3=1, c2=-1)), {3: 2})
    assert q == mono(2, -1) and q.symbols() == ()


# ---------------------------------------------------------------------------
# rendering and JSON


def test_render_zero():
    assert render(LaurentPoly.zero()) == "0"


def test_render_example_polynomial():
    p = (mono(1, aff(-1, c1=1, c3=-1))
         + mono(2, aff(0, c2=1, c3=-1), -1))
    assert render(p) == "t1^(c1-c3-1) - t2^(c2-c3)"


def test_render_constant_leads():
    p = const(1) + mono(1, -1, -1)
    assert render(p) == "1 - t1^(-1)"


def test_render_bare_variable_and_coefficient():
    p = mono(1, 1, 2) + mono(1, 3, -1)
    assert render(p) == "2t1 - t1^(3)"


@given(polys, polys)
def test_render_injective(p, q):
    if render(p) == render(q):
        assert p == q


@given(polys, polys)
def test_json_injective(p, q):
    if poly_to_json(p) == poly_to_json(q):
        assert p == q


def reference_json(p):
    """The JSON form built one dict per term, as the package built it before
    it wrote the text directly; it reads the stored keys for their order."""
    terms = p._terms
    out = []
    for key in sorted(terms):
        var, lo, up, hi, const = key
        syms = {} if not lo else {f"c{lo}": 1, f"c{hi}": -1} if up else {f"c{lo}": -1, f"c{hi}": 1}
        out.append({"var": var or None, "coeff": terms[key],
                    "exp": {"const": const, "syms": syms}})
    return out


def assert_json_forms(p):
    assert poly_json_text(p) == json.dumps(reference_json(p))
    assert poly_to_json(p) == reference_json(p)


@given(polys)
def test_json_text_matches_reference(p):
    assert_json_forms(p)


def test_json_zero():
    assert poly_json_text(LaurentPoly.zero()) == "[]"
    assert poly_to_json(LaurentPoly.zero()) == []


def test_json_constant_only():
    p = const(-3)
    assert poly_json_text(p) == '[{"var": null, "coeff": -3, "exp": {"const": 0, "syms": {}}}]'
    assert_json_forms(p)


def test_json_example_polynomial():
    p = mono(1, aff(-1, c1=1, c3=-1)) + mono(2, aff(0, c2=1, c3=-1), -1)
    assert poly_json_text(p) == (
        '[{"var": 1, "coeff": 1, "exp": {"const": -1, "syms": {"c1": 1, "c3": -1}}}, '
        '{"var": 2, "coeff": -1, "exp": {"const": 0, "syms": {"c2": 1, "c3": -1}}}]')
    assert_json_forms(p)


@pytest.mark.parametrize("coeff", [2**64, -(2**64) - 1, 3**200])
def test_json_big_coefficients(coeff):
    p = mono(1, aff(2, c3=1, c1=-1), coeff) + const(coeff)
    assert f'"coeff": {coeff}, ' in poly_json_text(p)
    assert_json_forms(p)


def test_json_negative_constants():
    p = mono(1, -4, 2) + mono(2, aff(-7, c2=1, c1=-1), -5) + mono(3, aff(-1, c1=1, c2=-1))
    assert poly_json_text(p).count('"const": -') == 3
    assert_json_forms(p)


def test_json_many_symbol_pairs():
    # every ordered pair of 12 symbols under three variables, so each pair's
    # "syms" text is reused; i = j gives exponent 0, the one constant term
    p = LaurentPoly({(var, affine_weight(i, j, i - j)): -var
                     for var in (1, 2, 4) for i in range(1, 13) for j in range(1, 13)})
    assert len(poly_to_json(p)) == 3 * 12 * 11 + 1
    assert_json_forms(p)
