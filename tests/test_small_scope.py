"""Every based closed one-component diagram of 1-3 crossings, checked whole.

The diagrams are enumerated here from chord matchings, apart from the
random walk's own code: each matching of the 2n word positions into n
crossings (numbered by first passage), each choice of which passage is
the Over and each sign.  On every one of them the moves the scan offers
keep the polynomial, the homological oracle agrees, the first-moment
sum rule holds, and the knot-case symmetries of Kauffman's affine index
polynomial (JKTR 2013) hold: reversing the word sends P(t) to P(t^-1),
and either mirror (every sign flipped with Over and Under swapped, or
the signs flipped alone) sends it to -P(t^-1).
"""

from itertools import product

import pytest

from maip.algebra import AffineInt, LaurentPoly, poly_to_json, render
from maip.diagram import parse
from maip.homology import check_prop2, maip_via_homology
from maip.invariant import maip
from maip.moves import apply_site, find_sites


def matchings(points):
    """Every perfect matching of ``points`` as pairs, each pair and the list in order."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for matching in matchings(rest[:k] + rest[k + 1:]):
            yield [(first, other)] + matching


def words(n):
    """Every word of n crossings as (role, crossing, sign) tokens."""
    for matching in matchings(list(range(2 * n))):
        for over_first, signs in product(product((True, False), repeat=n),
                                         product((1, -1), repeat=n)):
            word = [None] * (2 * n)
            for cid, ((a, b), first, sign) in enumerate(zip(matching, over_first, signs), 1):
                ra, rb = ("O", "U") if first else ("U", "O")
                word[a], word[b] = (ra, cid, sign), (rb, cid, sign)
            yield word


def knot(word):
    tokens = " ".join(f"{role}{cid}{'+' if sign > 0 else '-'}" for role, cid, sign in word)
    return parse(f"tangle m=0 n=0\ncomponent 1 closed : {tokens}\n")


def inverted(poly):
    """P(t^-1) for a polynomial with constant exponents."""
    terms = poly.terms
    assert all(not e.p for _, e in terms)
    return LaurentPoly({(var, AffineInt(-e.const)): c for (var, e), c in terms.items()})


SWAP = {"O": "U", "U": "O"}


@pytest.mark.parametrize("n, n_diagrams, n_polys, n_sites",
                         [(1, 4, 1, 4), (2, 48, 3, 56), (3, 960, 17, 1176)])
def test_every_small_knot_diagram(n, n_diagrams, n_polys, n_sites):
    diagrams = sites = 0
    rendered = set()
    for word in words(n):
        d = knot(word)
        poly = maip(d)
        diagrams += 1
        rendered.add(render(poly))
        # The first-moment sum rule with delta = 0 on one closed component.
        assert sum(term["coeff"] * term["exp"]["const"] for term in poly_to_json(poly)) == 0
        for kind_sites in find_sites(d).values():
            for site in kind_sites:
                sites += 1
                assert maip(apply_site(d, site)) == poly, site.describe()
        assert check_prop2(d).ok
        assert maip_via_homology(d) == poly
        assert maip(knot(word[::-1])) == inverted(poly)
        assert maip(knot([(SWAP[r], c, -s) for r, c, s in word])) == -1 * inverted(poly)
        assert maip(knot([(r, c, -s) for r, c, s in word])) == -1 * inverted(poly)
    assert (diagrams, len(rendered), sites) == (n_diagrams, n_polys, n_sites)
