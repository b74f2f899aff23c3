"""Shared test helpers."""

from fractions import Fraction

import pytest

from polyshift.counting import ZonotopeSpec
from polyshift.geometry import Polytope, _facet_sets

# generators (1, 0), (0, 1), (1, 1): a hexagon of area 3
HEXAGON = ZonotopeSpec(2, ((1, 0), (0, 1), (1, 1)))


def on_boundary(p, x):
    """Whether x lies on the topological boundary of the polytope p.  Every
    point of a lower-dimensional polytope is boundary."""
    if not p.contains(x):
        return False
    return not p.is_full_dim or any(h.value(x) == 0 for h in p.facets())


def pulling_fan(on, s, r):
    """The pulling triangulation of the rank-r face with vertex bitset `s`
    by the general face recursion, polygons included: the face's lowest
    vertex coned over the fans of its facets (`_facet_sets`, in the order
    of their first inequality in `on`) that miss it."""
    i0 = (s & -s).bit_length() - 1
    if r == 0:
        return [(i0,)]
    if r == 1:
        return [(i0, s.bit_length() - 1)]
    return [(i0,) + f for t in _facet_sets(on, s) if not t >> i0 & 1
            for f in pulling_fan(on, t, r - 1)]


def pack_draws(draws):
    """Dyadic draws' numerators over 2**64 as `ShiftStream.block` returns
    them: little-endian 64-bit words, draw by draw."""
    return b"".join(x.to_bytes(8, "little") for m in draws for x in m)


def reeve_layer_triangle(n, k, w):
    """Cross-section footprint of the height-n tetrahedron at level k for
    vertical offset w, dropped to the plane: the right triangle with legs
    from (k-w)/n to 1."""
    c = (Fraction(k) - Fraction(w)) / n
    return Polytope(2, [(c, 1), (1, c), (c, c)])


@pytest.fixture
def mc_pvalue():
    """Chi-square goodness-of-fit p-value of an empirical law against an
    exact one, by scipy as an independent reference.  Every sampled count
    must lie in the exact support, and every expected bin must hold at
    least 5 draws."""
    from scipy.stats import chisquare

    def pvalue(exact, emp):
        support = exact.support()
        outside = set(emp.support()) - set(support)
        assert not outside, f"sampled counts outside the exact support: {sorted(outside)}"
        expected = [float(emp.samples * exact.probability(m)) for m in support]
        assert min(expected) >= 5, f"expected bin count {min(expected)} below 5"
        observed = [int(emp.probability(m) * emp.samples) for m in support]
        return chisquare(observed, expected).pvalue

    return pvalue
