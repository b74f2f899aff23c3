"""Exact distributions, moment engines, their cross-validation, Monte Carlo.

The covariance lattice-sum identity is validated here against brute-force
midpoint integration on a 1/512 grid (within 2%) in dimensions 1 and 2
before the rest of the suite relies on it exactly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polyshift.counting as counting
import polyshift.distributions as distributions
from polyshift.catalog import (
    central_slab,
    centrally_symmetric_polytope,
    cross_polytope,
    prism_over_embedded,
    random_lattice_polytope,
    reeve_tetrahedron,
    scaling_decomposition,
    standard_simplex,
)
from polyshift.counting import count_at, zonotope_polytope
from polyshift.distributions import (
    CountDistribution,
    exact_covariance,
    exact_distribution,
    exact_mean,
    exact_variance,
    mc_distribution,
)
from polyshift.errors import (
    CellBudgetExceeded,
    DegenerateInput,
    InvariantViolation,
)
from polyshift.geometry import (
    HalfSpace,
    Polytope,
    _sides,
    affine_image,
    clip,
    clip_both,
    dilate,
    intersect,
    minkowski_sum,
    unit_cube,
)

from conftest import HEXAGON, on_boundary

F = Fraction


def riemann_variance(p, resolution=512):
    """Midpoint-grid estimate of Var(count) in exact integer arithmetic.

    Midpoints (2i+1)/(2*resolution) per axis; the membership tests clear
    denominators so int64 suffices for desk-scale bodies.
    """
    d = p.dim
    den = 2 * resolution
    eqs, ineqs = p.linear_description()
    assert not eqs
    lo, hi = p.bounding_box()
    axes = [np.arange(1, den, 2, dtype=np.int64) for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    counts = np.zeros(grids[0].shape, dtype=np.int64)
    ranges = [
        range(math.ceil(lo[i]), math.floor(hi[i]) + 2) for i in range(d)
    ]
    for z in itertools.product(*ranges):
        mask = np.ones(grids[0].shape, dtype=bool)
        for a, b in ineqs:
            # a . (z - s) <= b with s_i = g_i / den
            lhs = den * (sum(ai * zi for ai, zi in zip(a, z)) - b)
            acc = np.zeros(grids[0].shape, dtype=np.int64)
            for ai, g in zip(a, grids):
                acc += ai * g
            mask &= lhs <= acc
        counts += mask
    n = counts.size
    mean = counts.sum() / n
    second = (counts.astype(np.float64) ** 2).sum() / n
    return second - mean * mean


# ---------------------------------------------------------------------------
# lattice-sum identity validation (the gate for everything below)


def test_covariance_identity_validated_1d():
    seg = Polytope(1, [(0,), (F(3, 2),)])
    exact = exact_variance(seg).variance  # by hand: 3/2 + 1/2 + 1/2 - 9/4
    assert exact == F(1, 4)
    est = riemann_variance(seg)
    assert abs(est - float(exact)) <= 0.02 * float(exact)


@pytest.mark.parametrize(
    "body",
    [
        standard_simplex(2),
        Polytope(2, [(0, 0), (2, 0), (0, 1)]),
        Polytope(2, [(0, 0), (F(3, 2), 0), (F(3, 2), F(3, 2)), (0, F(3, 2))]),
    ],
)
def test_covariance_identity_validated_2d(body):
    exact = float(exact_variance(body).variance)
    est = riemann_variance(body)
    assert abs(est - exact) <= 0.02 * max(exact, 1e-9)


# ---------------------------------------------------------------------------
# moments


def test_exact_mean_is_volume():
    assert exact_mean(standard_simplex(3)) == F(1, 6)
    assert exact_mean(reeve_tetrahedron(4)) == F(2, 3)
    assert exact_mean(unit_cube(4)) == 1


def test_exact_mean_rejects_flat():
    flat = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(DegenerateInput):
        exact_mean(flat)


def test_variance_of_cube_is_zero():
    for d in (1, 2, 3):
        assert exact_variance(unit_cube(d)).variance == 0


def test_variance_unit_right_triangle():
    # two dimensions: sum of squared affine side lengths / 12 = 3/12
    assert exact_variance(standard_simplex(2)).variance == F(1, 4)


def test_variance_reeve_1():
    assert exact_variance(reeve_tetrahedron(1)).variance == F(5, 36)


def test_covariance_with_integer_translate_is_variance():
    p = reeve_tetrahedron(2)
    assert exact_covariance(p, p.translated((3, -1, 2))) == exact_variance(p).variance


def test_covariance_reeve2_layer_oracle():
    # independent layer calculus: E I1 = 7/24, E I2 = 1/24, E I1 I2 = 0
    e1, e2 = F(7, 24), F(1, 24)
    layer_var = (e1 + e2) - (e1 + e2) ** 2
    assert layer_var == F(2, 9)
    assert exact_covariance(reeve_tetrahedron(2), reeve_tetrahedron(2)) == F(2, 9)


@pytest.mark.parametrize("seed", range(8))
def test_variance_matches_affine_side_lengths_on_triangles(seed):
    # for a lattice polygon without parallel sides, the variance is the sum
    # of squared affine side lengths over 12; triangles never have parallel
    # sides, so every draw qualifies
    from polyshift.catalog import random_lattice_simplex

    tri = random_lattice_simplex(2, 3, seed=seed)
    a, b, c = tri.vertices
    sides = [
        (b[0] - a[0], b[1] - a[1]),
        (c[0] - b[0], c[1] - b[1]),
        (a[0] - c[0], a[1] - c[1]),
    ]
    oracle = F(
        sum(math.gcd(int(dx), int(dy)) ** 2 for dx, dy in sides), 12
    )
    assert exact_variance(tri).variance == oracle


# ---------------------------------------------------------------------------
# the box enumeration: an independent oracle for the covariance engine


def translate_box(p, q):
    """The integer translates t in the bounding box of p - q."""
    (plo, phi), (qlo, qhi) = p.bounding_box(), q.bounding_box()
    return itertools.product(*[range(math.ceil(a - d), math.floor(c - b) + 1)
                               for a, b, c, d in zip(plo, qlo, phi, qhi)])


def box_covariance(p, q):
    """cov(X_p, X_q) by the lattice sum over the whole bounding box of
    p - q.  A translate t is skipped when a facet of p or of q certifies an
    empty meet in integers; otherwise p is clipped by every facet of the
    whole translate q + t, and a cap that turns flat adds nothing."""
    # a facet a . x <= b of p rules t out when a . t > floor(b - min_q a . w);
    # a facet of q does when a . t < ceil(min_p a . v - b)
    p_filters = [(h.coeffs, -min(_sides(q, h)) // q.denominator) for h in p.facets()]
    q_filters = [(h.coeffs, -(-min(_sides(p, h)) // p.denominator)) for h in q.facets()]
    second = F(0)
    for t in translate_box(p, q):
        if any(sum(x * y for x, y in zip(a, t)) > c for a, c in p_filters):
            continue
        if any(sum(x * y for x, y in zip(a, t)) < c for a, c in q_filters):
            continue
        cap = p
        for h in q.translated(t).facets():
            cap = clip(cap, h)
            if not cap.is_full_dim:
                break
        else:
            second += cap.volume()
    return second - p.volume() * q.volume()


@st.composite
def covariance_pairs(draw):
    """(p, q) full-dimensional in d = 2 or 3, lattice or rational, with
    q = p or drawn on its own."""
    d = draw(st.sampled_from([2, 3]))
    den = draw(st.sampled_from([1, 2, 3]))
    bound = 2 if den == 1 else den
    coord = st.integers(-bound, bound).map(lambda k: F(k, den))

    def body():
        points = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 3,
                               unique=True))
        p = Polytope(d, points)
        assume(p.is_full_dim)
        return p

    p = body()
    return p, p if draw(st.booleans()) else body()


@given(covariance_pairs())
@example((reeve_tetrahedron(3), reeve_tetrahedron(3)))
@example((cross_polytope(3), standard_simplex(3).translated((F(1, 2), 0, F(-1, 3)))))
@settings(max_examples=40, deadline=None)
def test_covariance_matches_box_oracle(pair):
    p, q = pair
    assert exact_covariance(p, q) == box_covariance(p, q)


# ---------------------------------------------------------------------------
# the self-covariance over the orbits of the body's signed permutations


def shear(d):
    """x -> x + x_1 e_0: unimodular, and it breaks most of a body's
    signed-permutation symmetries."""
    return [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)]


@st.composite
def symmetric_bodies(draw):
    """Bodies with many signed-permutation symmetries, as they are, moved
    by a nonzero rational vector (which keeps the symmetries up to
    translation) or sheared (which loses most of them)."""
    kind = draw(st.sampled_from(["cross", "cube", "central", "reeve", "simplex"]))
    d = 3 if kind == "reeve" else draw(st.sampled_from([2, 3]))
    if kind == "cross":
        p = dilate(cross_polytope(d), draw(st.integers(1, 2)))
    elif kind == "cube":
        p = dilate(unit_cube(d), draw(st.integers(1, 2)))
    elif kind == "central":
        p = centrally_symmetric_polytope(d, 3, 1, draw(st.integers(0, 99)))
    elif kind == "reeve":
        p = reeve_tetrahedron(draw(st.integers(1, 4)))
    else:
        p = standard_simplex(d)
    move = draw(st.sampled_from(["none", "translate", "shear"]))
    if move == "translate":
        c = draw(st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * d).filter(any))
        p = p.translated(c)
    elif move == "shear":
        p = affine_image(p, shear(d), [0] * d)
    return p


@given(symmetric_bodies())
@example(dilate(cross_polytope(3), 2).translated((F(1, 2), F(1, 3), 0)))
@example(affine_image(dilate(cross_polytope(3), 2), shear(3), [0, 0, 0]))
@example(reeve_tetrahedron(3).translated((F(-1, 2), 0, F(2, 3))))
@settings(max_examples=30, deadline=None)
def test_symmetric_variance_matches_box_oracle(p):
    assert exact_covariance(p, p) == box_covariance(p, p)


def compose(h, t):
    """The signed permutation h after t, each as its (column, sign) pairs."""
    return tuple((t[j][0], s * t[j][1]) for j, s in h)


def expand(levels, d):
    """The products of one element per level, the first level applied first."""
    group = {tuple((i, 1) for i in range(d))}
    for level in levels:
        group = {compose(m, g) for g in group for m in level}
    return group


def maps_onto_a_translate(m, p):
    image = {tuple(s * v[j] for j, s in m) for v in p.vertices}
    c = [x - y for x, y in zip(min(image), min(p.vertices))]
    return image == {tuple(x + y for x, y in zip(v, c)) for v in p.vertices}


def brute_force_symmetries(p):
    """Every signed permutation mapping p onto a translate, and its negation."""
    d = p.dim
    found = {tuple(zip(perm, signs))
             for perm in itertools.permutations(range(d))
             for signs in itertools.product((1, -1), repeat=d)
             if maps_onto_a_translate(tuple(zip(perm, signs)), p)}
    return found | {tuple((j, -s) for j, s in m) for m in found}


@st.composite
def small_bodies(draw):
    """Hulls of points in [-1, 1]^d, d <= 4: small enough to be symmetric
    now and then."""
    d = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), min_size=d + 1,
                           max_size=d + 4, unique=True))
    p = Polytope(d, points)
    assume(p.is_full_dim)
    if draw(st.booleans()):
        p = p.translated(draw(st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * d)))
    return p


@given(small_bodies())
@example(cross_polytope(4))
@example(dilate(unit_cube(3), 2).translated((F(1, 3), 0, 0)))
@example(standard_simplex(4))
@example(reeve_tetrahedron(3))
@example(centrally_symmetric_polytope(4, 4, 1, 0))
@example(affine_image(cross_polytope(3), shear(3), [0, 0, 0]))
@example(random_lattice_polytope(4, 7, 2, seed=1))
@settings(max_examples=40, deadline=None)
def test_symmetry_search_finds_the_group(p):
    d = p.dim
    identity, negation = tuple((i, 1) for i in range(d)), tuple((i, -1) for i in range(d))
    group = expand(distributions._symmetries(p), d)
    assert identity in group and negation in group
    assert all(compose(g, h) in group for g in group for h in group)
    assert all(maps_onto_a_translate(m, p) or maps_onto_a_translate(compose(negation, m), p)
               for m in group)
    assert group == brute_force_symmetries(p)


def test_symmetry_search_prunes_an_asymmetric_body(monkeypatch):
    # a 6-D body with no symmetry but x -> -x: the search compares about a
    # hundred shapes (72 of them to match single columns), not one per each
    # of the 6! 2^6 = 46,080 candidates
    p = Polytope(6, [(0,) * 6] + [tuple(int(i == j) * (j + 1) for j in range(6))
                                  for i in range(6)])
    calls = []
    real = distributions._shape
    monkeypatch.setattr(distributions, "_shape", lambda points: calls.append(1) or real(points))
    assert len(expand(distributions._symmetries(p), 6)) == 2
    assert len(calls) < 200


RATIONAL_3D = Polytope(3, [(F(-4, 3), -2, F(1, 3)), (F(-1, 3), F(-1, 3), 0), (F(1, 3), F(2, 3), 2),
                           (F(2, 3), F(-2, 3), -1), (F(5, 3), 2, F(2, 3))])


@pytest.mark.parametrize("p, q", [
    (reeve_tetrahedron(8), reeve_tetrahedron(8)),
    (cross_polytope(3), cross_polytope(3)),
    (RATIONAL_3D, RATIONAL_3D),
    (RATIONAL_3D, cross_polytope(3)),
    (unit_cube(3), reeve_tetrahedron(8).negated()),
    (unit_cube(3), RATIONAL_3D.negated()),
], ids=["reeve8", "cross3", "rational3", "rational3-cross3", "cube-reeve8", "cube-rational3"])
def test_full_caps_are_the_interior_of_the_difference_body(p, q):
    # the covariogram is positive exactly on the interior of p - q, which the
    # enumerator shared by both exact routes lists in lexicographic order;
    # for p the cube and q = -P it is the set of translates the law overlays
    diff = minkowski_sum(p, q.negated())
    full = []
    for t in translate_box(p, q):
        inside = diff.contains(t) and not on_boundary(diff, t)
        assert intersect(p, q.translated(t)).is_full_dim == inside, t
        if inside:
            full.append(t)
    assert len(full) > 1
    assert list(distributions._interior_translates(diff)) == sorted(full)


def test_dropping_an_interior_translate_breaks_both_exact_routes(monkeypatch):
    # with the enumerator's first point gone, the law's mean leaves the
    # volume and the symmetry orbits no longer cover the difference body
    real = distributions._interior_translates
    monkeypatch.setattr(distributions, "_interior_translates",
                        lambda diff: itertools.islice(real(diff), 1, None))
    body = reeve_tetrahedron(3)
    assert exact_distribution(body).mean() != body.volume()
    with pytest.raises(InvariantViolation, match="orbits cover"):
        exact_variance(body)


def test_octahedron_variance_scaling():
    oct3 = cross_polytope(3)
    v0 = exact_variance(oct3).variance
    assert exact_variance(dilate(oct3, 2)).variance == 4 * v0


# ---------------------------------------------------------------------------
# the cutting-plane sweep: an independent oracle for the law engine


def cutting_planes(parts, cube):
    """Facet hyperplanes of every integer translate z - P whose bounding box
    meets the open unit cube, filtered to planes that actually cut it,
    deduplicated regardless of orientation and sorted."""
    planes = {}
    for part in parts:
        lo, hi = part.bounding_box()
        zranges = [range(math.ceil(a), math.floor(b) + 2) for a, b in zip(lo, hi)]
        # z - part satisfies -a . x <= b - a . z: the facets of -part, moved by z
        negated = [HalfSpace(tuple(-x for x in hs.normal), hs.offset) for hs in part.facets()]
        for z in itertools.product(*zranges):
            for hs in negated:
                flipped = hs.translated(z)
                vals = _sides(cube, flipped)
                if min(vals) < 0 < max(vals):
                    key = (flipped.coeffs, flipped.rhs)
                    if next(x for x in flipped.coeffs if x != 0) < 0:
                        key = (tuple(-x for x in flipped.coeffs), -flipped.rhs)
                    planes[key] = flipped
    return [planes[k] for k in sorted(planes)]


def split_cells(cube, planes):
    """Leaf cells of the arrangement of `planes` inside the cube.

    Iterative sweep: carry the below side forward, stack the above side with
    the next plane index (planes already processed cannot cut a child)."""
    out = []
    stack = [(cube, 0)]
    while stack:
        cell, idx = stack.pop()
        while idx < len(planes):
            h = planes[idx]
            vals = _sides(cell, h)
            if min(vals) < 0 < max(vals):
                below, above = clip_both(cell, h)
                stack.append((above, idx + 1))
                cell = below
            idx += 1
        out.append(cell)
    return out


def sweep_cells(*bodies):
    """(volume, counts of each body) over the full-dimensional cells of the
    arrangement of every body's translate planes, each count read off at
    the cell's vertex centroid, which avoids every boundary (checked)."""
    cube = unit_cube(bodies[0].dim)
    out = []
    for cell in split_cells(cube, cutting_planes(bodies, cube)):
        vol = cell.volume()
        if vol == 0:
            continue
        centroid = tuple(sum(c, F(0)) / len(cell.vertices) for c in zip(*cell.vertices))
        results = [count_at(b, centroid) for b in bodies]
        assert all(r.is_generic for r in results)
        out.append((vol, [r.count for r in results]))
    assert sum(vol for vol, _ in out) == 1
    return out


def sweep_law(body):
    """The exact law of the count by the sweep, as {count: probability}."""
    law = {}
    for vol, (count,) in sweep_cells(body):
        law[count] = law.get(count, F(0)) + vol
    return dict(sorted(law.items()))


def joint_second_moment(p, q):
    """Independent oracle for E[N_p N_q]: decompose the cube by the
    translate planes of BOTH bodies and sum vol * product of counts."""
    return sum((vol * cp * cq for vol, (cp, cq) in sweep_cells(p, q)), F(0))


@pytest.mark.parametrize(
    "seed_p,seed_q,d", [(51, 52, 2), (53, 54, 2), (55, 56, 3)]
)
def test_cross_covariance_against_joint_cells(seed_p, seed_q, d):
    box = 2 if d == 2 else 1
    p = random_lattice_polytope(d, d + 2, box, seed=seed_p)
    q = random_lattice_polytope(d, d + 2, box, seed=seed_q)
    oracle = joint_second_moment(p, q) - p.volume() * q.volume()
    assert exact_covariance(p, q) == oracle


def test_cross_covariance_quadrilateral_pair():
    # dissimilar overlapping bodies, exact agreement with the joint oracle
    p = standard_simplex(2)
    q = Polytope(2, [(0, 0), (2, 1), (1, 2), (0, 1)])
    oracle = joint_second_moment(p, q) - p.volume() * q.volume()
    assert exact_covariance(p, q) == oracle


# ---------------------------------------------------------------------------
# exact distributions


def test_distribution_simplexes():
    # d = 1 degenerates to the unit segment, which tiles: count is always 1
    assert exact_distribution(standard_simplex(1)).probability_map() == {1: F(1)}
    for d in (2, 3):
        dist = exact_distribution(standard_simplex(d))
        fact = math.factorial(d)
        assert dist.probability_map() == {0: F(fact - 1, fact), 1: F(1, fact)}


def test_distribution_central_slab():
    dist = exact_distribution(central_slab(3))
    assert dist.probability_map() == {0: F(1, 3), 1: F(2, 3)}


def test_distribution_unit_right_triangle():
    dist = exact_distribution(standard_simplex(2))
    assert dist.probability_map() == {0: F(1, 2), 1: F(1, 2)}


def test_distribution_cube_is_constant():
    dist = exact_distribution(unit_cube(3))
    assert dist.probability_map() == {1: F(1)}


def test_distribution_hexagon_constant():
    dist = exact_distribution(zonotope_polytope(HEXAGON))
    assert dist.probability_map() == {3: F(1)}


def test_distribution_prism_over_slab_4d():
    dist = exact_distribution(prism_over_embedded(central_slab(3)))
    assert dist.probability_map() == {0: F(1, 3), 1: F(2, 3)}


@pytest.mark.parametrize("seed,d", [(0, 2), (1, 2), (2, 3), (3, 3)])
def test_distribution_mean_matches_volume(seed, d):
    p = random_lattice_polytope(d, d + 2, 2 if d == 2 else 1, seed=seed)
    dist = exact_distribution(p)
    assert dist.mean() == p.volume()
    assert sum(dist.probability_map().values()) == 1


@pytest.mark.parametrize("seed,d", [(4, 2), (5, 3)])
def test_distribution_variance_matches_lattice_sum(seed, d):
    p = random_lattice_polytope(d, d + 2, 2 if d == 2 else 1, seed=seed)
    assert exact_distribution(p).variance() == exact_variance(p).variance


@given(st.integers(0, 10**9))
@settings(max_examples=10, deadline=None)
def test_distribution_mean_matches_volume_fuzz(seed):
    p = random_lattice_polytope(2, 5, 2, seed=seed)
    dist = exact_distribution(p)
    assert dist.mean() == p.volume()
    assert dist.variance() == exact_variance(p).variance


def test_distribution_of_non_lattice_body():
    # the mean-equals-volume law holds for arbitrary convex bodies, not
    # just integer ones
    p = standard_simplex(2).translated((F(1, 3), F(1, 7)))
    dist = exact_distribution(p)
    assert dist.mean() == F(1, 2)
    assert dist.variance() == exact_variance(p).variance
    # an irrational-free shift does not change the law of the count
    assert dist == exact_distribution(standard_simplex(2))


@st.composite
def small_bodies(draw):
    """Full-dimensional hulls of d + 1 .. d + 2 points in d = 1..3, with
    integer coordinates in [-2, 2] or rational ones k / den in [-1, 1]."""
    d = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 2, 3]))
    bound = 2 if den == 1 else den
    coord = st.integers(-bound, bound).map(lambda k: F(k, den))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 2, unique=True))
    p = Polytope(d, points)
    assume(p.is_full_dim)
    return p


# the middle piece of a triangulated 3-D body: three slab images
MIDDLE_PIECE = scaling_decomposition(Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                                  (1, 1, 1)])).pieces[1]


@given(small_bodies())
@example(Polytope(4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (F(1, 2), 1, 1, F(3, 2))]))
@example(MIDDLE_PIECE[0])
@example(MIDDLE_PIECE[1])
@example(MIDDLE_PIECE[2])
# eight of its translates z - P contain the whole cube
@example(dilate(cross_polytope(3), 3))
@settings(max_examples=25, deadline=None)
def test_distribution_matches_sweep_oracle(body):
    assert exact_distribution(body).probability_map() == sweep_law(body)


def test_law_route_does_not_count(monkeypatch):
    want = {0: F(14, 27), 1: F(25, 54), 2: F(1, 54)}
    assert sweep_law(reeve_tetrahedron(3)) == want

    def refuse(body, shift):
        raise AssertionError("the exact law called count_at")

    # the counter lives in counting; distributions no longer imports it
    monkeypatch.setattr(counting, "count_at", refuse)
    monkeypatch.setattr(distributions, "count_at", refuse, raising=False)
    assert exact_distribution(reeve_tetrahedron(3)).probability_map() == want


def test_distribution_rejects_flat_parts():
    flat = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(DegenerateInput):
        exact_distribution(flat)


def test_cell_budget_guard():
    with pytest.raises(CellBudgetExceeded):
        exact_distribution(reeve_tetrahedron(3), cell_budget=4)


@pytest.mark.parametrize("budget", [0, -5])
def test_a_cell_budget_below_one_is_an_input_error(budget):
    with pytest.raises(DegenerateInput, match=f"cell budget must be positive, got {budget}"):
        exact_distribution(reeve_tetrahedron(2), cell_budget=budget)


def test_distribution_symmetry_2d_polygons():
    # two-dimensional counts are symmetric about their mean
    for seed in range(4):
        p = random_lattice_polytope(2, 5, 2, seed=seed + 40)
        dist = exact_distribution(p)
        twice_mean = 2 * dist.mean()
        assert twice_mean.denominator == 1
        for m in dist.support():
            assert dist.probability(m) == dist.probability(int(twice_mean) - m)


def test_distribution_asymmetry_3d_simplex():
    dist = exact_distribution(standard_simplex(3))
    twice_mean = 2 * dist.mean()
    asym = twice_mean.denominator != 1 or any(
        dist.probability(m) != dist.probability(int(twice_mean) - m)
        for m in dist.support()
    )
    assert asym


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_cube_all_ones():
    dist = mc_distribution(unit_cube(3), samples=500, seed=1)
    assert dist.probability_map() == {1: F(1)}


def test_mc_deterministic_per_seed():
    a = mc_distribution(standard_simplex(2), samples=2000, seed=9)
    b = mc_distribution(standard_simplex(2), samples=2000, seed=9)
    assert a.probs == b.probs
    c = mc_distribution(standard_simplex(2), samples=2000, seed=10)
    assert a.probs != c.probs


def tallies(dist):
    """The draws at each count of an empirical law."""
    return {m: p * dist.samples for m, p in dist.probs.items()}


def test_mc_laws_are_pinned():
    # golden tallies: the stream's shifts and the counts there must not move
    reeve = mc_distribution(reeve_tetrahedron(3), samples=2000, seed=1)
    assert (tallies(reeve), reeve.redraws) == ({0: 1029, 1: 933, 2: 38}, 0)
    cross = mc_distribution(dilate(cross_polytope(4), 2), samples=300, seed=4)
    assert tallies(cross) == {8: 157, 12: 104, 16: 39}


def test_mc_simplex2_frequency_window():
    n = 100000
    dist = mc_distribution(standard_simplex(2), samples=n, seed=5)
    se = math.sqrt(0.25 / n)
    assert abs(float(dist.probability(1)) - 0.5) <= 4 * se


def test_mc_reeve5_mean_window():
    n = 20000
    t5 = reeve_tetrahedron(5)
    var = float(exact_variance(t5).variance)
    dist = mc_distribution(t5, samples=n, seed=6)
    se = math.sqrt(var / n)
    assert abs(float(dist.mean()) - 5 / 6) <= 4 * se


# ---------------------------------------------------------------------------
# comparisons


def test_compare_exact_equal():
    a = exact_distribution(standard_simplex(2))
    assert a == exact_distribution(standard_simplex(2))


def test_compare_negation_invariance():
    a = exact_distribution(standard_simplex(2))
    b = exact_distribution(standard_simplex(2).negated())
    assert a == b


def test_compare_shear_invariance():
    a = exact_distribution(standard_simplex(2))
    sheared = affine_image(standard_simplex(2), ((1, 1), (0, 1)), (0, 0))
    b = exact_distribution(sheared)
    assert a == b


def test_compare_exact_unequal():
    a = exact_distribution(standard_simplex(2))
    b = exact_distribution(standard_simplex(3))
    assert a != b


def test_compare_exact_vs_empirical(mc_pvalue):
    exact = exact_distribution(standard_simplex(2))
    emp = mc_distribution(standard_simplex(2), samples=20000, seed=3)
    assert mc_pvalue(exact, emp) > 0.001


def test_compare_random_polygon_exact_vs_mc(mc_pvalue):
    p = random_lattice_polytope(2, 5, 2, seed=61)
    exact = exact_distribution(p)
    emp = mc_distribution(p, samples=40000, seed=8)
    assert mc_pvalue(exact, emp) > 0.001


def test_distribution_validation():
    with pytest.raises(DegenerateInput):
        CountDistribution({0: F(1, 2)})
    with pytest.raises(DegenerateInput):
        CountDistribution({0: F(3, 4)}, samples=4)
    assert CountDistribution({0: F(1, 4), 1: F(3, 4)}).kind == "exact"
    law = CountDistribution(probs={0: F(1, 4), 1: F(3, 4)}, samples=4, redraws=2)
    assert (law.kind, law.support(), law.probability(1), law.probability(5)) == (
        "empirical", (0, 1), F(3, 4), 0)


def test_an_empirical_law_rejects_a_negative_atom():
    # five draws at 0 and -2 at 1 sum to the 3 samples, yet P(1) = -2/3
    with pytest.raises(DegenerateInput, match="negative probability"):
        CountDistribution(probs={0: F(5, 3), 1: F(-2, 3)}, samples=3)


def test_an_empirical_law_rejects_zero_samples():
    with pytest.raises(DegenerateInput, match="samples >= 1, got 0"):
        CountDistribution(probs={0: F(1)}, samples=0)


@pytest.mark.parametrize("n", [True, 2.0, F(3)], ids=["bool", "float", "fraction"])
def test_sample_counts_must_be_ints(n):
    # True would pass as one sample, and a float or Fraction as a size
    with pytest.raises(DegenerateInput, match="must be an integer"):
        mc_distribution(reeve_tetrahedron(3), n)
    with pytest.raises(DegenerateInput, match="must be an integer"):
        CountDistribution(probs={1: F(1)}, samples=n)


def test_an_empirical_law_rejects_an_atom_off_its_grid():
    # 1/3 of 4 draws is no whole number of draws
    with pytest.raises(DegenerateInput, match="not a multiple of 1/4"):
        CountDistribution(probs={0: F(1, 3), 1: F(2, 3)}, samples=4)
