"""Exact-geometry engine: representations, conversions, clipping, volume."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyshift import geometry
from polyshift.catalog import (
    cross_polytope,
    random_lattice_polytope,
    reeve_tetrahedron,
    standard_simplex,
)
from polyshift.counting import ZonotopeSpec, zonotope_polytope
from polyshift.errors import DegenerateInput, Infeasible, SingularMatrix, Unbounded
from polyshift.geometry import (
    HalfSpace,
    Polytope,
    affine_image,
    as_vec,
    bounding_box,
    clip,
    clip_both,
    determinant,
    dilate,
    facets_from_vertices,
    halfspace,
    intersect,
    minkowski_sum,
    polytope_from_json,
    polytope_to_json,
    segment,
    triangulate,
    unit_cube,
    vertices_from_facets,
    volume,
)

F = Fraction


def hexagon():
    return minkowski_sum(
        minkowski_sum(segment((0, 0), (1, 0)), segment((0, 0), (0, 1))),
        segment((0, 0), (1, 1)),
    )


def shoelace(points):
    """Independent polygon-area oracle (vertices in hull order)."""
    total = F(0)
    for i in range(len(points)):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % len(points)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


# ---------------------------------------------------------------------------
# determinants


def test_determinant_identity():
    assert determinant([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_determinant_2x2_by_hand():
    # cofactor expansion by hand: 1*2 - 1*0
    assert determinant([(1, 1), (0, 2)]) == 2


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_determinant_reeve_edge_matrix(n):
    assert determinant([(0, 1, 0), (1, 0, 0), (1, 1, n)]) == -n


def test_determinant_rejects_non_square():
    with pytest.raises(DegenerateInput):
        determinant([(1, 2, 3), (4, 5, 6)])


small_mats = st.integers(-4, 4).flatmap(
    lambda _: st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
    )
)


@given(small_mats, small_mats)
@settings(max_examples=60, deadline=None)
def test_determinant_is_multiplicative(a, b):
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert determinant(prod) == determinant(a) * determinant(b)


# ---------------------------------------------------------------------------
# facet / vertex enumeration


def test_unit_square_facets():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    keys = {h.key() for h in facets_from_vertices(square)}
    expected = {
        halfspace((-1, 0), 0).key(),
        halfspace((0, -1), 0).key(),
        halfspace((1, 0), 1).key(),
        halfspace((0, 1), 1).key(),
    }
    assert keys == expected


def test_simplex3_facets():
    facets = facets_from_vertices(standard_simplex(3))
    assert len(facets) == 4
    keys = {h.key() for h in facets}
    assert halfspace((1, 1, 1), 1).key() in keys
    for i in range(3):
        normal = [0, 0, 0]
        normal[i] = -1
        assert halfspace(normal, 0).key() in keys


def test_reeve_facets_tight_at_three_vertices():
    t2 = reeve_tetrahedron(2)
    facets = facets_from_vertices(t2)
    assert len(facets) == 4
    for h in facets:
        assert sum(1 for v in t2.vertices if h.value(v) == 0) == 3


def test_facets_require_full_dimension():
    flat = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(DegenerateInput):
        facets_from_vertices(flat)


def test_box_vertices_from_facets():
    for d in (2, 3):
        hss = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            hss.append(halfspace(e, 2))
            hss.append(halfspace([-x for x in e], 1))
        p = vertices_from_facets(hss, d)
        assert len(p.vertices) == 2**d


def test_slab_piece_vertices_from_facets():
    # cube cut to 1 <= x+y+z <= 2: exactly the six 0/1 points at levels 1, 2
    hss = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        hss.append(halfspace(e, 1))
        hss.append(halfspace([-x for x in e], 0))
    hss.append(halfspace((1, 1, 1), 2))
    hss.append(halfspace((-1, -1, -1), -1))
    p = vertices_from_facets(hss, 3)
    expected = {
        tuple(map(F, v))
        for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    }
    assert set(p.vertices) == expected


def test_shifted_simplex_intersection_from_facets():
    a = standard_simplex(2)
    b = a.translated((F(1, 2), 0))
    hss = list(a.facets()) + list(b.facets())
    p = vertices_from_facets(hss, 2)
    assert volume(p) == F(1, 8)


def test_vertices_from_facets_unbounded():
    with pytest.raises(Unbounded):
        vertices_from_facets([halfspace((1, 0), 0), halfspace((0, 1), 0)], 2)


def test_vertices_from_facets_infeasible():
    with pytest.raises(Infeasible):
        vertices_from_facets(
            [halfspace((1,), 0), halfspace((-1,), -1)], 1
        )


def test_vertices_from_facets_rejects_rows_of_the_wrong_length():
    with pytest.raises(DegenerateInput):
        vertices_from_facets([halfspace((1, 0, 0), 1), halfspace((-1, 0), 0)], 2)


def test_empty_system_with_a_recession_direction_is_infeasible():
    # x <= -1 and -x <= 0 in R^2 is empty, though (0, 1) satisfies both
    # rows' homogeneous parts: the cut is empty before it can touch the box
    with pytest.raises(Infeasible):
        vertices_from_facets([halfspace((1, 0), -1), halfspace((-1, 0), 0)], 2)


def test_round_trip_catalog():
    bodies = [
        standard_simplex(2),
        standard_simplex(3),
        reeve_tetrahedron(3),
        unit_cube(3),
        hexagon(),
    ]
    for p in bodies:
        q = vertices_from_facets(p.facets(), p.dim)
        assert q == p


# ---------------------------------------------------------------------------
# clip / intersect


def test_clip_noop():
    c = unit_cube(3)
    assert clip(c, halfspace((1, 0, 0), 1)) == c


def test_clip_cube_corner_gives_simplex():
    assert clip(unit_cube(3), halfspace((1, 1, 1), 1)) == standard_simplex(3)


def test_clip_to_empty():
    assert clip(standard_simplex(2), halfspace((-1, 0), -2)).is_empty


def test_clip_volume_additivity():
    p = reeve_tetrahedron(2)
    h = halfspace((1, 2, -1), F(1, 3))
    assert volume(clip(p, h)) + volume(clip(p, h.flipped())) == volume(p)


@given(
    st.integers(-2, 3),
    st.integers(-2, 3),
    st.integers(-2, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=7),
)
@settings(max_examples=40, deadline=None)
def test_clip_additivity_random_plane(a, b, c, off):
    if a == 0 and b == 0 and c == 0:
        return
    p = unit_cube(3)
    h = halfspace((a, b, c), off)
    assert volume(clip(p, h)) + volume(clip(p, h.flipped())) == 1


def test_intersect_self():
    p = reeve_tetrahedron(2)
    assert intersect(p, p) == p


def test_intersect_disjoint_layer_triangles():
    from polyshift.verifier import reeve_layer_triangle

    r1 = reeve_layer_triangle(2, 1, F(1, 2))
    r2 = reeve_layer_triangle(2, 2, F(1, 2))
    assert intersect(r1, r2).is_empty


def test_intersect_touching_translates_zero_volume():
    t2 = reeve_tetrahedron(2)
    cap = intersect(t2, t2.translated((0, 0, 1)))
    assert not cap.is_empty
    assert volume(cap) == 0
    assert all(v[2] <= 1 for v in cap.vertices)


def test_intersection_contained_in_both():
    p = unit_cube(3)
    q = reeve_tetrahedron(3).translated((0, 0, -1))
    cap = intersect(p, q)
    for v in cap.vertices:
        assert p.contains(v) and q.contains(v)


@pytest.mark.parametrize("point", [(0, 0, 7), (0,)])
def test_membership_rejects_points_of_the_wrong_length(point):
    p = Polytope(2, [(0, 0), (1, 0), (0, 1)])
    for query in (p.contains, p.on_boundary, Polytope.empty(2).contains):
        with pytest.raises(DegenerateInput):
            query(point)


# ---------------------------------------------------------------------------
# volume


def test_volume_simplices():
    for d in (1, 2, 3, 4):
        assert volume(standard_simplex(d)) == F(1, math.factorial(d))


def test_volume_cube():
    for d in (1, 2, 3, 4):
        assert volume(unit_cube(d)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_volume_reeve(n):
    assert volume(reeve_tetrahedron(n)) == F(n, 6)


def test_volume_lower_dimensional_is_zero():
    flat = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert volume(flat) == 0
    assert volume(Polytope.empty(3)) == 0


def test_volume_dilation_scaling():
    for p in (standard_simplex(3), reeve_tetrahedron(2)):
        base = volume(p)
        for n in range(1, 6):
            assert volume(dilate(p, n)) == F(n) ** p.dim * base


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_volume_affine_scaling(mat):
    if determinant(mat) == 0:
        return
    p = reeve_tetrahedron(1)
    img = affine_image(p, mat, (1, -2, 0))
    assert volume(img) == abs(determinant(mat)) * volume(p)


def test_volume_against_float_hull_oracle():
    # independent cross-check through a floating-point hull library
    import numpy as np
    from scipy.spatial import ConvexHull

    from polyshift.catalog import random_lattice_polytope

    for seed in range(5):
        p = random_lattice_polytope(3, 6, 2, seed=seed)
        hull = ConvexHull(np.array([[float(c) for c in v] for v in p.vertices]))
        assert abs(float(volume(p)) - hull.volume) < 1e-9


# ---------------------------------------------------------------------------
# Minkowski sums and affine maps


def test_minkowski_with_origin():
    p = reeve_tetrahedron(2)
    origin = Polytope(3, [(0, 0, 0)])
    assert minkowski_sum(p, origin) == p


def test_minkowski_hexagon():
    h = hexagon()
    expected = {
        tuple(map(F, v))
        for v in [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    }
    assert set(h.vertices) == expected
    ordered = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    assert volume(h) == shoelace([tuple(map(F, v)) for v in ordered]) == 3


def test_minkowski_commutative_associative():
    a = standard_simplex(2)
    b = Polytope(2, [(0, 0), (1, 1)])
    c = Polytope(2, [(0, 0), (-1, 2)])
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
        a, minkowski_sum(b, c)
    )


def test_affine_identity():
    p = reeve_tetrahedron(2)
    assert affine_image(p, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (0, 0, 0)) == p


def test_affine_simplex_transform():
    # columns of the matrix = edge vectors, translation = base vertex
    target = [(1, 1, 0), (2, 1, 0), (1, 3, 0), (1, 1, 5)]
    v0 = as_vec(target[0])
    cols = [tuple(F(a) - b for a, b in zip(v, v0)) for v in target[1:]]
    mat = tuple(zip(*cols))
    img = affine_image(standard_simplex(3), mat, v0)
    assert set(img.vertices) == {as_vec(v) for v in target}


def test_affine_negation():
    img = affine_image(
        standard_simplex(2), ((-1, 0), (0, -1)), (0, 0)
    )
    assert set(img.vertices) == {as_vec(v) for v in [(0, 0), (-1, 0), (0, -1)]}


def test_affine_rejects_singular():
    with pytest.raises(SingularMatrix):
        affine_image(standard_simplex(2), ((1, 1), (1, 1)), (0, 0))


def test_bounding_boxes():
    assert bounding_box(standard_simplex(3)) == (as_vec((0, 0, 0)), as_vec((1, 1, 1)))
    assert bounding_box(reeve_tetrahedron(5)) == (as_vec((0, 0, 0)), as_vec((1, 1, 5)))
    assert bounding_box(hexagon()) == (as_vec((0, 0)), as_vec((2, 2)))


# ---------------------------------------------------------------------------
# lattice flag, JSON round trip


def test_lattice_flag():
    assert standard_simplex(3).is_lattice
    shifted = standard_simplex(3).translated((F(1, 2), 0, 0))
    assert not shifted.is_lattice


def test_json_round_trip():
    p = reeve_tetrahedron(4).translated((F(1, 2), F(-2, 3), 0))
    q = polytope_from_json(polytope_to_json(p))
    assert q == p


def test_json_rejects_zero_denominator():
    with pytest.raises(DegenerateInput):
        polytope_from_json({"dim": 1, "vertices": [["1/0"]]})


def test_json_rejects_bad_shape():
    with pytest.raises(DegenerateInput):
        polytope_from_json({"dim": 2, "vertices": [["1"]]})
    with pytest.raises(DegenerateInput):
        polytope_from_json({"vertices": [["1"]]})


def test_normalization_drops_interior_points():
    p = Polytope(2, [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert set(p.vertices) == {as_vec(v) for v in [(0, 0), (2, 0), (0, 2)]}


# ---------------------------------------------------------------------------
# the integer kernel on non-lattice rational input

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def rational_points(d, min_size, max_size):
    return st.lists(
        st.tuples(*[rationals] * d), min_size=min_size, max_size=max_size, unique=True
    )


rational_bodies = st.integers(2, 3).flatmap(
    lambda d: st.tuples(st.just(d), rational_points(d, d + 1, d + 4))
)
normals = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


def full_dim_body(d, pts):
    p = Polytope(d, pts)
    assume(p.is_full_dim)
    return p


@given(rational_bodies, normals, rationals)
@settings(max_examples=60, deadline=None)
def test_clip_both_halves_sum_to_volume(body, normal, offset):
    d, pts = body
    assume(any(normal[:d]))
    p = full_dim_body(d, pts)
    lo, hi = clip_both(p, halfspace(normal[:d], offset))
    assert lo.volume() + hi.volume() == p.volume()


@given(rational_bodies, normals, rationals)
@settings(max_examples=60, deadline=None)
def test_new_clip_vertices_lie_on_the_plane(body, normal, offset):
    d, pts = body
    assume(any(normal[:d]))
    p = full_dim_body(d, pts)
    h = halfspace(normal[:d], offset)
    cut = clip(p, h)
    assert all(h.value(v) <= 0 for v in cut.vertices)
    assert all(h.value(v) == 0 for v in set(cut.vertices) - set(p.vertices))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


@given(rational_points(3, 1, 3))
@settings(max_examples=80, deadline=None)
def test_rank_of_flat_bodies_in_r3(pts):
    a = as_vec(pts[0])
    diffs = [tuple(x - y for x, y in zip(as_vec(p), a)) for p in pts[1:]]
    if not diffs:
        expected = 0
    elif len(diffs) == 1 or not any(cross(*diffs)):
        expected = 1
    else:
        expected = 2
    body = Polytope(3, pts)
    assert body.rank == expected
    assert not body.is_full_dim and volume(body) == 0
    eqs, _ = body.linear_description()
    assert len(eqs) == 3 - expected
    assert all(h.value(p) == 0 for h in eqs for p in body.vertices)


def laplace(m):
    if not m:
        return F(1)
    return sum(
        (-1) ** j * m[0][j] * laplace([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
))
@settings(max_examples=80, deadline=None)
def test_determinant_matches_laplace_expansion(m):
    assert determinant(m) == laplace(m)


@given(rational_bodies, st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_covariogram_is_even(body, t):
    d, pts = body
    p = full_dim_body(d, pts)
    t = t[:d]
    back = [-c for c in t]
    assert volume(intersect(p, p.translated(t))) == volume(intersect(p, p.translated(back)))


def test_halfspace_equality_is_on_normal_and_offset():
    a, b = HalfSpace((1, 1), 1), HalfSpace((2, 2), 2)
    assert a != b and a.key() == b.key()
    assert a == HalfSpace((F(1), F(1)), F(1))
    assert hash(a) == hash(((F(1), F(1)), F(1)))
    assert a.translated((F(1, 2), 0)) == HalfSpace((1, 1), F(3, 2))


# ---------------------------------------------------------------------------
# incidence carried through clips


@st.composite
def clip_chains(draw):
    """A lattice or rational body in d = 2..4, flat half the time, and a
    chain of clips, clip_both sides, cuts to the face a direction is
    maximal on, and at most one translate meet (fewer
    steps in R^4, where pieces gain vertices fastest and the fresh hulls
    of the oracle grow costly)."""
    d = draw(st.integers(2, 4))
    steps = 3 if d < 4 else 2
    entries = st.integers(-2, 2).map(F) if draw(st.booleans()) else rationals
    pts = draw(st.lists(st.tuples(*[entries] * d), min_size=d + 1, max_size=d + steps + 1,
                        unique=True))
    flat = draw(st.sampled_from(("", "", "axis", "sum")))
    if flat == "axis":
        pts = [(F(1),) + p[1:] for p in pts]
    elif flat == "sum":
        pts = [p[:-1] + (1 - sum(p[:-1]),) for p in pts]
    normal = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    offset = st.integers(-2, 2) | rationals
    # a face op maximises a small direction, which ties on many vertices,
    # or, given an index, the normal of one of the body's inequalities
    direction = st.lists(st.integers(-1, 1), min_size=d, max_size=d).filter(any)
    op = (st.tuples(st.sampled_from(("clip", "below", "above")), normal, offset)
          | st.tuples(st.just("face"), direction, st.none() | st.integers(0, 9)))
    ops = draw(st.lists(op, max_size=steps))
    at = draw(st.none() | st.integers(0, len(ops)))
    if at is not None or not ops:
        shift = draw(st.lists(st.integers(-1, 1) | rationals, min_size=d, max_size=d))
        ops.insert(at or 0, ("meet", shift, None))
    return Polytope(d, pts), ops


def tight_sets(p):
    """Per inequality of p's description, its tight vertices, sorted."""
    return sorted(tuple(i for i, v in enumerate(p.vertices) if h.value(v) == 0)
                  for h in p.linear_description()[1])


def assert_incidence(p):
    """p's vertices are extreme and its rank is that of a fresh hull, each
    vertex mask is exactly its set of tight inequalities, the inequalities
    cut out the fresh hull's facets (relative to the affine hull), one
    each, full-dimensional facets are the fresh hull's, and a flat
    description cuts out p."""
    fresh = Polytope(p.dim, p.vertices)
    assert fresh.vertices == p.vertices and fresh.rank == p.rank
    eqs, ineqs = p.linear_description()
    assert len(eqs) == p.dim - p.rank
    for m, v in zip(p._masks, p.vertices, strict=True):
        assert m == sum(1 << b for b, h in enumerate(ineqs) if h.value(v) == 0)
    assert tight_sets(p) == tight_sets(fresh)
    if p.is_full_dim:
        assert set(p.facets()) == set(fresh.facets())
    else:
        system = [(h.coeffs, h.rhs) for h in ineqs]
        system += [(e.coeffs, e.rhs) for e in eqs]
        system += [(tuple(-x for x in e.coeffs), -e.rhs) for e in eqs]
        assert enumerate_vertices(system, p.dim) == list(p.vertices)


@given(clip_chains())
@settings(max_examples=120, deadline=None)
def test_clips_carry_exact_incidence(chain):
    p, ops = chain
    assert_incidence(p)
    for op, a, b in ops:
        if op == "meet":
            p = intersect(p, p.translated(a))
        elif op == "face":
            ineqs = p.linear_description()[1]
            if b is not None and ineqs:
                a = ineqs[b % len(ineqs)].coeffs
            top = max(dot(a, v) for v in p.vertices)
            p = clip(p, halfspace([-x for x in a], -top))
        else:
            h = halfspace(a, b)
            lo, hi = clip_both(p, h)
            cut = clip(p, h)
            assert cut == lo
            if not cut.is_empty:
                assert cut._masks == lo._masks
                assert cut.linear_description() == lo.linear_description()
            p, other = (hi, lo) if op == "above" else (lo, hi)
            if not other.is_empty:
                assert_incidence(other)
        if p.is_empty:
            return
        assert_incidence(p)


def square_times_octahedron():
    octahedron = [tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)]
    return [(a, b) + o for a in (0, 1) for b in (0, 1) for o in octahedron]


def test_clip_skips_diagonals_of_non_simple_faces():
    # in d <= 4 two vertices on r - 1 common facets always span an edge (a
    # ridge lies on exactly two facets), so only d >= 5 needs the third-vertex
    # test: here the square x {o} lies on the four octahedron facets through o,
    # and x0 + x1 <= 1 separates its diagonal corners
    pts = square_times_octahedron()
    p = Polytope(5, pts)
    cut = clip(p, halfspace((1, 1, 0, 0, 0), 1))
    assert set(cut.vertices) == {as_vec(v) for v in pts if v[0] + v[1] <= 1}
    assert cut.volume() == p.volume() / 2 == F(2, 3)


# simplex lists of triangulate(), in order, as the rank-tested face search
# made them up to the vertex order inside each simplex, now ascending;
# catalog.scaling_decomposition consumes this order
CROSS4_X2_SIMPLICES = [
    ((-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, 0, 0, 2), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, 0, -2), (0, 0, 2, 0), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2), (0, 2, 0, 0), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, 2), (0, 2, 0, 0), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, 0, 0, -2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0)),
    ((-2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0)),
]
RANDOM_SEED5_SIMPLICES = [
    ((-3, -1, 0), (-1, 3, 2), (0, 3, -2), (3, 2, 2)),
    ((-3, -1, 0), (-1, 3, 2), (1, -3, 3), (3, 2, 2)),
    ((-3, -1, 0), (0, 3, -2), (2, -3, -2), (3, -2, 0)),
    ((-3, -1, 0), (0, 3, -2), (3, -2, 0), (3, 2, 2)),
    ((-3, -1, 0), (1, -3, 3), (2, -3, -2), (3, -2, 0)),
    ((-3, -1, 0), (1, -3, 3), (3, -2, 0), (3, 2, 2)),
]


@pytest.mark.parametrize("body, expected", [
    (lambda: dilate(cross_polytope(4), 2), CROSS4_X2_SIMPLICES),
    (lambda: random_lattice_polytope(3, 8, 3, seed=5), RANDOM_SEED5_SIMPLICES),
], ids=["cross4-x2", "random3d-seed5"])
def test_triangulation_order_is_pinned(body, expected):
    assert triangulate(body()) == [tuple(as_vec(v) for v in s) for s in expected]


@st.composite
def tiled_bodies(draw):
    """A full-dimensional lattice or rational body in d = 2..4, cut by one
    halfspace half the time (a clip piece), and a seed for sample points."""
    d = draw(st.integers(2, 4))
    entries = st.integers(-2, 2).map(F) if draw(st.booleans()) else rationals
    pts = draw(st.lists(st.tuples(*[entries] * d), min_size=d + 1,
                        max_size=d + (5 if d < 4 else 3), unique=True))
    p = Polytope(d, pts)
    if draw(st.booleans()):
        normal = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any))
        p = clip(p, halfspace(normal, draw(st.integers(-1, 1) | rationals)))
    assume(p.is_full_dim)
    return p, draw(st.integers(0, 2**16))


def barycentric(simplex, x):
    """Coordinates of x in the simplex's vertices (Cramer's rule)."""
    v0 = simplex[0]
    cols = [[a - b for a, b in zip(v, v0)] for v in simplex[1:]]
    rhs = [a - b for a, b in zip(x, v0)]
    det = laplace([list(r) for r in zip(*cols)])
    lam = [laplace([list(r) for r in zip(*(cols[:i] + [rhs] + cols[i + 1:]))]) / det
           for i in range(len(cols))]
    return [1 - sum(lam)] + lam


# a 3-D zonotope whose two horizontal 2-faces are octagons
@example((zonotope_polytope(ZonotopeSpec(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0),
                                                 (0, 0, 1)])), 0))
@given(tiled_bodies())
@settings(max_examples=80, deadline=None)
def test_triangulation_tiles_the_body(case):
    p, seed = case
    d, verts = p.dim, p.vertices
    simplices = triangulate(p)
    total = F(0)
    for s in simplices:
        assert len(s) == d + 1 and list(s) == sorted(set(s)) and set(s) <= set(verts)
        assert s[0] == verts[0]
        vol = abs(laplace([[a - b for a, b in zip(v, s[0])] for v in s[1:]])) / math.factorial(d)
        assert vol > 0
        total += vol
    assert total == volume(p)
    # interior points, from positive weights on p's vertices, each lie in
    # exactly one simplex; a point on a simplex's boundary is not generic
    rng = random.Random(seed)
    for _ in range(6):
        w = [rng.randint(1, 2**20) for _ in verts]
        x = [sum(c * v[i] for c, v in zip(w, verts)) / sum(w) for i in range(d)]
        coords = [barycentric(s, x) for s in simplices]
        if any(min(c) == 0 for c in coords):
            continue
        assert sum(min(c) > 0 for c in coords) == 1


def quadratic_facet_sets(on, s):
    """The maximal proper nonempty sets s & on[b], each with its first b,
    by testing every candidate against every other, in first-b order."""
    faces = {}
    for b, v in enumerate(on):
        t = s & v
        if t and t != s:
            faces.setdefault(t, b)
    return {t: b for t, b in faces.items() if not any(t & u == t != u for u in faces)}


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2**n - 1), max_size=16), st.integers(0, 2**n - 1))))
@example(([0b0011, 0b0111, 0b1100, 0b0001, 0b1111], 0b1111))
@settings(max_examples=300, deadline=None)
def test_facet_sets_match_the_quadratic_definition(case):
    on, s = case
    assert list(geometry._facet_sets(on, s).items()) == list(quadratic_facet_sets(on, s).items())


# ---------------------------------------------------------------------------
# the insertion hull against an exhaustive facet search


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def facet_search(points):
    """Facets ``a . x <= b`` (primitive a) of conv(points), full-dimensional
    in Z^d, in the order an exhaustive search over d-subsets meets them."""
    d = len(points[0])
    found = {}
    for subset in itertools.combinations(range(len(points)), d):
        p0 = points[subset[0]]
        normals = geometry._nullspace(
            [tuple(x - y for x, y in zip(points[i], p0)) for i in subset[1:]], d)
        if len(normals) != 1:
            continue
        a = normals[0]
        b = dot(a, p0)
        signs = set()
        for p in points:
            signs.add((dot(a, p) > b) - (dot(a, p) < b))
            if {-1, 1} <= signs:
                break
        else:
            found.setdefault((a, b) if 1 not in signs else (tuple(-x for x in a), -b), None)
    return list(found)


def oracle_hull(points):
    """`geometry._hull`'s results by exhaustive search: a point is extreme
    when no other point is tight on all of its facets, and facets are
    searched again over the extreme points alone."""
    facets = facet_search(points)
    tight = [{b for b, (a, rhs) in enumerate(facets) if dot(a, p) == rhs} for p in points]
    extreme = [i for i, t in enumerate(tight)
               if not any(t <= u for j, u in enumerate(tight) if j != i)]
    ext = [points[i] for i in extreme]
    if len(ext) < len(points):
        facets = facet_search(ext)
    masks = [sum(1 << k for k, p in enumerate(ext) if dot(a, p) == b) for a, b in facets]
    return extreme, facets, masks


@st.composite
def hull_clouds(draw):
    """Point lists in d = 1..4, lattice or rational, with repeated points,
    many coplanar ones (the boxes are small) and flat sets."""
    d = draw(st.integers(1, 4))
    entries = st.integers(-2, 2).map(F) if draw(st.booleans()) else rationals
    pts = draw(st.lists(st.tuples(*[entries] * d), min_size=2, max_size=d + (7 if d < 4 else 5)))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    flat = draw(st.sampled_from(("", "", "axis", "sum"))) if d > 1 else ""
    if flat == "axis":
        pts = [(F(1),) + p[1:] for p in pts]
    elif flat == "sum":
        pts = [p[:-1] + (1 - sum(p[:-1]),) for p in pts]
    return d, pts


@given(hull_clouds())
@settings(max_examples=200, deadline=None)
def test_hull_matches_exhaustive_search(cloud):
    d, pts = cloud
    p = Polytope(d, pts)
    assume(p.rank >= 1)
    verts = sorted(set(pts))
    nums, den = geometry._homogenize(verts)
    r, pivots = geometry._affine_span(nums)
    coords = geometry._project(nums, pivots)
    extreme, facets, masks = oracle_hull(coords)
    assert geometry._hull(coords) == (extreme, facets, masks)
    assert p.vertices == tuple(verts[i] for i in extreme)
    halfspaces = []
    for a, b in facets:
        lifted = [0] * d
        for j, c in enumerate(pivots):
            lifted[c] = den * a[j]
        halfspaces.append(HalfSpace(lifted, b).canonical())
    assert p.linear_description()[1] == tuple(halfspaces)
    assert p._masks == [sum(1 << b for b, m in enumerate(masks) if m >> k & 1)
                        for k in range(len(extreme))]
    if p.is_full_dim:
        assert p.facets() == tuple(halfspaces)


def tight_halfspaces(p):
    """Per vertex of p, the set of inequalities its mask names."""
    ineqs = p.linear_description()[1]
    return [{h for b, h in enumerate(ineqs) if m >> b & 1} for m in p._masks]


@given(hull_clouds(), st.lists(st.integers(-1, 1) | rationals, min_size=4, max_size=4),
       st.integers(1, 3), st.lists(st.integers(-2, 2), min_size=16, max_size=16))
@settings(max_examples=100, deadline=None)
def test_similarity_images_carry_the_fresh_incidence(cloud, shift, n, entries):
    d, pts = cloud
    matrix = [entries[d * i:d * i + d] for i in range(d)]
    assume(determinant(matrix) != 0)
    p = Polytope(d, pts)
    for q in (p.translated(shift[:d]), p.negated(), dilate(p, n),
              affine_image(p, matrix, shift[:d])):
        assert_incidence(q)
        fresh = Polytope(d, q.vertices)
        (eqs, ineqs), (fresh_eqs, fresh_ineqs) = q.linear_description(), fresh.linear_description()
        assert set(eqs) == set(fresh_eqs) and len(eqs) == len(fresh_eqs)
        assert set(ineqs) == set(fresh_ineqs) and len(ineqs) == len(fresh_ineqs)
        assert tight_halfspaces(q) == tight_halfspaces(fresh)


def test_points_on_facets_leave_the_facet_order_alone():
    # (1, 0) lies on the facet y >= 0 but is no vertex: a search over all
    # five points meets y >= 0 first, one over the four vertices -x + y <= 0
    pts = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    extreme = [(0, 0), (1, 1), (2, 0), (2, 1)]
    assert geometry._hull(pts) == oracle_hull(pts)
    assert Polytope(2, pts).facets() == Polytope(2, extreme).facets()


def test_hull_of_a_five_dimensional_non_simple_body():
    pts = sorted(square_times_octahedron())
    assert geometry._hull(pts) == oracle_hull(pts)


# ---------------------------------------------------------------------------
# vertices_from_facets against exhaustive vertex enumeration


def enumerate_vertices(rows, dim):
    """Vertices of {x : a . x <= b for (a, b) in rows}, sorted: the feasible
    solutions of the nonsingular dim-subsets of rows made tight."""
    found = set()
    for subset in itertools.combinations(rows, dim):
        work, pivots, _ = geometry._eliminate([tuple(a) + (b,) for a, b in subset], dim)
        if len(pivots) < dim:
            continue
        q = work[0][0]
        num = [row[dim] for row in work]
        if q < 0:
            q, num = -q, [-x for x in num]
        if all(dot(a, num) <= b * q for a, b in rows):
            found.add(tuple(F(x, q) for x in num))
    return sorted(found)


def box_rows(dim, size):
    """The rows of the box |x_i| <= size."""
    return [(tuple(s if j == i else 0 for j in range(dim)), size)
            for i in range(dim) for s in (1, -1)]


def has_recession_direction(rows, dim):
    """Some x != 0 has a . x <= 0 on every row: that cone, cut to the box
    |x_i| <= 1, then has a vertex other than 0."""
    cone = [(a, 0) for a, _ in rows]
    return any(any(v) for v in enumerate_vertices(cone + box_rows(dim, 1), dim))


def cut_oracle(rows, dim):
    """Infeasible, Unbounded, or the sorted vertices of the system."""
    verts = enumerate_vertices(rows, dim)
    if not verts:
        # a nonempty system without vertices has, by Cramer's rule, a point
        # of a minimal face with every |x_i| below this product
        size = 1 + math.prod(sum(map(abs, a)) + abs(b) + 1 for a, b in rows)
        if not enumerate_vertices(rows + box_rows(dim, size), dim):
            return Infeasible
    if has_recession_direction(rows, dim):
        return Unbounded
    return verts


@st.composite
def halfspace_systems(draw):
    """Integer systems ``a . x <= b`` in d = 1..4, empty to overdetermined:
    random rows, often with a box that bounds them, with repeated rows and
    with equalities given as pairs, in random order."""
    d = draw(st.integers(1, 4))
    normal = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any).map(tuple)
    rows = draw(st.lists(st.tuples(normal, st.integers(-3, 3)), max_size=d + 3))
    if draw(st.booleans()):
        rows += box_rows(d, draw(st.integers(1, 2)))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows))
        rows.append((tuple(-x for x in a), -b))
    return d, draw(st.permutations(rows))


@given(halfspace_systems())
@settings(max_examples=120, deadline=None)
def test_vertices_from_facets_matches_enumeration(system):
    d, rows = system
    hss = [halfspace(a, b) for a, b in rows]
    expected = cut_oracle(rows, d)
    if expected in (Infeasible, Unbounded):
        with pytest.raises(expected):
            vertices_from_facets(hss, d)
        return
    p = vertices_from_facets(hss, d)
    assert list(p.vertices) == expected
    assert_incidence(p)
    # the kept inequalities are rows of the system in its order; a
    # full-dimensional body keeps per facet the first row cutting it out
    canonical = [h.canonical() for h in hss]
    first = [canonical.index(h) for h in p.linear_description()[1]]
    assert first == sorted(set(first))
    if p.is_full_dim:
        tight = [frozenset(i for i, v in enumerate(p.vertices) if h.value(v) == 0) for h in hss]
        proper = [t for t in tight if t and len(t) < len(p.vertices)]
        facets = {t for t in proper if not any(t < u for u in proper)}
        assert first == sorted(tight.index(t) for t in facets)
