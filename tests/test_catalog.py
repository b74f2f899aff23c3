"""Construction catalog: slab pieces, scaling decompositions, special bodies."""

import math
from fractions import Fraction

import pytest

from polyshift import catalog
from polyshift.catalog import (
    _simplex_transform,
    central_slab,
    centrally_symmetric_polytope,
    cross_polytope,
    embed_with_zero_last,
    piece_multiplicity,
    prism_over_embedded,
    random_lattice_polytope,
    random_lattice_simplex,
    random_unimodular,
    random_zonotope,
    scaling_decomposition,
    slab_pieces,
    standard_simplex,
    reeve_tetrahedron,
)
from polyshift.counting import ShiftStream, count_at, generic_draws
from polyshift.errors import DegenerateInput
from polyshift.geometry import (
    Polytope,
    affine_image,
    determinant,
    dilate,
    segment,
    triangulate,
    unit_cube,
)

F = Fraction


# ---------------------------------------------------------------------------
# simplex and slab pieces


def test_standard_simplex_2d():
    s = standard_simplex(2)
    assert set(s.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_standard_simplex_volume_and_facets(d):
    s = standard_simplex(d)
    assert s.volume() == F(1, math.factorial(d))
    assert len(s.facets()) == d + 1


def test_slab_pieces_2d():
    pieces = slab_pieces(2)
    assert len(pieces) == 2
    assert [p.volume() for p in pieces] == [F(1, 2), F(1, 2)]


def test_slab_pieces_3d_volume_profile():
    assert [p.volume() for p in slab_pieces(3)] == [F(1, 6), F(4, 6), F(1, 6)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_slab_volumes_sum_to_one(d):
    assert sum(p.volume() for p in slab_pieces(d)) == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_slab_point_reflection_pairing(d):
    pieces = slab_pieces(d)
    ones = tuple(F(1) for _ in range(d))
    for k in range(d):
        mirrored = pieces[d - 1 - k].negated().translated(ones)
        assert mirrored == pieces[k]


def test_slab_pieces_partition_the_cube():
    pieces = slab_pieces(3)
    stream = ShiftStream(3, seed=3)
    cube = unit_cube(3)
    for _ in range(20):
        s = stream.draw()
        assert sum(count_at(p, s).count for p in pieces) == count_at(cube, s).count


# ---------------------------------------------------------------------------
# scaling decomposition


def test_multiplicities_d2():
    assert piece_multiplicity(1, 2, 2) == 3
    assert piece_multiplicity(2, 2, 2) == 1


def test_multiplicities_d3_boundary():
    # n = 2 in three dimensions: C(4,3), C(3,3), C(2,3) -> 4, 1, 0
    assert [piece_multiplicity(k, 2, 3) for k in (1, 2, 3)] == [4, 1, 0]
    # dilation below the piece index contributes nothing
    assert piece_multiplicity(3, 1, 3) == 0
    assert piece_multiplicity(1, 1, 3) == 1


def test_simplex_decomposition_pieces_are_slabs():
    dec = scaling_decomposition(standard_simplex(3))
    slabs = slab_pieces(3)
    for piece, slab in zip(dec.pieces, slabs):
        assert piece == (slab,)
    assert dec.constant_sum == 1


def test_decomposition_volume_certificate():
    for d, base in ((2, standard_simplex(2)), (3, reeve_tetrahedron(2))):
        dec = scaling_decomposition(base)
        for n in range(1, 6):
            total = sum(
                piece_multiplicity(k, n, d) * sum(p.volume() for p in dec.pieces[k - 1])
                for k in range(1, d + 1)
            )
            assert total == F(n) ** d * base.volume()


def test_decomposition_volume_certificate_4d():
    base = standard_simplex(4)
    dec = scaling_decomposition(base)
    for n in range(1, 6):
        total = sum(
            piece_multiplicity(k, n, 4) * sum(p.volume() for p in dec.pieces[k - 1])
            for k in range(1, 5)
        )
        assert total == F(n) ** 4 * base.volume()


def test_decomposition_polyhedron_volume_certificate():
    base = random_lattice_polytope(3, 6, 2, seed=5)
    dec = scaling_decomposition(base)
    for n in range(1, 6):
        total = sum(
            piece_multiplicity(k, n, 3) * sum(p.volume() for p in dec.pieces[k - 1])
            for k in range(1, 4)
        )
        assert total == F(n) ** 3 * base.volume()


def test_decomposition_negation_pairing_piecewise():
    base = random_lattice_polytope(3, 6, 2, seed=9)
    dec = scaling_decomposition(base)
    d = base.dim
    for k in range(d):
        for j in range(len(dec.pieces[k])):
            part = dec.pieces[k][j]
            mirror = dec.pieces[d - 1 - k][j].negated()
            # equal up to an integer translation
            delta = tuple(
                a - b for a, b in zip(part.vertices[0], mirror.vertices[0])
            )
            assert all(c.denominator == 1 for c in delta)
            assert mirror.translated(delta) == part


def test_decomposition_first_piece_is_base():
    base = random_lattice_polytope(2, 6, 3, seed=4)
    dec = scaling_decomposition(base)
    assert sum(p.volume() for p in dec.pieces[0]) == base.volume()
    stream = ShiftStream(2, seed=30)
    for _ in range(20):
        s = stream.draw()
        assert sum(count_at(p, s).count for p in dec.pieces[0]) == count_at(base, s).count


def test_decomposition_constant_sum_properties():
    base = reeve_tetrahedron(1)
    dec = scaling_decomposition(base)
    assert dec.constant_sum == 1  # 3! * vol = 6 * 1/6
    base2 = random_lattice_polytope(3, 6, 2, seed=31)
    dec2 = scaling_decomposition(base2)
    assert dec2.constant_sum == 6 * base2.volume()
    # the pieces of each simplex jointly tile an integer parallelepiped:
    # their total generic count is the constant
    parts = [part for piece in dec2.pieces for part in piece]
    draws = generic_draws(ShiftStream(3, seed=12), parts, 8)
    assert {sum(row) for _, counts, _ in draws for row in zip(*counts)} == {dec2.constant_sum}


def test_transform_columns_index_equals_simplex_count():
    # |det| of the edge-vector matrix = d! * simplex volume = the
    # almost-sure count of the spanned parallelepiped
    import math

    from polyshift.counting import ZonotopeSpec, zonotope_constant

    for seed in (3, 4, 5):
        simplex = random_lattice_simplex(3, 3, seed=seed)
        dec = scaling_decomposition(simplex)
        (mat, _t) = _simplex_transform(simplex.vertices)
        cols = list(zip(*mat))
        idx = zonotope_constant(ZonotopeSpec(3, cols))
        assert idx == math.factorial(3) * simplex.volume() == dec.constant_sum


def test_decomposition_rejects_bad_input():
    with pytest.raises(DegenerateInput, match="integer polytope"):
        scaling_decomposition(standard_simplex(2).translated((F(1, 2), 0)))
    with pytest.raises(DegenerateInput, match="full-dimensional"):
        scaling_decomposition(segment((0, 0), (1, 1)))


@pytest.mark.parametrize("simplex", [
    *(standard_simplex(d) for d in (2, 3, 4)),
    *(random_lattice_simplex(d, 3, seed) for d in (2, 3, 4) for seed in (0, 1, 2)),
], ids=[*(f"standard-d{d}" for d in (2, 3, 4)),
        *(f"random-d{d}-seed{seed}" for d in (2, 3, 4) for seed in (0, 1, 2))])
def test_a_simplex_decomposes_into_the_images_of_the_slabs(simplex):
    # a simplex is its own triangulation, so its pieces are the slab pieces'
    # images under the one map of the corner simplex onto it
    assert [set(s) for s in triangulate(simplex)] == [set(simplex.vertices)]
    m, t = _simplex_transform(simplex.vertices)
    assert scaling_decomposition(simplex).pieces == [
        (affine_image(slab, m, t),) for slab in slab_pieces(simplex.dim)]


# ---------------------------------------------------------------------------
# Reeve tetrahedra


def test_reeve_vertices():
    t4 = reeve_tetrahedron(4)
    assert set(t4.vertices) == {
        (F(0), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
        (F(1), F(1), F(4)),
    }
    with pytest.raises(DegenerateInput):
        reeve_tetrahedron(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_reeve_only_vertices_are_lattice_points(n):
    res = count_at(reeve_tetrahedron(n), (0, 0, 0))
    assert res.count == 4
    assert len(res.boundary_hits) == 4


def test_reeve_translates_capture_many_points():
    t20 = reeve_tetrahedron(20)
    stream = ShiftStream(3, seed=99)
    best = max(count_at(t20, stream.draw()).count for _ in range(1000))
    assert best >= 4


# ---------------------------------------------------------------------------
# central slab and prisms


def test_central_slab_3d():
    p = central_slab(3)
    assert len(p.vertices) == 6
    assert p.volume() == F(2, 3)


def test_central_slab_centrally_symmetric():
    for d in (3, 4):
        p = central_slab(d)
        center_doubled = tuple(F(1) for _ in range(d))
        assert p.negated().translated(center_doubled) == p


def test_central_slab_rejects_low_dimension():
    with pytest.raises(DegenerateInput):
        central_slab(1)


def test_prism_over_square_is_cube():
    square = unit_cube(2)
    assert prism_over_embedded(square) == unit_cube(3)


def test_prism_over_slab_full_dimensional():
    prism = prism_over_embedded(central_slab(3))
    assert prism.dim == 4
    assert prism.is_full_dim
    assert prism.volume() == F(2, 3)


def test_embed_is_flat():
    flat = embed_with_zero_last(central_slab(3))
    assert flat.dim == 4
    assert not flat.is_full_dim
    assert flat.volume() == 0


# ---------------------------------------------------------------------------
# random generators


@pytest.mark.parametrize("seed", range(8))
def test_random_unimodular_determinant_one(seed):
    u = random_unimodular(3, seed=seed)
    assert determinant(u.matrix) == 1
    assert max(abs(x) for row in u.matrix for x in row) <= catalog._UNIMODULAR_MAX_ENTRY


def test_random_unimodular_deterministic():
    a = random_unimodular(2, seed=7)
    b = random_unimodular(2, seed=7)
    assert a.matrix == b.matrix


def test_random_lattice_polytope_properties():
    p = random_lattice_polytope(2, 3, 3, seed=12)
    assert p.dim == 2 and p.is_full_dim
    assert p.is_lattice
    assert random_lattice_polytope(2, 3, 3, seed=12) == p


def test_random_lattice_simplex():
    s = random_lattice_simplex(3, 3, seed=6)
    assert len(s.vertices) == 4
    assert s.is_full_dim and s.is_lattice


def test_random_zonotope_spans():
    spec = random_zonotope(3, 4, 3, seed=8)
    assert spec.dim == 3
    assert len(spec.generators) >= 3


def test_centrally_symmetric_random_body():
    p = centrally_symmetric_polytope(3, 3, 2, seed=15)
    assert p.negated() == p
    assert p.is_lattice and p.is_full_dim


@pytest.mark.parametrize("make", [
    lambda seed: random_lattice_polytope(3, 6, 2, seed=seed),
    lambda seed: random_lattice_simplex(3, 3, seed=seed),
    lambda seed: random_unimodular(3, seed=seed),
    lambda seed: random_zonotope(3, 4, 3, seed=seed),
    lambda seed: centrally_symmetric_polytope(3, 3, 2, seed=seed),
], ids=["lattice-polytope", "lattice-simplex", "unimodular", "zonotope", "centrally-symmetric"])
def test_seeded_constructions_reject_a_negative_seed(make):
    # random.seed takes |seed|, so -3 would replay the instance of seed 3
    make(3)
    with pytest.raises(DegenerateInput, match="seed must be nonnegative, got -3"):
        make(-3)


def test_cross_polytope():
    q = cross_polytope(3)
    assert len(q.vertices) == 6
    assert q.volume() == F(4, 3)
    assert cross_polytope(4).volume() == F(2, 3)
