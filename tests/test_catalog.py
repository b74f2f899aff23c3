"""Construction catalog: slab pieces, scaling decompositions, special bodies."""

import math
from fractions import Fraction

import pytest

from polyshift.catalog import (
    central_slab,
    centrally_symmetric_polytope,
    cross_polytope,
    embed_with_zero_last,
    hexagon_zonotope,
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
from polyshift.counting import ShiftStream, count_at, generic_count
from polyshift.errors import DegenerateInput
from polyshift.geometry import (
    Polytope,
    PolytopeUnion,
    determinant,
    dilate,
    unit_cube,
    volume,
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
    assert volume(s) == F(1, math.factorial(d))
    assert len(s.facets()) == d + 1


def test_slab_pieces_2d():
    pieces = slab_pieces(2)
    assert len(pieces) == 2
    assert [volume(p) for p in pieces] == [F(1, 2), F(1, 2)]


def test_slab_pieces_3d_volume_profile():
    assert [volume(p) for p in slab_pieces(3)] == [F(1, 6), F(4, 6), F(1, 6)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_slab_volumes_sum_to_one(d):
    assert sum(volume(p) for p in slab_pieces(d)) == 1


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
    dec = scaling_decomposition(standard_simplex(3), "simplex")
    slabs = slab_pieces(3)
    for piece, slab in zip(dec.pieces, slabs):
        assert len(piece.parts) == 1
        assert piece.parts[0] == slab
    assert dec.constant_sum == 1


def test_decomposition_volume_certificate():
    for d, base in ((2, standard_simplex(2)), (3, reeve_tetrahedron(2))):
        dec = scaling_decomposition(base, "simplex")
        for n in range(1, 6):
            total = sum(
                dec.multiplicity(k, n) * volume(dec.pieces[k - 1])
                for k in range(1, d + 1)
            )
            assert total == F(n) ** d * volume(base)


def test_decomposition_volume_certificate_4d():
    base = standard_simplex(4)
    dec = scaling_decomposition(base, "simplex")
    for n in range(1, 6):
        total = sum(
            dec.multiplicity(k, n) * volume(dec.pieces[k - 1]) for k in range(1, 5)
        )
        assert total == F(n) ** 4 * volume(base)


def test_decomposition_polyhedron_volume_certificate():
    base = random_lattice_polytope(3, 6, 2, seed=5)
    dec = scaling_decomposition(base, "polyhedron")
    for n in range(1, 6):
        total = sum(
            dec.multiplicity(k, n) * volume(dec.pieces[k - 1]) for k in range(1, 4)
        )
        assert total == F(n) ** 3 * volume(base)


def test_decomposition_negation_pairing_piecewise():
    base = random_lattice_polytope(3, 6, 2, seed=9)
    dec = scaling_decomposition(base, "polyhedron")
    d = dec.dim
    for k in range(d):
        for j in range(len(dec.transforms)):
            part = dec.pieces[k].parts[j]
            mirror = dec.pieces[d - 1 - k].parts[j].negated()
            # equal up to an integer translation
            delta = tuple(
                a - b for a, b in zip(part.vertices[0], mirror.vertices[0])
            )
            assert all(c.denominator == 1 for c in delta)
            assert mirror.translated(delta) == part


def test_decomposition_first_piece_is_base():
    base = random_lattice_polytope(2, 6, 3, seed=4)
    dec = scaling_decomposition(base, "polyhedron")
    assert sum(volume(p) for p in dec.pieces[0].parts) == volume(base)
    stream = ShiftStream(2, seed=30)
    for _ in range(20):
        s = stream.draw()
        assert count_at(dec.pieces[0], s).count == count_at(base, s).count


def test_decomposition_constant_sum_properties():
    base = reeve_tetrahedron(1)
    dec = scaling_decomposition(base, "simplex")
    assert dec.constant_sum == 1  # 3! * vol = 6 * 1/6
    base2 = random_lattice_polytope(3, 6, 2, seed=31)
    dec2 = scaling_decomposition(base2, "polyhedron")
    assert dec2.constant_sum == 6 * volume(base2)
    # the pieces of each simplex jointly tile an integer parallelepiped:
    # their total generic count is the constant
    union_all = PolytopeUnion(
        tuple(part for piece in dec2.pieces for part in piece.parts)
    )
    assert generic_count(union_all, seed=12) == dec2.constant_sum


def test_transform_columns_index_equals_simplex_count():
    # |det| of the edge-vector matrix = d! * simplex volume = the
    # almost-sure count of the spanned parallelepiped
    import math

    from polyshift.counting import parallelepiped_index

    for seed in (3, 4, 5):
        simplex = random_lattice_simplex(3, 3, seed=seed)
        dec = scaling_decomposition(simplex, "simplex")
        (mat, _t) = dec.transforms[0]
        cols = list(zip(*mat))
        idx = parallelepiped_index(cols)
        assert idx == math.factorial(3) * volume(simplex) == dec.constant_sum


def test_decomposition_rejects_bad_input():
    with pytest.raises(DegenerateInput):
        scaling_decomposition(standard_simplex(2).translated((F(1, 2), 0)), "simplex")
    with pytest.raises(DegenerateInput):
        scaling_decomposition(unit_cube(2), "simplex")
    with pytest.raises(DegenerateInput):
        scaling_decomposition(standard_simplex(2), "banana")


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
    assert volume(p) == F(2, 3)


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
    assert volume(prism) == F(2, 3)


def test_embed_is_flat():
    flat = embed_with_zero_last(central_slab(3))
    assert flat.dim == 4
    assert not flat.is_full_dim
    assert volume(flat) == 0


# ---------------------------------------------------------------------------
# random generators


def test_random_unimodular_zero_steps_is_identity():
    u = random_unimodular(3, seed=1, steps=0)
    assert u.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("seed", range(8))
def test_random_unimodular_determinant_one(seed):
    u = random_unimodular(3, seed=seed)
    assert determinant(u.matrix) == 1


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
    assert volume(q) == F(4, 3)
    assert volume(cross_polytope(4)) == F(2, 3)


def test_hexagon_zonotope_spec():
    spec = hexagon_zonotope()
    assert spec.dim == 2
    assert len(spec.generators) == 3
