"""Catalog of polytope families used throughout the test batteries.

Simplices, unit-cube slab pieces and their scaling decompositions, Reeve
tetrahedra, the central slab body and its prism, random lattice polytopes,
random unimodular matrices and random zonotopes.  Constructors are pure and
deterministic per seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .counting import ZonotopeSpec, seeded_random
from .errors import DegenerateInput
from .geometry import (
    IVec,
    Mat,
    Polytope,
    PolytopeUnion,
    Vec,
    ONE,
    ZERO,
    affine_image,
    as_vec,
    determinant,
    minkowski_sum,
    segment,
    triangulate,
    unit_cube,
    zero_vec,
)


def _unit_vector(d: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(d))


def standard_simplex(d: int) -> Polytope:
    """conv{0, e_1, ..., e_d}: the corner simplex of the unit cube."""
    if d < 1:
        raise DegenerateInput("dimension must be at least 1")
    verts = [zero_vec(d)] + [_unit_vector(d, i) for i in range(d)]
    return Polytope(d, verts)


def slab_pieces(d: int) -> list[Polytope]:
    """The d pieces cut from [0,1]^d by the hyperplanes sum(x) = k.

    Piece k is {x in [0,1]^d : k-1 <= sum(x) <= k}; piece k and piece
    d+1-k are point reflections of each other through (1/2, ..., 1/2).
    """
    if d < 1:
        raise DegenerateInput("dimension must be at least 1")
    pieces = []
    for k in range(1, d + 1):
        verts = [
            as_vec(bits)
            for bits in itertools.product((0, 1), repeat=d)
            if sum(bits) in (k - 1, k)
        ]
        pieces.append(Polytope(d, verts))
    return pieces


def reeve_tetrahedron(n: int) -> Polytope:
    """Tetrahedron (0,0,0), (0,1,0), (1,0,0), (1,1,n): only its four
    vertices are lattice points, yet translates can capture many."""
    if n < 1:
        raise DegenerateInput("Reeve parameter must be positive")
    verts = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, n)]
    return Polytope(3, verts)


def central_slab(d: int) -> Polytope:
    """{x in [0,1]^d : 1 <= sum(x) <= d-1}: the cube with the two corner
    simplices removed.  Convex, centrally symmetric about (1/2,...,1/2),
    yet its shifted lattice count is not constant for d >= 3."""
    if d < 2:
        raise DegenerateInput("central slab needs dimension at least 2")
    verts = [
        as_vec(bits)
        for bits in itertools.product((0, 1), repeat=d)
        if 1 <= sum(bits) <= d - 1
    ]
    return Polytope(d, verts)


def embed_with_zero_last(p: Polytope) -> Polytope:
    """Same vertex set with a zero coordinate appended (a flat body)."""
    return Polytope(p.dim + 1, [v + (ZERO,) for v in p.vertices])


def prism_over_embedded(p: Polytope) -> Polytope:
    """Embed p with a zero last coordinate and extrude along e_{d+1}."""
    if not p.is_full_dim:
        raise DegenerateInput("prism base must be full-dimensional")
    flat = embed_with_zero_last(p)
    d1 = p.dim + 1
    e = segment(zero_vec(d1), _unit_vector(d1, d1 - 1))
    return minkowski_sum(flat, e)


# ---------------------------------------------------------------------------
# scaling decompositions


def piece_multiplicity(k: int, n: int, d: int) -> int:
    """Number of copies of piece k in the tiling of the n-fold dilate:
    C(n-k+d, d), taken as 0 when n < k."""
    if n < k:
        return 0
    return math.comb(n - k + d, d)


@dataclass
class ScalingDecomposition:
    """Pieces P_1..P_d with X(n*base) = sum_k C(n-k+d, d) * X(P_k).

    Each piece is a union of affine images of the cube slab pieces, one
    image per simplex of the base triangulation; the piece counts sum to a
    shift-independent constant equal to d! * vol(base).
    """

    dim: int
    pieces: list[PolytopeUnion]
    transforms: list[tuple[tuple[IVec, ...], IVec]]
    constant_sum: int

    def multiplicity(self, k: int, n: int) -> int:
        return piece_multiplicity(k, n, self.dim)


def _simplex_transform(simplex_verts) -> tuple[tuple[IVec, ...], IVec]:
    """Integer (matrix, translation) mapping the corner simplex onto the
    given lattice simplex: columns are edge vectors from the
    lexicographically smallest vertex, translation is that vertex."""
    v0, *rest = sorted(tuple(x.numerator for x in v) for v in simplex_verts)
    return tuple(zip(*(tuple(x - y for x, y in zip(v, v0)) for v in rest))), v0


def scaling_decomposition(base: Polytope, kind: str = "polyhedron") -> ScalingDecomposition:
    """Build the slab-piece decomposition of an integer polytope.

    kind="simplex" requires base to be a simplex; kind="polyhedron"
    triangulates first (fan from the lexicographically smallest vertex).
    Pieces inherit the normalization of the cube slabs, so piece k and the
    negation of piece d+1-k differ by an integer translation, simplex by
    simplex.
    """
    if not base.is_full_dim:
        raise DegenerateInput("decomposition base must be full-dimensional")
    if not base.is_lattice:
        raise DegenerateInput("decomposition base must be an integer polytope")
    d = base.dim
    if kind == "simplex":
        if len(base.vertices) != d + 1:
            raise DegenerateInput("kind='simplex' requires a simplex base")
        simplices = [base.vertices]
    elif kind == "polyhedron":
        simplices = triangulate(base)
    else:
        raise DegenerateInput(f"unknown decomposition kind: {kind!r}")
    slabs = slab_pieces(d)
    transforms = [_simplex_transform(s) for s in simplices]
    pieces = []
    for k in range(1, d + 1):
        parts = [affine_image(slabs[k - 1], m, t) for m, t in transforms]
        pieces.append(PolytopeUnion(tuple(parts)))
    constant = sum(abs(int(determinant(m))) for m, _ in transforms)
    return ScalingDecomposition(d, pieces, transforms, constant)


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix with determinant exactly 1."""

    matrix: Mat

    def __post_init__(self):
        if determinant(self.matrix) != 1:
            raise DegenerateInput("matrix is not unimodular")


def random_unimodular(
    d: int,
    seed: int = 0,
    steps: int = 12,
    max_entry: int = 10**6,
) -> UnimodularMatrix:
    """Product of random elementary row additions E_ij(+-1).

    Steps whose result would push an entry past max_entry are rejected and
    redrawn, keeping subsequent counting boxes small.
    """
    if d < 2:
        raise DegenerateInput("unimodular sampling needs dimension >= 2")
    rng = seeded_random(seed)
    rows = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
    done = 0
    guard = 0
    while done < steps:
        guard += 1
        if guard > 100 * (steps + 1):
            break
        i = rng.randrange(d)
        j = rng.randrange(d)
        if i == j:
            continue
        sign = 1 if rng.random() < 0.5 else -1
        new_row = [a + sign * b for a, b in zip(rows[i], rows[j])]
        if max(abs(x) for x in new_row) > max_entry:
            continue
        rows[i] = new_row
        done += 1
    return UnimodularMatrix(tuple(tuple(r) for r in rows))


def random_lattice_polytope(
    d: int,
    point_count: int,
    box: int,
    seed: int = 0,
    max_rejections: int = 100,
) -> Polytope:
    """Hull of point_count uniform integer points in [-box, box]^d,
    redrawn until full-dimensional."""
    if point_count < d + 1:
        raise DegenerateInput("need at least d+1 points")
    rng = seeded_random(seed)
    for _ in range(max_rejections):
        pts = {
            tuple(rng.randint(-box, box) for _ in range(d))
            for _ in range(point_count)
        }
        if len(pts) < d + 1:
            continue
        p = Polytope(d, pts)
        if p.is_full_dim:
            return p
    raise DegenerateInput("no full-dimensional draw within the rejection cap")


def random_lattice_simplex(d: int, box: int, seed: int = 0) -> Polytope:
    """Random integer simplex: hull of d+1 points in general position."""
    for attempt in range(100):
        p = random_lattice_polytope(d, d + 1, box, seed + 7919 * attempt)
        if len(p.vertices) == d + 1:
            return p
    raise DegenerateInput("no simplex draw within the rejection cap")


def random_zonotope(
    d: int,
    n_generators: int,
    box: int,
    seed: int = 0,
) -> ZonotopeSpec:
    """Random integer zonotope generators spanning R^d."""
    rng = seeded_random(seed)
    for _ in range(100):
        gens = []
        for _ in range(n_generators):
            g = tuple(rng.randint(-box, box) for _ in range(d))
            if any(g):
                gens.append(as_vec(g))
        if len(gens) < d:
            continue
        for subset in itertools.combinations(gens, d):
            if determinant(subset) != 0:
                return ZonotopeSpec(d, tuple(gens))
    raise DegenerateInput("no spanning generator draw within the rejection cap")


def centrally_symmetric_polytope(d: int, point_count: int, box: int, seed: int = 0) -> Polytope:
    """Hull of V united with -V: an integer polytope symmetric about 0."""
    rng = seeded_random(seed)
    for _ in range(100):
        pts = [
            tuple(rng.randint(-box, box) for _ in range(d))
            for _ in range(point_count)
        ]
        all_pts = pts + [tuple(-c for c in p) for p in pts]
        p = Polytope(d, all_pts)
        if p.is_full_dim:
            return p
    raise DegenerateInput("no full-dimensional draw within the rejection cap")


def cross_polytope(d: int, scale: int = 1) -> Polytope:
    """conv{+-scale * e_i}: centrally symmetric about the origin."""
    verts = []
    for i in range(d):
        e = [0] * d
        e[i] = scale
        verts.append(tuple(e))
        verts.append(tuple(-x for x in e))
    return Polytope(d, verts)


def hexagon_zonotope() -> ZonotopeSpec:
    """Generators (1,0), (0,1), (1,1): hexagon of area 3."""
    return ZonotopeSpec(2, (as_vec((1, 0)), as_vec((0, 1)), as_vec((1, 1))))
