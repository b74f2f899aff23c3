"""Minkowski sums and affine images that take their incidence from their
operands instead of a fresh hull.

The face of P + Q that maximizes a direction is the sum of the faces of P
and of Q that maximize it.  So the facets of a sum of full-dimensional
bodies in d <= 3 are the facets of P, those of Q and, in 3-D, the planes
spanned by an edge of each (Fukuda 2004), and its vertices and masks
follow from theirs.  An invertible affine map carries a full-dimensional
body's facets and tight sets over.  Both hand their unsorted points, rows
and tight sets to `geometry._ordered`, which the insertion hull also ends
with, so each result equals the body the point constructor builds from its
points: numerators, denominator, facet order and masks.  A sum with a flat
summand or in d >= 4, and the image of a flat body, take that constructor.

`geometry` re-exports both functions, which is where callers import them.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Iterable, Sequence

from .errors import DegenerateInput, SingularMatrix
from .geometry import (IVec, Mat, Polytope, _dot, _eliminate, _homogenize, _length_error,
                       _ordered, _primitive, _row, _transpose, as_mat, as_vec)


def _full(dim: int, points, extreme: Iterable[int], facets: dict, den: int) -> Polytope:
    """The full-dimensional body with vertices ``points[bit]`` over `den`
    for the bits `extreme` and facet rows `facets` {row: bitmask of the
    bits tight on it}, in the point constructor's order (`_ordered`)."""
    extreme, rows, on = _ordered(points, extreme, facets)
    return Polytope._made(dim, [points[b] for b in extreme], den, dim, ((), tuple(rows)),
                          _transpose(on, len(extreme)))


def _edge_ends(nums: Sequence[IVec], on: Sequence[int]) -> dict[IVec, int]:
    """{primitive direction of an edge of the 3-polytope with vertices
    `nums` and per-facet vertex masks `on`, first nonzero entry positive:
    the bitmask of one end of each edge along it}.  Two facets of a
    3-polytope meet in a face, so they meet in an edge exactly when they
    share two vertices, its ends."""
    out: dict[IVec, int] = {}
    for s, t in itertools.combinations(on, 2):
        e = s & t
        if e.bit_count() == 2:
            i, j = (e & -e).bit_length() - 1, e.bit_length() - 1
            u = _primitive([y - x for x, y in zip(nums[i], nums[j])], 0)[0]
            out[u] = out.get(u, 0) | 1 << i
    return out


def _support(nums: Sequence[IVec], a: IVec) -> tuple[int, int]:
    """(max of a . v over the points `nums`, the bitmask of those attaining it)."""
    vals = [sum(map(mul, a, v)) for v in nums]
    top = max(vals)
    return top, sum(1 << i for i, x in enumerate(vals) if x == top)


def _sum_of_bodies(p: Polytope, q: Polytope, den: int, f: int, g: int) -> Polytope:
    """p + q for full-dimensional p and q in d <= 3, from their incidence.

    The face of p + q maximizing a is p's face plus q's, so its facets are
    those of p, those of q and, in 3-D, the planes of an edge of each: for
    their primitive cross product a and each sign, the plane is a facet
    when some edge of p parallel to the first and some edge of q parallel
    to the second attain their body's maximum of a (Fukuda 2004).  The
    sum v_i + w_j over `den` is candidate bit ``i * |q| + j``, and its
    facets are those whose p-tight set holds i and whose q-tight set holds
    j.  In d <= 3 a boundary point that is no vertex lies inside a facet or
    an edge, so on at most d - 1 facets: the vertices are the candidates
    on d facets or more, each the sum of one vertex of p and one of q."""
    pn, qn = p.numerators, q.numerators
    nq = len(qn)
    # primitive outward direction: (p's maximum, its tight mask, q's, q's)
    faces: dict[IVec, tuple[int, int, int, int]] = {}
    ons = []
    for body, other in ((p, q), (q, p)):
        ineqs = body._description[1]
        ons.append(_transpose(body._masks, len(ineqs)))
        for (a, b), tight in zip(ineqs, ons[-1]):
            k = math.gcd(*a)
            a = tuple(x // k for x in a)
            if a not in faces:
                own, across = (b * body.denominator // k, tight), _support(other.numerators, a)
                faces[a] = own + across if body is p else across + own
    if p.dim == 3:
        crossed: dict[IVec, tuple[IVec, list[tuple[int, int]]]] = {}
        ends_q = _edge_ends(qn, ons[1]).items()
        for (u0, u1, u2), mu in _edge_ends(pn, ons[0]).items():
            for (v0, v1, v2), mv in ends_q:
                a = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
                k = math.gcd(*a)
                if k:
                    a = (a[0] // k, a[1] // k, a[2] // k)
                    minus = (-a[0], -a[1], -a[2])
                    if a < minus:  # one key per line, its first nonzero entry positive
                        a, minus = minus, a
                    crossed.setdefault(a, (minus, []))[1].append((mu, mv))
        for a, (minus, ends) in crossed.items():
            for a in (a, minus):
                if a in faces:
                    continue
                tp, sp = _support(pn, a)
                at = [mv for mu, mv in ends if mu & sp]
                if at:
                    tq, sq = _support(qn, a)
                    if any(mv & sq for mv in at):
                        faces[a] = tp, sp, tq, sq
    facets = {_row(*_primitive([den * x for x in a], f * tp + g * tq)):
              sum(sq << i * nq for i in range(len(pn)) if sp >> i & 1)
              for a, (tp, sp, tq, sq) in faces.items()}
    at_p = _transpose([sp for _, sp, _, _ in faces.values()], len(pn))  # per vertex, its facets
    at_q = _transpose([sq for _, _, _, sq in faces.values()], nq)
    points = {i * nq + j: tuple(f * x + g * y for x, y in zip(v, w))
              for (i, v), (j, w) in itertools.product(enumerate(pn), enumerate(qn))
              if (at_p[i] & at_q[j]).bit_count() >= p.dim}
    return _full(p.dim, points, points, facets, den)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Convex hull of pairwise vertex sums, normalized to extreme points.

    Two full-dimensional summands in d <= 3 give their sum its incidence
    (`_sum_of_bodies`); a flat summand, or d >= 4, takes the hull of the
    pairwise sums."""
    if p.dim != q.dim:
        raise DegenerateInput("Minkowski sum requires equal ambient dimensions")
    if p.is_empty or q.is_empty:
        return Polytope.empty(p.dim)
    den = math.lcm(p.denominator, q.denominator)
    f, g = den // p.denominator, den // q.denominator
    if p.dim <= 3 and p.is_full_dim and q.is_full_dim:
        return _sum_of_bodies(p, q, den, f, g)
    sums = (tuple(f * x + g * y for x, y in zip(a, b)) for a in p.numerators for b in q.numerators)
    return Polytope(p.dim, sums, den=den)


def affine_image(p: Polytope, m: Mat, t: Iterable) -> Polytope:
    """Image of p under x -> m x + t; m must be invertible.  With
    m = rows / mden and t = tn / tden, vertex v / den maps to numerator
    f * (rows v) + g * tn over lcm(mden * den, tden).

    One elimination of ``[rows | I]`` tests invertibility and leaves
    ``c * rows^-1`` in its right block, c the last pivot.  A
    full-dimensional p keeps its incidence: facet ``a . x <= b`` maps to
    ``n . y <= |c| b / mden + n . t`` with ``n = (|c| rows^-1)^T a``, and
    `_ordered` sorts the images as the point constructor would.  A flat p
    takes the hull of its image points."""
    rows, mden = _homogenize(as_mat(m))
    d = p.dim
    if len(rows) != d or any(len(row) != d for row in rows):
        raise DegenerateInput(f"affine image in dimension {d} requires a {d}x{d} matrix")
    (tn,), tden = _homogenize([as_vec(t)])
    if len(tn) != d:
        raise _length_error("translation", tn, d)
    work, pivots, _ = _eliminate([list(row) + [int(k == i) for k in range(d)]
                                  for i, row in enumerate(rows)], d)
    if len(pivots) < d:
        raise SingularMatrix("affine image requires an invertible matrix")
    den = math.lcm(mden * p.denominator, tden)
    f, g = den // (mden * p.denominator), den // tden
    nums = [tuple(f * _dot(row, v) + g * x for row, x in zip(rows, tn)) for v in p.numerators]
    if not p.is_full_dim:
        return Polytope(d, nums, den=den)
    c = work[-1][d - 1]
    sign = 1 if c > 0 else -1
    cols = [[sign * x for x in col] for col in zip(*(row[d:] for row in work))]  # of |c| rows^-1
    scale, lift = mden * tden, abs(c) * tden
    facets = {}
    ineqs = p._description[1]
    for (a, rhs), tight in zip(ineqs, _transpose(p._masks, len(ineqs))):
        n = [sum(map(mul, a, col)) for col in cols]
        facets[_row(*_primitive([scale * x for x in n], lift * rhs + mden * _dot(n, tn)))] = tight
    return _full(d, nums, range(len(nums)), facets, den)
