"""Exact rational convex-polytope calculus in homogeneous integer form.

No floating point appears here, so every predicate (membership,
tightness, emptiness) and measure (determinant, volume) is exact.  A
``Polytope`` holds its extreme points, sorted lexicographically, as
integer numerators over their least common denominator, so equal vertex
sets are equal numerator tuples.  A ``HalfSpace`` ``normal . x <= offset``
is its primitive integer row, the pair of coprime ``coeffs`` and ``rhs``,
so two halfspaces are equal exactly when they are one set.
Side tests (``coeffs . num - rhs * den``), clip points, null spaces, hulls,
linear solves and simplex volumes run on plain ints, eliminating through
one fraction-free Gauss-Jordan routine, `_eliminate`, except that a 2x2 or
3x3 determinant is its cofactor expansion.  Hulls, clips and
triangulations are combinatorial, with no rank test.  Every polytope
holds its incidence from construction: its rank, its linear description
and per vertex the bitmask of its tight inequalities.  A point set gets
them from one beneath-beyond insertion hull whose facets carry their
tight points and which solves no null space: its first simplex's facet
normals are the columns of its difference matrix's inverse, and their
sum, from one elimination, and every later facet is a hidden facet turned
about its horizon ridge onto the new point, an integer combination of the
two facet normals that meet there.  A clip finds edges by the double
description method's adjacency test and hands each piece, and each face
it keeps, its facets and masks; translates, negation and dilates carry
them over, and so do Minkowski sums of full-dimensional bodies in d <= 3
and affine images of full-dimensional bodies (`incidence`, re-exported
here).  Faces are vertex bitsets.  A triangulation is the pulling one
from the lowest vertex: every face cones its lowest vertex over the
triangulations of its facets that miss it, read off the incidence (a
polygon's are the two-point sets its parent's inequalities cut from it),
so each simplex lists its vertices in ascending order and simplices
follow facet order.  A volume translates the vertices by the lowest one
once and sums the simplices' determinants.  `fractions.Fraction` remains
only at the boundary: the public ``vertices``, ``normal``, ``offset``,
``bounding_box``, ``value``, ``volume`` and ``determinant`` results, built
on demand, and rational inputs.  Polytopes are closed, possibly empty or
flat (then of volume 0).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul, or_
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInput

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IVec = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# rational vectors and matrices (the public boundary)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def as_mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(as_vec(r) for r in rows)


def zero_vec(d: int) -> Vec:
    return (ZERO,) * d


def _length_error(what: str, v: Sequence, dim: int) -> DegenerateInput:
    """The error for a vector of the wrong length, which `zip` would silently cut short."""
    return DegenerateInput(f"{what} of length {len(v)} in ambient dimension {dim}")


def determinant(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant: each row is cleared to integers, then `_det`
    takes the integer determinant."""
    rows = [_homogenize([as_vec(r)]) for r in m]
    if any(len(v) != len(rows) for (v,), _ in rows):
        raise DegenerateInput("determinant requires a square matrix")
    return Fraction(_det([v for (v,), _ in rows]), math.prod(q for _, q in rows))


# ---------------------------------------------------------------------------
# integer kernel


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _homogenize(vecs: Sequence[Vec]) -> tuple[list[IVec], int]:
    """Rational vectors as integer numerators over their least common
    denominator."""
    den = math.lcm(*(c.denominator for v in vecs for c in v))
    return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vecs], den


def _common_den(points: Sequence[tuple[IVec, int]]) -> tuple[list[IVec], int]:
    """(numerator, denominator) points brought over one common denominator."""
    den = math.lcm(*(q for _, q in points))
    return [v if q == den else tuple(x * (den // q) for x in v) for v, q in points], den


def _primitive(a: Sequence[int], b: int) -> tuple[IVec, int]:
    g = math.gcd(b, *a)
    if g > 1:
        return tuple(x // g for x in a), b // g
    return tuple(a), b


def _eliminate(rows: Sequence[Sequence[int]], ncols: int):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows.

    Returns (work, pivots, sign).  Pivots are searched in the first `ncols`
    columns only, so callers may append right-hand sides.  Row k of `work`
    holds the pivot of column pivots[k]; every pivot entry equals the last
    pivot, each pivot column is zero off its pivot row, and rows past
    len(pivots) are zero in the searched columns.  Every entry stays a minor
    of the input, which makes each division exact; `sign` is the parity of
    the row swaps, so for a nonsingular square matrix sign times the last
    pivot is the determinant.
    """
    work = [list(r) for r in rows]
    n = len(work)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == n:
            break
        piv = next((i for i in range(k, n) if work[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        prow = work[k]
        p = prow[col]
        for i in range(n):
            if i != k:
                row = work[i]
                f = row[col]
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(col)
        prev = p
    return work, pivots, sign


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the cofactor expansion for
    n = 2 and 3, the sizes of polygon and tetrahedron volumes, and sign
    times the last Bareiss pivot otherwise."""
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 0:
        return 1
    work, pivots, sign = _eliminate(rows, n)
    return sign * work[-1][-1] if len(pivots) == n else 0


def _nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[IVec]:
    """Primitive integer basis of {x : r . x = 0 for every row r}: one
    vector per free column, positive there, zero at the other free columns."""
    work, pivots, _ = _eliminate(rows, ncols)
    p = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = p
        for k, pc in enumerate(pivots):
            v[pc] = -work[k][fc]
        if p < 0:
            v = [-x for x in v]
        g = math.gcd(*v)
        out.append(tuple(x // g for x in v))
    return out


def _affine_span(points: Sequence[IVec]) -> tuple[int, list[int]]:
    """(rank r of the affine hull, its r pivot columns): projecting onto the
    pivot columns maps the hull bijectively onto R^r."""
    v0 = points[0]
    rows = [tuple(x - y for x, y in zip(p, v0)) for p in points[1:]]
    pivots = _eliminate(rows, len(v0))[1]
    return len(pivots), pivots


def _project(points: Sequence[IVec], pivots: Sequence[int]) -> list[IVec]:
    return [tuple(p[c] for c in pivots) for p in points]


def _transpose(masks: Sequence[int], n: int) -> list[int]:
    """The n bitmasks whose bit b at position i is bit i of masks[b]."""
    return [sum(1 << b for b, m in enumerate(masks) if m >> i & 1) for i in range(n)]


def _hull(points: Sequence[IVec]) -> tuple[list[int], list[tuple[IVec, int]], list[int]]:
    """conv(points) for distinct integer points affinely spanning R^r,
    r >= 1: (the indices of its extreme points, its facets ``a . x <= b``
    with primitive a, and per facet the bitmask of the extreme points tight
    on it, bit k for the k-th extreme point).

    Beneath-beyond insertion from a first simplex p0, ..., pr, whose r + 1
    facets come from one elimination of ``[D | I]`` with rows
    ``D_i = p_i - p0``: the right block is then ``c * D^-1`` for the last
    pivot c, so ``-sign(c)`` times its column j is the outward normal of
    the facet opposite p_j and ``sign(c)`` times the sum of its columns
    that of the facet opposite p0.  Each facet carries the bitmask of the
    inserted points tight on it.  A point p drops the facets it sees and
    spans each horizon ridge: two facets meet in a ridge iff they share at
    least r - 1 points and no third facet holds them all (`_crossings`'
    edge test in dual form).  The new facet through the ridge of a visible
    facet f and a hidden one g, at sides ``sf > 0 >= sg`` of p, is g turned
    about the ridge until it meets p (gift wrapping, Chand & Kapur 1970):
    ``sf * a_g - sg * a_f``, made primitive, a nonnegative combination of
    the two outward normals and so outward itself.  Facets on one plane
    merge by their (a, b) key, so ``sg == 0`` leaves g as it was.  A point
    is extreme iff no other point is tight on all of its facets.

    Facets are sorted by their ascending lists of extreme points.  Two
    such lists first differ at a point independent of the points before it
    (a point of one facet in the affine hull of points shared with another
    lies on both), so this is the order of each facet's lexicographically
    first affinely independent r-subset, where an exhaustive search over
    r-subsets first meets it.
    """
    r, n = len(points[0]), len(points)
    # the first independent points: pivot columns of the transposed differences
    p0 = points[0]
    rows = [[p[c] - p0[c] for p in points[1:]] for c in range(r)]
    simplex = [0] + [1 + k for k in _eliminate(rows, n - 1)[1]]
    work = _eliminate([[x - y for x, y in zip(points[i], p0)] + [int(k == j) for k in range(r)]
                       for j, i in enumerate(simplex[1:])], r)[0]
    sign = 1 if work[-1][r - 1] > 0 else -1
    inverse = [row[r:] for row in work]  # c * D^-1, column j for simplex[j + 1]
    corners = sum(1 << i for i in simplex)
    hull: dict[tuple[IVec, int], int] = {}
    for j, i in enumerate(simplex[1:]):
        a = [-sign * row[j] for row in inverse]
        hull[_primitive(a, _dot(a, p0))] = corners & ~(1 << i)
    a = [sign * sum(row) for row in inverse]
    hull[_primitive(a, _dot(a, points[simplex[1]]))] = corners & ~1
    for i, p in enumerate(points):  # the simplex's own points change nothing
        bit = 1 << i
        side = {key: _dot(key[0], p) - key[1] for key in hull}
        masks = list(hull.values())
        new = []
        for f, sf in side.items():
            if sf <= 0:
                continue
            for g, sg in side.items():
                common = hull[f] & hull[g]
                if sg > 0 or common.bit_count() < r - 1:
                    continue
                if sum(common & m == common for m in masks) > 2:
                    continue
                a = [sf * x - sg * y for x, y in zip(g[0], f[0])]
                new.append((_primitive(a, sf * g[1] - sg * f[1]), common))
        for key, s in side.items():
            if s > 0:
                del hull[key]
            elif s == 0:
                hull[key] |= bit
        for key, m in new:
            hull[key] = hull.get(key, 0) | m | bit
    tight = _transpose(list(hull.values()), n)
    extreme = [i for i, t in enumerate(tight) if sum(u & t == t for u in tight) == 1]
    return _ordered(points, extreme, hull)


def _ordered(points, extreme: Iterable[int], facets: dict) -> tuple[list[int], list, list[int]]:
    """A full-dimensional body's incidence in the point constructor's order:
    (the bits `extreme` of its vertices sorted by their points
    ``points[bit]``, the keys of `facets` sorted by their ascending lists of
    those vertices, and per key the bitmask of its vertices, bit k for the
    k-th), given per facet key the bitmask of the candidate bits tight on it."""
    extreme = sorted(extreme, key=points.__getitem__)
    on = {key: [k for k, i in enumerate(extreme) if m >> i & 1] for key, m in facets.items()}
    order = sorted(on, key=on.__getitem__)
    return extreme, order, [sum(1 << k for k in on[key]) for key in order]


def _halfspaces(found: Sequence[tuple[IVec, int]], den: int, pivots: Sequence[int],
                dim: int) -> tuple["HalfSpace", ...]:
    """Facets ``a . y <= b`` of numerators over `den` in their pivot
    coordinates y, as halfspaces in x in R^dim."""
    out = []
    for a, b in found:
        lifted = [0] * dim
        for j, c in enumerate(pivots):
            lifted[c] = den * a[j]
        out.append(_row(*_primitive(lifted, b)))
    return tuple(out)


def _equalities(nums: Sequence[IVec], den: int, dim: int) -> tuple["HalfSpace", ...]:
    """The affine hull of the points `nums` over `den` as halfspaces read as
    ``a . x == b``, one per vector of `_nullspace`'s basis."""
    v0 = nums[0]
    diffs = [tuple(x - y for x, y in zip(v, v0)) for v in nums[1:]]
    return tuple(_row(*_primitive(tuple(den * x for x in n), _dot(n, v0)))
                 for n in _nullspace(diffs, dim))


# ---------------------------------------------------------------------------
# halfspaces


class HalfSpace(tuple):
    """Closed halfspace ``normal . x <= offset``, held as its primitive
    integer row: the pair ``(coeffs, rhs)`` of coprime integers, the one
    positive rescaling of (normal, offset) to them.

    A halfspace is that pair: it unpacks as ``a, b = h`` and compares and
    hashes as it, so two halfspaces are equal exactly when they are the
    same set.  The rational ``normal`` and ``offset`` read the row back.
    """

    __slots__ = ()

    def __new__(cls, normal: Iterable, offset) -> "HalfSpace":
        (ints,), _ = _homogenize([as_vec(normal) + (frac(offset),)])
        if not any(ints[:-1]):
            raise DegenerateInput("halfspace normal must be nonzero")
        return _row(*_primitive(ints[:-1], ints[-1]))

    def __getnewargs__(self) -> tuple[IVec, int]:
        return tuple(self)

    coeffs = property(itemgetter(0))
    rhs = property(itemgetter(1))

    @property
    def normal(self) -> Vec:
        return tuple(map(Fraction, self[0]))

    @property
    def offset(self) -> Fraction:
        return Fraction(self[1])

    def __repr__(self) -> str:
        return f"HalfSpace({self[0]!r}, {self[1]!r})"

    def value(self, x: Iterable) -> Fraction:
        """``coeffs . x - rhs``: <= 0 inside, 0 on the boundary hyperplane."""
        a, b = self
        p = as_vec(x)
        if len(p) != len(a):
            raise _length_error("point", p, len(a))
        return sum(map(mul, a, p), ZERO) - b

    def flipped(self) -> "HalfSpace":
        a, b = self
        return _row(tuple(-x for x in a), -b)

    def translated(self, t: Iterable) -> "HalfSpace":
        (tn,), tden = _homogenize([as_vec(t)])
        if len(tn) != len(self[0]):
            raise _length_error("translation", tn, len(self[0]))
        return self._shifted(tn, tden)

    def _shifted(self, tn: IVec, tden: int) -> "HalfSpace":
        """Translate by tn / tden: ``tden a . x <= tden b + a . tn``, made primitive."""
        a, b = self
        return _row(*_primitive([x * tden for x in a], b * tden + _dot(a, tn)))


def _row(coeffs: IVec, rhs: int) -> HalfSpace:
    """The halfspace ``coeffs . x <= rhs`` of a row the caller knows is
    primitive, with a nonzero normal."""
    return tuple.__new__(HalfSpace, (coeffs, rhs))


# ---------------------------------------------------------------------------
# the polytope type


class Polytope:
    """Convex polytope given by its extreme points, with its incidence.

    Every instance holds from construction its rank, its linear description
    (equalities of its affine hull, then inequalities that are its facets
    relative to that hull) and per vertex the bitmask of the inequalities
    tight there.  A body built from points gets all three from one `_hull`
    run in the pivot coordinates of its affine hull, which also drops the
    points that are not extreme.  An operation that knows its result's
    incidence (a clip piece or face, a translate, the negation, a dilate,
    the unit cube, the sum of two full-dimensional bodies in d <= 3, the
    affine image of a full-dimensional body) builds the result through
    `_made`, with no hull; the last two order it as the hull would.
    Instances are immutable after construction; the lazy caches are
    idempotent, so concurrent readers are safe.
    """

    __slots__ = ("dim", "numerators", "denominator", "_vertices", "_rank", "_description",
                 "_masks", "_volume", "_box", "_count_plan")

    def __init__(self, dim: int, points: Iterable[Iterable], *, den: Optional[int] = None):
        """With `den`, `points` are integer numerator vectors over that
        positive common denominator; otherwise they are rationals."""
        if den is None:
            verts = sorted({as_vec(p) for p in points})
            nums, den = _homogenize(verts)
        else:
            nums = sorted(set(map(tuple, points)))
            verts = None
        for p in nums:
            if len(p) != dim:
                raise _length_error("point", p, dim)
        # no point or one: rank -1 or 0, and no inequality
        rank, ineqs, masks = len(nums) - 1, (), [0] * len(nums)
        if len(nums) > 1:
            # distinct points, so of affine rank >= 1; the extreme ones span
            # the same affine hull, hence the same pivot columns
            rank, pivots = _affine_span(nums)
            keep, found, on = _hull(_project(nums, pivots))
            if len(keep) < len(nums):
                nums = [nums[i] for i in keep]
                verts = [verts[i] for i in keep] if verts is not None else None
            ineqs, masks = _halfspaces(found, den, pivots, dim), _transpose(on, len(nums))
        description = None
        if nums:
            description = (_equalities(nums, den, dim) if rank < dim else (), ineqs)
        self._set(dim, nums, den, rank, description, masks)
        if verts is not None:
            self._vertices = tuple(verts)

    @classmethod
    def _made(cls, dim: int, nums: Sequence[IVec], den: int, rank: int, description,
              masks: list[int]) -> "Polytope":
        """The polytope whose caller knows its incidence: distinct extreme
        points `nums` over `den`, sorted lexicographically, its `rank`, its
        (equalities, inequalities) `description` and, per point, the bitmask
        of the inequalities tight there."""
        out = cls.__new__(cls)
        out._set(dim, nums, den, rank, description, masks)
        return out

    def _set(self, dim, nums, den, rank, description, masks):
        """Store the fields, the numerators brought to lowest terms."""
        g = math.gcd(den, *itertools.chain.from_iterable(nums))
        if g > 1:
            den //= g
            nums = [tuple(x // g for x in v) for v in nums]
        self.dim = dim
        self.numerators: tuple[IVec, ...] = tuple(nums)
        self.denominator: int = den
        self._rank, self._description, self._masks = rank, description, masks
        self._vertices = self._volume = self._box = self._count_plan = None

    def _image(self, nums: list[IVec], den: int, move, reverse: bool = False) -> "Polytope":
        """This body under a translation or positive dilation, or under
        x -> -x with `reverse` (which reverses the lexicographic vertex
        order): vertex k goes to nums[k] over `den` and each inequality h
        to the primitive row ``move(h)``; equalities are read off the
        new points."""
        if self.is_empty:
            return self
        eqs, ineqs = self._description
        masks = self._masks
        if reverse:
            nums, masks = nums[::-1], masks[::-1]
        eqs = _equalities(nums, den, self.dim) if eqs else ()
        return Polytope._made(self.dim, nums, den, self._rank, (eqs, tuple(map(move, ineqs))),
                              masks)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, dim: int) -> "Polytope":
        return cls._made(dim, (), 1, -1, None, [])

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """Extreme points as Fraction vectors, lexicographically sorted."""
        if self._vertices is None:
            den = self.denominator
            self._vertices = tuple(tuple(Fraction(x, den) for x in v) for v in self.numerators)
        return self._vertices

    @property
    def is_empty(self) -> bool:
        return not self.numerators

    @property
    def is_lattice(self) -> bool:
        return self.denominator == 1

    @property
    def rank(self) -> int:
        """Dimension of the affine hull (-1 for the empty polytope)."""
        return self._rank

    @property
    def is_full_dim(self) -> bool:
        return self._rank == self.dim

    def __eq__(self, other) -> bool:
        return isinstance(other, Polytope) and (self.dim, self.denominator, self.numerators) == (
            other.dim, other.denominator, other.numerators)

    def __hash__(self) -> int:
        return hash((self.dim, self.denominator, self.numerators))

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={len(self.numerators)})"

    # -- facets and descriptions ---------------------------------------------

    def facets(self) -> tuple[HalfSpace, ...]:
        """Irredundant facet halfspaces; full-dimensional polytopes only."""
        if not self.is_full_dim:
            raise DegenerateInput("facets() requires a full-dimensional polytope")
        return self._description[1]

    def linear_description(self) -> tuple[tuple[HalfSpace, ...], tuple[HalfSpace, ...]]:
        """(equalities, inequalities) cutting out this polytope exactly.

        Equalities are halfspaces read as ``a . x == b`` (the affine hull);
        for full-dimensional polytopes there are none and the inequalities
        are the facets.  The inequalities of a flat body are its facets
        relative to its affine hull: lifted from the pivot coordinates of
        that hull when it was built from points, the ambient inequalities it
        was cut with when it is a clip piece or face.
        """
        if self.is_empty:
            raise DegenerateInput("empty polytope has no linear description")
        return self._description

    # -- membership ---------------------------------------------------------

    def contains(self, x: Iterable) -> bool:
        p = as_vec(x)
        if len(p) != self.dim:
            raise _length_error("point", p, self.dim)
        if self.is_empty:
            return False
        eqs, ineqs = self.linear_description()
        return all(h.value(p) == 0 for h in eqs) and all(h.value(p) <= 0 for h in ineqs)

    # -- geometry -----------------------------------------------------------

    def integer_box(self) -> tuple[IVec, IVec]:
        """Bounding box corners as numerator vectors over `denominator`."""
        if self.is_empty:
            raise DegenerateInput("empty polytope has no bounding box")
        if self._box is None:
            cols = list(zip(*self.numerators))
            self._box = (tuple(map(min, cols)), tuple(map(max, cols)))
        return self._box

    def bounding_box(self) -> tuple[Vec, Vec]:
        lo, hi = self.integer_box()
        den = self.denominator
        return tuple(Fraction(x, den) for x in lo), tuple(Fraction(x, den) for x in hi)

    def translated(self, t: Iterable) -> "Polytope":
        (tn,), tden = _homogenize([as_vec(t)])
        if len(tn) != self.dim:
            raise _length_error("translation", tn, self.dim)
        den = math.lcm(self.denominator, tden)
        f, shift = den // self.denominator, tuple(den // tden * x for x in tn)
        return self._image([tuple(f * x + y for x, y in zip(v, shift)) for v in self.numerators],
                           den, lambda h: h._shifted(tn, tden))

    def negated(self) -> "Polytope":
        return self._image([tuple(-x for x in v) for v in self.numerators], self.denominator,
                           lambda h: _row(tuple(-x for x in h[0]), h[1]),
                           reverse=True)

    def volume(self) -> Fraction:
        """Exact d-volume; 0 for lower-dimensional or empty polytopes."""
        if self._volume is None:
            self._volume = _volume_of(self)
        return self._volume


# ---------------------------------------------------------------------------
# triangulation and volume


def _facet_sets(on: Sequence[int], s: int) -> dict[int, int]:
    """The facets of the face with vertex bitset `s`, as {vertex bitset:
    first b}, given the vertex bitsets `on[b]` of valid inequalities that
    include every facet.  Every face is cut out by the facets containing
    it, so the facets of s are the maximal proper nonempty sets s & on[b].
    Taken largest first, a set is maximal exactly when no maximal set kept
    so far contains it; the result keeps the order of first inequalities.
    """
    faces: dict[int, int] = {}
    for b, v in enumerate(on):
        t = s & v
        if t and t != s:
            faces.setdefault(t, b)
    kept: list[int] = []
    for t in sorted(faces, key=int.bit_count, reverse=True):
        for u in kept:
            if t & u == t:
                break
        else:
            kept.append(t)
    return faces if len(kept) == len(faces) else {t: b for t, b in faces.items() if t in kept}


def _fan(on: Sequence[int], s: int, r: int) -> list[tuple[int, ...]]:
    """Simplices (as ascending vertex index tuples) triangulating the rank-r
    face with vertex bitset `s`, given the vertex bitsets `on[b]` of
    inequalities that include every facet: the pulling triangulation from
    the face's lowest vertex i0, which is its lexicographically smallest
    since numerators are sorted.  An edge is its two ends; a higher face
    cones i0 over the fans of its facets that miss i0, in the order of
    their first inequality.  A polygon's facets are its edges, and every
    two-point face of a polygon is an edge, so a polygon takes the
    two-point sets s & on[b] as they come; a higher face takes its facets
    from `_facet_sets`."""
    i0 = (s & -s).bit_length() - 1
    if r == 0:
        return [(i0,)]
    if r == 1:
        return [(i0, s.bit_length() - 1)]
    if r == 2:
        return [(i0, (t & -t).bit_length() - 1, t.bit_length() - 1)
                for t in dict.fromkeys(s & v for v in on)
                if t.bit_count() == 2 and not t >> i0 & 1]
    out: list[tuple[int, ...]] = []
    for t in _facet_sets(on, s):
        if not t >> i0 & 1:
            out += [(i0,) + f for f in _fan(on, t, r - 1)]
    return out


def _simplices(p: Polytope) -> list[tuple[int, ...]]:
    masks = p._masks
    return _fan(_transpose(masks, len(p.facets())), (1 << len(masks)) - 1, p.dim)


def triangulate(p: Polytope) -> list[tuple[Vec, ...]]:
    """Full-dimensional triangulation into simplices on the polytope's own
    vertices: `_fan`'s pulling triangulation from the lexicographically
    smallest vertex.  Each simplex lists its vertices in ascending
    lexicographic order; simplices follow the facet order of each face."""
    if not p.is_full_dim:
        raise DegenerateInput("triangulate requires a full-dimensional polytope")
    verts = p.vertices
    return [tuple(verts[i] for i in s) for s in _simplices(p)]


def _volume_of(p: Polytope) -> Fraction:
    if p.is_empty or not p.is_full_dim:
        return ZERO
    nums, d = p.numerators, p.dim
    v0 = nums[0]  # every simplex of the pulling triangulation has vertex 0
    diffs = [tuple(x - y for x, y in zip(v, v0)) for v in nums]
    total = sum(abs(_det([diffs[i] for i in s[1:]])) for s in _simplices(p))
    return Fraction(total, math.factorial(d) * p.denominator**d)


# ---------------------------------------------------------------------------
# clipping, intersection, dilates


def _sides(p: Polytope, h: HalfSpace) -> list[int]:
    """h at each vertex of p in integers, ``coeffs . num - rhs * denominator``:
    h.value(v) times the positive factor denominator."""
    a, b = h
    bd = b * p.denominator
    return [sum(map(mul, a, v)) - bd for v in p.numerators]


def _crossings(p: Polytope, vals: list[int]) -> list[tuple[IVec, int, int]]:
    """Vertices of p's clip on a hyperplane with side values `vals` at p's
    vertices: (numerator vector, positive denominator, in lowest terms, and
    the mask of p's inequalities tight there).  Each crosses an edge of p
    whose ends sit strictly on opposite sides.  Two vertices span an edge
    exactly when no third vertex is tight on every inequality tight at both
    (the adjacency test of the double description method); an edge of a
    rank-r polytope lies on at least r - 1 of them.  With side values
    s_i < 0 < s_j the crossing point of u_i, u_j is
    (s_j u_i - s_i u_j) / (s_j - s_i).
    """
    nums, den, masks = p.numerators, p.denominator, p._masks
    need = p._rank - 1
    outside = [j for j, s in enumerate(vals) if s > 0]
    out = []
    for i, si in enumerate(vals):
        if si >= 0:
            continue
        ui, mi = nums[i], masks[i]
        for j in outside:
            common = mi & masks[j]
            if common.bit_count() < need or sum(m & common == common for m in masks) > 2:
                continue
            sj = vals[j]
            num = [sj * x - si * y for x, y in zip(ui, nums[j])]
            q = (sj - si) * den
            g = math.gcd(q, *num)
            out.append((tuple(x // g for x in num), q // g, common))
    return out


def _piece(p: Polytope, h: HalfSpace, vals: list[int], new) -> Polytope:
    """p cut to h, which has p's vertices strictly on both sides (side
    values `vals`), given the crossing points `new`, with p's incidence.

    An inequality of p stays a facet (relative to the hull) exactly when
    some vertex strictly inside h has its bit, and h is the last facet.
    Kept vertices keep their masks re-indexed, crossing points get their
    edge's, and both get h's bit on h's hyperplane.
    """
    eqs, ineqs = p._description
    masks = p._masks
    alive = functools.reduce(or_, (m for s, m in zip(vals, masks) if s < 0))
    dead = [b for b in reversed(range(len(ineqs))) if not alive >> b & 1]
    hbit = 1 << (len(ineqs) - len(dead))

    def moved(m: int) -> int:  # m with the dead bits cut out
        for b in dead:
            m = m & ((1 << b) - 1) | m >> (b + 1) << b
        return m

    pts = [(v, p.denominator, moved(m) | (hbit if s == 0 else 0))
           for v, s, m in zip(p.numerators, vals, masks) if s <= 0]
    pts += [(v, q, moved(m) | hbit) for v, q, m in new]
    nums, den = _common_den([(v, q) for v, q, _ in pts])
    order = sorted(range(len(nums)), key=nums.__getitem__)
    cut = tuple(q for b, q in enumerate(ineqs) if alive >> b & 1) + (h,)
    return Polytope._made(p.dim, [nums[k] for k in order], den, p._rank, (eqs, cut),
                          [pts[k][2] for k in order])


def _face(p: Polytope, keep: list[int]) -> Polytope:
    """The face of p on its vertices `keep` (possibly none).  Its facets are
    the maximal proper sets S & on[b] of p's incidence (`_facet_sets`), each
    cut out by its first inequality b of p; its equalities are read off its
    own points."""
    if not keep:
        return Polytope.empty(p.dim)
    nums, den = [p.numerators[i] for i in keep], p.denominator
    ineqs = p._description[1]
    sets = _facet_sets(_transpose(p._masks, len(ineqs)), sum(1 << i for i in keep))
    eqs = _equalities(nums, den, p.dim)
    masks = [sum(1 << k for k, t in enumerate(sets) if t >> i & 1) for i in keep]
    return Polytope._made(p.dim, nums, den, p.dim - len(eqs),
                          (eqs, tuple(ineqs[b] for b in sets.values())), masks)


def clip(p: Polytope, h: HalfSpace) -> Polytope:
    """p intersected with the closed halfspace h; may be empty or flat."""
    if len(h[0]) != p.dim:
        raise _length_error("halfspace", h[0], p.dim)
    vals = _sides(p, h)
    if max(vals, default=0) <= 0:
        return p
    if min(vals) >= 0:
        # only the face on the hyperplane survives, if any; its points are
        # vertices of p, hence already extreme
        return _face(p, [i for i, val in enumerate(vals) if val == 0])
    return _piece(p, h, vals, _crossings(p, vals))


def clip_both(p: Polytope, h: HalfSpace) -> tuple[Polytope, Polytope]:
    """(p cut to h's <= side, p cut to the >= side), sharing the boundary
    vertex computation; intended for cell splitting."""
    if len(h[0]) != p.dim:
        raise _length_error("halfspace", h[0], p.dim)
    vals = _sides(p, h)
    if max(vals, default=0) <= 0:
        return p, _face(p, [i for i, val in enumerate(vals) if val == 0])
    if min(vals) >= 0:
        return _face(p, [i for i, val in enumerate(vals) if val == 0]), p
    new = _crossings(p, vals)
    return _piece(p, h, vals, new), _piece(p, h.flipped(), [-val for val in vals], new)


def intersect(p: Polytope, q: Polytope) -> Polytope:
    """Exact intersection via successive clipping; empty is a value."""
    if p.dim != q.dim:
        raise DegenerateInput("intersection requires equal ambient dimensions")
    if p.is_empty or q.is_empty:
        return Polytope.empty(p.dim)
    (plo, phi), (qlo, qhi) = p.integer_box(), q.integer_box()
    pd, qd = p.denominator, q.denominator
    if any(plo[i] * qd > qhi[i] * pd or qlo[i] * pd > phi[i] * qd for i in range(p.dim)):
        return Polytope.empty(p.dim)
    out = p
    eqs, ineqs = q.linear_description()
    for e in eqs:
        out = clip(out, e)
        if out.is_empty:
            return out
        out = clip(out, e.flipped())
        if out.is_empty:
            return out
    for h in ineqs:
        out = clip(out, h)
        if out.is_empty:
            return out
    return out


def dilate(p: Polytope, n: int) -> Polytope:
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise DegenerateInput(f"dilation factor must be a positive integer, got {n!r}")
    return p._image([tuple(n * x for x in v) for v in p.numerators], p.denominator,
                    lambda h: _row(*_primitive(h[0], n * h[1])))


def unit_cube(d: int) -> Polytope:
    nums = list(itertools.product((0, 1), repeat=d))
    # -x_i <= 0 and x_i <= 1 in turn for each i, so bit 2i + x_i is tight at x
    facets = tuple(_row(tuple(s if j == i else 0 for j in range(d)), max(s, 0))
                   for i in range(d) for s in (-1, 1))
    masks = [sum(1 << (2 * i + x) for i, x in enumerate(v)) for v in nums]
    return Polytope._made(d, nums, 1, d, ((), facets), masks)


def segment(a: Iterable, b: Iterable) -> Polytope:
    av, bv = as_vec(a), as_vec(b)
    return Polytope(len(av), [av, bv])


# ---------------------------------------------------------------------------
# JSON form: {"dim": d, "vertices": [["p/q" | "k", ...], ...]}


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise DegenerateInput(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DegenerateInput(f"bad rational {x!r}: {exc}") from exc
    raise DegenerateInput(f"not a rational: {x!r}")


def parse_json_rows(data: dict, rows_key: str, what: str) -> tuple[int, list]:
    """The positive integer ``dim`` and the row list `rows_key` of a JSON
    body description, validated strictly (a boolean is not a dimension)."""
    try:
        dim = data["dim"]
        raw = data[rows_key]
    except (KeyError, TypeError) as exc:
        raise DegenerateInput(f"{what} JSON needs dim and {rows_key}: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DegenerateInput(f"{what} dim must be a positive integer")
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise DegenerateInput(f"{what} {rows_key} must be a list of lists")
    if not raw:
        raise DegenerateInput(f"{what} JSON has no {rows_key}")
    if any(len(row) != dim for row in raw):
        raise DegenerateInput(f"{what} row length does not match dim")
    return dim, raw


def polytope_from_json(data: dict) -> Polytope:
    dim, raw = parse_json_rows(data, "vertices", "polytope")
    return Polytope(dim, [tuple(parse_rational(x) for x in row) for row in raw])


def polytope_to_json(p: Polytope) -> dict:
    return {"dim": p.dim, "vertices": [[str(c) for c in v] for v in p.vertices]}


# Minkowski sums and affine images build on the type above in a module of
# their own: compiled as part of this one, they raised the peak memory of
# an import that keeps no bytecode cache by about 0.5 MB.  Every caller
# imports them from here.
from .incidence import affine_image, minkowski_sum  # noqa: E402
