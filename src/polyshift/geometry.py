"""Exact rational convex-polytope calculus in homogeneous integer form.

No floating point appears here, so every predicate (membership,
tightness, emptiness) and measure (determinant, volume) is exact.  A
``Polytope`` holds its extreme points, sorted lexicographically, as
integer numerators over their least common denominator, which makes
vertex-set equality canonical.  A ``HalfSpace`` ``normal . x <= offset``
holds coprime integers ``coeffs``, ``rhs`` and a positive rational scale.
Side tests (``coeffs . num - rhs * den``), clip points, null spaces, hulls,
linear solves and simplex volumes run on plain ints, eliminating through
one fraction-free Gauss-Jordan routine, `_eliminate`.  Hulls, clips and
triangulations are combinatorial, with no rank test.  Every polytope
holds its incidence from construction: its rank, its linear description
and per vertex the bitmask of its tight inequalities.  A point set gets
them from one beneath-beyond insertion hull whose facets carry their
tight points; a clip finds edges by the double description method's
adjacency test and hands each piece, and each face it keeps, its facets
and masks; translates, negation and dilates carry them over; and
`vertices_from_facets` is a box clipped by each halfspace in turn.  Faces
are vertex bitsets.  A triangulation is the pulling one from the lowest
vertex: every face, a polygon too, cones its lowest vertex over the
triangulations of its facets that miss it, read off the incidence, so each
simplex lists its vertices in ascending order and simplices follow facet
order.  `fractions.Fraction` remains only at the boundary: the
public ``vertices``, ``normal``, ``offset``, ``bounding_box``, ``value``,
``volume`` and ``determinant`` results, built on demand, and rational
inputs.  Polytopes are closed, possibly empty or flat (then of volume 0).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, or_
from typing import Iterable, Optional, Sequence, Union

from .errors import DegenerateInput, Infeasible, SingularMatrix, Unbounded

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


def determinant(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant: each row is cleared to integers, then eliminated."""
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
    n = len(rows)
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

    Beneath-beyond insertion from a first simplex, whose centroid stays
    interior and orients every facet; each facet carries the bitmask of
    the inserted points tight on it.  A point drops the facets it sees and
    spans each horizon ridge: two facets meet in a ridge iff they share at
    least r - 1 points and no third facet holds them all (`_crossings`'
    edge test in dual form).  Facets on one plane merge by their (a, b)
    key.  A point is extreme iff no other point is tight on all of its
    facets.

    Facets are sorted by their ascending lists of extreme points.  Two
    such lists first differ at a point independent of the points before it
    (a point of one facet in the affine hull of points shared with another
    lies on both), so this is the order of each facet's lexicographically
    first affinely independent r-subset, where an exhaustive search over
    r-subsets first meets it.
    """
    r, n = len(points[0]), len(points)
    # the first independent points: pivot columns of the transposed differences
    rows = [[p[c] - points[0][c] for p in points[1:]] for c in range(r)]
    simplex = [0] + [1 + k for k in _eliminate(rows, n - 1)[1]]
    centre = [sum(col) for col in zip(*(points[i] for i in simplex))]  # (r + 1) * centroid

    def plane(ridge: Sequence[int], p: IVec) -> tuple[IVec, int]:
        a = _nullspace([tuple(x - y for x, y in zip(points[i], p)) for i in ridge], r)[0]
        b = _dot(a, p)
        return (a, b) if _dot(a, centre) < (r + 1) * b else (tuple(-x for x in a), -b)

    hull: dict[tuple[IVec, int], int] = {}
    for j in simplex:
        rest = [i for i in simplex if i != j]
        hull[plane(rest[1:], points[rest[0]])] = sum(1 << i for i in rest)
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
                new.append((plane([k for k in range(common.bit_length()) if common >> k & 1], p),
                            common))
        for key, s in side.items():
            if s > 0:
                del hull[key]
            elif s == 0:
                hull[key] |= bit
        for key, m in new:
            hull[key] = hull.get(key, 0) | m | bit
    tight = _transpose(list(hull.values()), n)
    extreme = [i for i, t in enumerate(tight) if sum(u & t == t for u in tight) == 1]
    on = {key: [k for k, i in enumerate(extreme) if m >> i & 1] for key, m in hull.items()}
    facets = sorted(on, key=on.__getitem__)
    return extreme, facets, [sum(1 << k for k in on[key]) for key in facets]


def _halfspaces(found: Sequence[tuple[IVec, int]], den: int, pivots: Sequence[int],
                dim: int) -> tuple["HalfSpace", ...]:
    """Facets ``a . y <= b`` of numerators over `den` in their pivot
    coordinates y, as halfspaces in x in R^dim."""
    out = []
    for a, b in found:
        lifted = [0] * dim
        for j, c in enumerate(pivots):
            lifted[c] = den * a[j]
        out.append(HalfSpace._from_ints(*_primitive(lifted, b)))
    return tuple(out)


def _equalities(nums: Sequence[IVec], den: int, dim: int) -> tuple["HalfSpace", ...]:
    """The affine hull of the points `nums` over `den` as halfspaces read as
    ``a . x == b``, one per vector of `_nullspace`'s basis."""
    v0 = nums[0]
    diffs = [tuple(x - y for x, y in zip(v, v0)) for v in nums[1:]]
    return tuple(HalfSpace._from_ints(*_primitive(tuple(den * x for x in n), _dot(n, v0)))
                 for n in _nullspace(diffs, dim))


# ---------------------------------------------------------------------------
# halfspaces


class HalfSpace:
    """Closed halfspace ``normal . x <= offset``.

    Held as coprime integers ``coeffs``, ``rhs`` and a positive rational
    scale with ``normal = scale * coeffs``, ``offset = scale * rhs``; the
    rational `normal` and `offset` are built on first use.  Equality and
    hashing are those of the pair (normal, offset).
    """

    __slots__ = ("coeffs", "rhs", "_scale", "_normal", "_offset")

    def __init__(self, normal: Iterable, offset):
        nums = as_vec(normal) + (frac(offset),)
        (ints,), den = _homogenize([nums])
        g = math.gcd(*ints) or 1
        self.coeffs = tuple(x // g for x in ints[:-1])
        self.rhs = ints[-1] // g
        self._scale = Fraction(g, den)
        self._normal = nums[:-1]
        self._offset = nums[-1]

    @classmethod
    def _from_ints(cls, coeffs: IVec, rhs: int, scale: Fraction = ONE) -> "HalfSpace":
        h = cls.__new__(cls)
        h.coeffs, h.rhs, h._scale = coeffs, rhs, scale
        h._normal = h._offset = None
        return h

    @property
    def normal(self) -> Vec:
        if self._normal is None:
            s = self._scale
            self._normal = tuple(s * x for x in self.coeffs)
        return self._normal

    @property
    def offset(self) -> Fraction:
        if self._offset is None:
            self._offset = self._scale * self.rhs
        return self._offset

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # (coeffs, rhs) primitive and scale > 0 make the triple unique
        return (self.coeffs, self.rhs, self._scale) == (other.coeffs, other.rhs, other._scale)

    def __hash__(self) -> int:
        return hash((self.normal, self.offset))

    def __repr__(self) -> str:
        return f"HalfSpace(normal={self.normal!r}, offset={self.offset!r})"

    def value(self, x: Iterable) -> Fraction:
        """<= 0 inside, 0 on the boundary hyperplane."""
        return self._scale * (sum((a * c for a, c in zip(self.coeffs, x)), ZERO) - self.rhs)

    def flipped(self) -> "HalfSpace":
        return HalfSpace._from_ints(tuple(-x for x in self.coeffs), -self.rhs, self._scale)

    def translated(self, t: Iterable) -> "HalfSpace":
        (tn,), tden = _homogenize([as_vec(t)])
        return self._shifted(tn, tden)

    def _shifted(self, tn: IVec, tden: int) -> "HalfSpace":
        """Translate by tn / tden: scale * (coeffs . x) <= scale * (rhs + coeffs . t)."""
        a = tuple(x * tden for x in self.coeffs)
        b = self.rhs * tden + _dot(self.coeffs, tn)
        g = math.gcd(b, *a)
        scale = self._scale if g == tden else self._scale * g / tden
        return HalfSpace._from_ints(tuple(x // g for x in a), b // g, scale)

    def canonical(self) -> "HalfSpace":
        """Positive rescaling to coprime integer coefficients.

        Only positive scalings preserve the inequality, so the sign is kept.
        """
        return self if self._scale == 1 else HalfSpace._from_ints(self.coeffs, self.rhs)

    def key(self) -> tuple:
        return (self.coeffs, self.rhs)


def halfspace(normal: Iterable, offset) -> HalfSpace:
    n = as_vec(normal)
    if all(x == 0 for x in n):
        raise DegenerateInput("halfspace normal must be nonzero")
    return HalfSpace(n, offset)


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
    the unit cube) builds the result through `_made`, with no hull.
    Instances are immutable after construction; the lazy caches are
    idempotent, so concurrent readers are safe.
    """

    __slots__ = ("dim", "numerators", "denominator", "_vertices", "_rank", "_description",
                 "_masks", "_int_ineqs", "_volume", "_box", "_count_plan")

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
                raise DegenerateInput(f"point of length {len(p)} in ambient dimension {dim}")
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
        self._vertices = self._int_ineqs = None
        self._volume = self._box = self._count_plan = None

    def _image(self, nums: list[IVec], den: int, move, reverse: bool = False) -> "Polytope":
        """This body under a translation or positive dilation, or under
        x -> -x with `reverse` (which reverses the lexicographic vertex
        order): vertex k goes to nums[k] over `den` and each inequality h
        to the canonical halfspace ``move(h)``; equalities are read off the
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
        return hash((self.dim, self.vertices))

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

    def integer_description(self):
        """linear_description with coprime integer coefficients, as plain ints.

        Returns (equalities, inequalities), each a list of (coeffs, rhs).
        """
        if self._int_ineqs is None:
            eqs, ineqs = self.linear_description()
            self._int_ineqs = ([(h.coeffs, h.rhs) for h in eqs], [(h.coeffs, h.rhs) for h in ineqs])
        return self._int_ineqs

    # -- membership ---------------------------------------------------------

    def contains(self, x: Iterable) -> bool:
        p = as_vec(x)
        if len(p) != self.dim:
            raise DegenerateInput(f"point of length {len(p)} in ambient dimension {self.dim}")
        if self.is_empty:
            return False
        eqs, ineqs = self.linear_description()
        return all(h.value(p) == 0 for h in eqs) and all(h.value(p) <= 0 for h in ineqs)

    def on_boundary(self, x: Iterable) -> bool:
        """True when x lies on the topological boundary of the polytope.

        Every point of a lower-dimensional polytope is boundary.
        """
        p = as_vec(x)
        if not self.contains(p):
            return False
        if not self.is_full_dim:
            return True
        return any(h.value(p) == 0 for h in self.facets())

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
        den = math.lcm(self.denominator, tden)
        f, shift = den // self.denominator, tuple(den // tden * x for x in tn)
        return self._image([tuple(f * x + y for x, y in zip(v, shift)) for v in self.numerators],
                           den, lambda h: h._shifted(tn, tden).canonical())

    def negated(self) -> "Polytope":
        return self._image([tuple(-x for x in v) for v in self.numerators], self.denominator,
                           lambda h: HalfSpace._from_ints(tuple(-x for x in h.coeffs), h.rhs),
                           reverse=True)

    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = _volume_of(self)
        return self._volume


@dataclass(frozen=True)
class PolytopeUnion:
    """Finite family of polytopes treated additively.

    Counts and volumes add over the parts; the families produced by the
    scaling decomposition have pairwise interior-disjoint parts, which is
    validated through volume bookkeeping rather than pairwise tests.
    """

    parts: tuple[Polytope, ...]
    meta: str = ""

    def __post_init__(self):
        if not self.parts:
            raise DegenerateInput("union needs at least one part")
        d = self.parts[0].dim
        if any(p.dim != d for p in self.parts):
            raise DegenerateInput("union parts must share the ambient dimension")

    @property
    def dim(self) -> int:
        return self.parts[0].dim


Body = Union[Polytope, PolytopeUnion]


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
    cones i0 over the fans of its facets that miss i0 (`_facet_sets`; a
    polygon's facets are its edges), in the order of their first
    inequality."""
    i0 = (s & -s).bit_length() - 1
    if r == 0:
        return [(i0,)]
    if r == 1:
        return [(i0, s.bit_length() - 1)]
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
    total = 0
    for s in _simplices(p):
        v0 = nums[s[0]]
        total += abs(_det([tuple(x - y for x, y in zip(nums[i], v0)) for i in s[1:]]))
    return Fraction(total, math.factorial(d) * p.denominator**d)


def volume(body: Body) -> Fraction:
    """Exact d-volume; 0 for lower-dimensional or empty polytopes.

    Union volume is the sum over parts.
    """
    if isinstance(body, PolytopeUnion):
        return sum((part.volume() for part in body.parts), ZERO)
    return body.volume()


# ---------------------------------------------------------------------------
# enumeration between representations


def facets_from_vertices(p: Polytope) -> list[HalfSpace]:
    """Complete irredundant facet list of a full-dimensional polytope."""
    if not p.is_full_dim:
        raise DegenerateInput("vertices are not full-dimensional")
    return list(p.facets())


def vertices_from_facets(halfspaces: Sequence[HalfSpace], dim: int) -> Polytope:
    """The polytope cut out by a halfspace system: the box [-B, B]^dim
    clipped by each halfspace in turn (the primal double description
    method).  B is 1 plus the product of the dim largest values of
    isqrt(|a|^2 + b^2) + 1 over the rows ``a . x <= b``; by Cramer's rule
    and Hadamard's bound every vertex, and a point of every minimal face,
    lies strictly inside that box, so a nonempty cut that touches it is
    unbounded.  The inequalities kept are halfspaces of the system in its
    order; a full-dimensional result keeps as facets those cutting out its
    facets, first comers first."""
    if any(len(h.coeffs) != dim for h in halfspaces):
        raise DegenerateInput(f"halfspace of the wrong length in ambient dimension {dim}")
    sizes = sorted((math.isqrt(_dot(h.coeffs, h.coeffs) + h.rhs * h.rhs) + 1 for h in halfspaces),
                   reverse=True)
    big = 1 + math.prod(sizes[:dim])
    out = dilate(unit_cube(dim), 2 * big).translated((-big,) * dim)
    for h in halfspaces:
        out = clip(out, h)
        if out.is_empty:
            raise Infeasible("halfspace system has no solution")
    lo, hi = out.integer_box()
    edge = big * out.denominator
    if -edge in lo or edge in hi:
        raise Unbounded("halfspace system admits a recession direction")
    return out


# ---------------------------------------------------------------------------
# clipping, intersection, Minkowski sums, affine maps


def sides(p: Polytope, h: HalfSpace) -> list[int]:
    """h at each vertex of p in integers, ``coeffs . num - rhs * denominator``:
    h.value(v) times the positive factor denominator / scale."""
    a, bd = h.coeffs, h.rhs * p.denominator
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
    cut = tuple(q for b, q in enumerate(ineqs) if alive >> b & 1) + (h.canonical(),)
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
    vals = sides(p, h)
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
    vals = sides(p, h)
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


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Convex hull of pairwise vertex sums, normalized to extreme points."""
    if p.dim != q.dim:
        raise DegenerateInput("Minkowski sum requires equal ambient dimensions")
    if p.is_empty or q.is_empty:
        return Polytope.empty(p.dim)
    den = math.lcm(p.denominator, q.denominator)
    f, g = den // p.denominator, den // q.denominator
    sums = (tuple(f * x + g * y for x, y in zip(a, b)) for a in p.numerators for b in q.numerators)
    return Polytope(p.dim, sums, den=den)


def affine_image(p: Polytope, m: Mat, t: Iterable) -> Polytope:
    """Image of p under x -> m x + t; m must be invertible.  With
    m = rows / mden and t = tn / tden, vertex v / den maps to numerator
    f * (rows v) + g * tn over lcm(mden * den, tden)."""
    if determinant(m) == 0:
        raise SingularMatrix("affine image requires an invertible matrix")
    rows, mden = _homogenize(as_mat(m))
    (tn,), tden = _homogenize([as_vec(t)])
    den = math.lcm(mden * p.denominator, tden)
    f, g = den // (mden * p.denominator), den // tden
    return Polytope(p.dim, (tuple(f * _dot(row, v) + g * x for row, x in zip(rows, tn))
                            for v in p.numerators), den=den)


def dilate(p: Polytope, n: int) -> Polytope:
    if n <= 0:
        raise DegenerateInput("dilation factor must be positive")
    return p._image([tuple(n * x for x in v) for v in p.numerators], p.denominator,
                    lambda h: HalfSpace._from_ints(*_primitive(h.coeffs, n * h.rhs)))


def bounding_box(p: Polytope) -> tuple[Vec, Vec]:
    return p.bounding_box()


def unit_cube(d: int) -> Polytope:
    nums = list(itertools.product((0, 1), repeat=d))
    # -x_i <= 0 and x_i <= 1 in turn for each i, so bit 2i + x_i is tight at x
    facets = tuple(HalfSpace._from_ints(tuple(s if j == i else 0 for j in range(d)), max(s, 0))
                   for i in range(d) for s in (-1, 1))
    masks = [sum(1 << (2 * i + x) for i, x in enumerate(v)) for v in nums]
    return Polytope._made(d, nums, 1, d, ((), facets), masks)


def segment(a: Iterable, b: Iterable, dim: Optional[int] = None) -> Polytope:
    av, bv = as_vec(a), as_vec(b)
    return Polytope(dim if dim is not None else len(av), [av, bv])


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
