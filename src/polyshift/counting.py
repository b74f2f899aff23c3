"""Lattice-point counting for shifted polytopes.

The central quantity is the number of integer points captured by ``p + s``
for a shift ``s`` in the half-open unit cube.  Counting is closed-set:
points on the boundary are counted *and* reported, so callers can detect
non-generic shifts and resample.  Stream shifts are dyadic, ``m / 2**64``
with integer ``m``: exact, and almost surely generic.

The counter works on the body's integer rows ``a . x <= b``: as ``a . z``
is an integer, ``a . (z - m/D) <= b`` iff ``a . z <= b + floor(a . m / D)``,
so residuals are small ints and a row can be tight only when ``D | a . m``
(for a generic dyadic shift, never).  Lattice points are enumerated depth
first, one coordinate per level, counting whole fibers along the last;
stepping a coordinate subtracts its column from the residuals.  A per-body
plan bounds each row's remaining terms from below, and a level visits only
values that keep every residual above its bound: empty subtrees are pruned
and no point is lost.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, floordiv, lt, mul, sub
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInput, NotConstant
from .geometry import (Body, IVec, Polytope, PolytopeUnion, Vec, _homogenize, as_vec, determinant,
                       minkowski_sum, parse_json_rows, parse_rational, segment, zero_vec)

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS


class Shift:
    """Translation vector with coordinates in [0, 1), held as integer
    numerators ``nums`` over one positive denominator ``den``."""

    __slots__ = ("nums", "den", "_coords")

    def __init__(self, coords: Iterable):
        coords = as_vec(coords)
        if any(c < 0 or c >= 1 for c in coords):
            raise DegenerateInput("shift coordinates must lie in [0, 1)")
        (self.nums,), self.den = _homogenize([coords])
        self._coords = coords

    @classmethod
    def _from_ints(cls, nums: IVec, den: int) -> "Shift":
        out = object.__new__(cls)
        out.nums, out.den, out._coords = nums, den, None
        return out

    @property
    def coords(self) -> Vec:
        if self._coords is None:
            self._coords = tuple(Fraction(x, self.den) for x in self.nums)
        return self._coords

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        return self.coords == other.coords if isinstance(other, Shift) else NotImplemented

    def __hash__(self):
        return hash(self.coords)


class ShiftStream:
    """Deterministic stream of dyadic shifts for one generator seed."""

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._rng = random.Random(seed)
        self._bits = (DYADIC_BITS,) * dim

    def draw(self) -> Shift:
        return Shift._from_ints(tuple(map(self._rng.getrandbits, self._bits)), _DYADIC_DEN)


@dataclass(frozen=True)
class CountResult:
    """Count plus the lattice points found exactly on the boundary."""

    count: int
    boundary_hits: tuple[tuple[int, ...], ...] = ()

    @property
    def is_generic(self) -> bool:
        return not self.boundary_hits


_NONE = CountResult(0)


class _CountPlan:
    """Shift-independent counting data of one nonempty polytope, built on its first count.

    Rows ``a . x <= rhs`` (equalities folded in as pairs) are ordered by the
    sign of a_last: positive below ``npos``, negative below ``nnz``, then
    zero; ``divs`` holds their |a_last| unless all are 1.  ``mins[k][j]``
    bounds ``sum_{i >= k} a_ji z_i`` over the box ``ceil(lo) .. floor(hi) + 1``,
    which holds every shift's lattice range; ``levels[k]`` holds the rows
    with a_jk > 0 and a_jk < 0, each as (j, |a_jk|, mins[k + 1][j]).
    """

    __slots__ = ("rows", "rhs", "cols", "mins0", "levels", "npos", "nnz", "divs", "eq_rows", "box")

    def __init__(self, p: Polytope):
        d = p.dim
        eqs, ineqs = p.integer_description()
        rows = [(a, b, False) for a, b in ineqs]
        for a, b in eqs:
            rows += [(a, b, True), (tuple(-x for x in a), -b, True)]
        rows.sort(key=lambda r: (r[0][-1] <= 0, r[0][-1] == 0))
        self.rows = [a for a, _, _ in rows]
        self.rhs = [b for _, b, _ in rows]
        self.eq_rows = [j for j, r in enumerate(rows) if r[2]]
        self.cols = cols = [tuple(a[k] for a in self.rows) for k in range(d)]
        den = p.denominator
        lo_box, hi_box = p.integer_box()
        mins = [[0] * len(rows)]
        for k in reversed(range(d)):
            lo, hi = -(-lo_box[k] // den), hi_box[k] // den + 1
            mins.append([s + min(c * lo, c * hi) for s, c in zip(mins[-1], cols[k])])
        mins.reverse()
        self.mins0 = mins[0]
        self.levels = [([(j, c, mins[k + 1][j]) for j, c in enumerate(cols[k]) if c > 0],
                        [(j, -c, mins[k + 1][j]) for j, c in enumerate(cols[k]) if c < 0])
                       for k in range(d - 1)]
        divs = [abs(c) for c in cols[-1] if c]
        self.npos, self.nnz = sum(c > 0 for c in cols[-1]), len(divs)
        self.divs = None if set(divs) == {1} else (divs[:self.npos], divs[self.npos:])
        # the enumerated coordinates' box corners as (q, r) with corner = q * den + r
        self.box = [(divmod(lo, den), divmod(hi, den)) for lo, hi in zip(lo_box[:-1], hi_box[:-1])]


def _fiber_hits(R, tight, last, lo, hi, prefix) -> list:
    """The points of fiber ``prefix x [lo, hi]`` where a tight row is an equality, in order."""
    vals = set()
    for j in tight:
        a, r = last[j], R[j]
        if a == 0:
            if r == 0:
                return [prefix + (z,) for z in range(lo, hi + 1)]
        elif r % a == 0:
            vals.add(r // a)
    return [prefix + (z,) for z in sorted(vals) if lo <= z <= hi]


def _count_polytope(p: Polytope, m: IVec, D: int, off: Optional[IVec]) -> CountResult:
    """Exact count of z in Z^d with z in p + m/D, for m in [0, D)^d; boundary
    hits are reported translated by the integer vector ``off``."""
    if p.is_empty:
        return _NONE
    d = p.dim
    if len(m) != d:
        raise DegenerateInput("shift dimension does not match the polytope")
    plan = p._count_plan
    if plan is None:
        plan = p._count_plan = _CountPlan(p)
    am = [sum(map(mul, a, m)) for a in plan.rows]
    R = [b + x // D for b, x in zip(plan.rhs, am)]
    if any(map(lt, R, plan.mins0)) or any(am[j] % D for j in plan.eq_rows):
        return _NONE
    # a row can be tight only when D | a . m
    tight = [j for j, x in enumerate(am) if not x % D]
    # lattice range of the enumerated coordinates over the shifted box: a
    # corner q + r / den moves to q + t / scale with t = r * D + x * den < 2 * scale
    den = p.denominator
    scale = den * D
    blo, bhi = [], []
    for ((q, r), (qh, rh)), x in zip(plan.box, m):
        t, th = r * D + x * den, rh * D + x * den
        blo.append(q + (t > 0) + (t > scale))
        bhi.append(qh + (th >= scale))
    cols, levels, npos, nnz, divs = plan.cols, plan.levels, plan.npos, plan.nnz, plan.divs
    count = 0
    hits: list = []

    def fibers(R, prefix, zs, col):
        # whole fibers over prefix + z for z in zs, at residuals R, R - col, ...
        nonlocal count
        for z in zs:
            if divs is None:
                hi, lo = min(R[:npos]), -min(R[npos:nnz])
            else:
                hi = min(map(floordiv, R[:npos], divs[0]))
                lo = -min(map(floordiv, R[npos:nnz], divs[1]))
            if lo <= hi:
                count += hi - lo + 1
                if tight:
                    hits.extend(_fiber_hits(R, tight, cols[-1], lo, hi, prefix + z))
            R = list(map(sub, R, col))

    def walk(k, R, prefix):
        # z_k ranges over the values that keep every residual at or above its minimum
        pos, neg = levels[k]
        lo, hi = blo[k], bhi[k]
        for j, c, mn in pos:
            t = (R[j] - mn) // c
            if t < hi:
                hi = t
        for j, c, mn in neg:
            t = -((R[j] - mn) // c)
            if t > lo:
                lo = t
        col = cols[k]
        R = [r - lo * c for r, c in zip(R, col)]
        if k + 2 == d:
            fibers(R, prefix, zip(range(lo, hi + 1)), col)
            return
        for z in range(lo, hi + 1):
            walk(k + 1, R, prefix + (z,))
            R = list(map(sub, R, col))

    if d == 1:
        fibers(R, (), ((),), cols[0])
    else:
        walk(0, R, ())
    if hits and off is not None:
        hits = [tuple(map(add, z, off)) for z in hits]
    return CountResult(count, tuple(hits))


def count_at(body: Body, shift) -> CountResult:
    """Number of lattice points inside ``body + shift`` (closed count).

    ``shift`` is a `Shift` or any rational vector; the latter is reduced
    modulo Z^d and the boundary hits are translated back.  Unions count
    additively over their parts, matching the almost-sure additivity of
    counts over interior-disjoint families.
    """
    if isinstance(shift, Shift):
        m, D, off = shift.nums, shift.den, None
    else:
        (full,), D = _homogenize([as_vec(shift)])
        m = tuple(x % D for x in full)
        off = tuple(x // D for x in full) if m != full else None
    if not isinstance(body, PolytopeUnion):
        return _count_polytope(body, m, D, off)
    res = [_count_polytope(part, m, D, off) for part in body.parts]
    return CountResult(sum(r.count for r in res), tuple(z for r in res for z in r.boundary_hits))


def is_generic(body: Body, shift) -> bool:
    """True when no lattice point lies on the boundary of ``body + shift``."""
    return count_at(body, shift).is_generic


def generic_count(body: Body, seed: int = 0, *, trials: int = 8, max_resamples: int = 64) -> int:
    """Almost-sure count of a body whose generic count is constant.

    Draws shifts until generic (resampling on boundary hits) and checks the
    count over several independent generic shifts; disagreement raises
    NotConstant, flagging misuse.  Boundary events at dyadic shifts signal a
    degenerate instance rather than bad luck, hence the hard resample cap.
    """
    stream = ShiftStream(body.dim, seed)
    values = []
    for _ in range(trials):
        for _ in range(max_resamples + 1):
            res = count_at(body, stream.draw())
            if res.is_generic:
                values.append(res.count)
                break
        else:
            raise DegenerateInput(f"no generic shift found in {max_resamples} resamples")
    if len(set(values)) > 1:
        raise NotConstant(f"generic counts disagree: {sorted(set(values))}")
    return values[0]


# ---------------------------------------------------------------------------
# parallelepipeds and zonotopes


def parallelepiped_index(generators: Sequence[Iterable]) -> int:
    """|det| of d generators = index of the spanned sublattice = the
    almost-sure lattice count of the parallelepiped they span."""
    gens = [as_vec(g) for g in generators]
    d = len(gens)
    if any(len(g) != d for g in gens):
        raise DegenerateInput("need d generators of length d")
    det = determinant(gens)
    if det == 0:
        raise DegenerateInput("generators are linearly dependent")
    if det.denominator != 1:
        raise DegenerateInput("generators must be integer vectors")
    return abs(int(det))


@dataclass(frozen=True)
class ZonotopeSpec:
    """Integer generators of a zonotope (Minkowski sum of segments)."""

    dim: int
    generators: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(as_vec(g) for g in self.generators))
        for g in self.generators:
            if len(g) != self.dim:
                raise DegenerateInput("generator length does not match dim")
            if any(c.denominator != 1 for c in g):
                raise DegenerateInput("zonotope generators must be integral")


def zonotope_constant(spec: ZonotopeSpec) -> int:
    """Sum of |det| over d-subsets of the generators.

    This equals the almost-sure count of the zonotope and its volume: the
    zonotope splits into one integer parallelepiped per nonsingular subset.
    """
    total = sum(abs(int(determinant(s))) for s in itertools.combinations(spec.generators, spec.dim))
    if total == 0:
        raise DegenerateInput("generators do not span the ambient space")
    return total


def zonotope_polytope(spec: ZonotopeSpec) -> Polytope:
    """The zonotope itself, built by folding Minkowski segment sums."""
    out = Polytope(spec.dim, [zero_vec(spec.dim)])
    for g in spec.generators:
        out = minkowski_sum(out, segment(zero_vec(spec.dim), g))
    return out


def zonotope_spec_from_json(data: dict) -> ZonotopeSpec:
    dim, raw = parse_json_rows(data, "generators", "zonotope")
    rows = tuple(tuple(parse_rational(x) for x in g) for g in raw)
    for g, row in zip(raw, rows):
        if any(c.denominator != 1 for c in row):
            raise DegenerateInput(f"zonotope generators must be integral, got {g!r}")
    return ZonotopeSpec(dim, rows)


def zonotope_spec_to_json(spec: ZonotopeSpec) -> dict:
    return {"dim": spec.dim, "generators": [[int(c) for c in g] for g in spec.generators]}
