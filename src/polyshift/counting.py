"""Lattice-point counting for shifted polytopes.

The central quantity is the number of integer points captured by ``p + s``
for a shift ``s`` in the half-open unit cube.  Counting is closed-set:
points on the boundary are counted *and* reported, so callers can detect
non-generic shifts and resample.

Shift coordinates are dyadic rationals ``k / 2**64`` drawn from a seeded
stream, which keeps every membership test exact while making boundary
hits astronomically rare yet detectable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DegenerateInput, NotConstant
from .geometry import (
    Body,
    Polytope,
    PolytopeUnion,
    Vec,
    as_vec,
    determinant,
    minkowski_sum,
    parse_json_rows,
    parse_rational,
    segment,
    zero_vec,
)

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS


@dataclass(frozen=True)
class Shift:
    """Translation vector with coordinates in [0, 1)."""

    coords: Vec
    seed_info: str = ""

    def __post_init__(self):
        if any(c < 0 or c >= 1 for c in self.coords):
            raise DegenerateInput("shift coordinates must lie in [0, 1)")

    @property
    def dim(self) -> int:
        return len(self.coords)


class ShiftStream:
    """Deterministic stream of dyadic shifts for one generator seed."""

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._rng = random.Random(seed)
        self._index = 0

    def draw(self) -> Shift:
        coords = tuple(
            Fraction(self._rng.getrandbits(DYADIC_BITS), _DYADIC_DEN)
            for _ in range(self.dim)
        )
        info = f"mt19937:seed={self.seed}:index={self._index}"
        self._index += 1
        return Shift(coords, info)


@dataclass(frozen=True)
class CountResult:
    """Count plus the lattice points found exactly on the boundary."""

    count: int
    boundary_hits: tuple[tuple[int, ...], ...] = ()

    @property
    def is_generic(self) -> bool:
        return not self.boundary_hits


def _shift_coords(shift) -> Vec:
    if isinstance(shift, Shift):
        return shift.coords
    return as_vec(shift)


def _count_polytope(p: Polytope, coords: Vec) -> CountResult:
    """Exact count of z in Z^d with z in p + coords.

    Works on one integer-cleared inequality per facet, counting whole fibers
    along the last coordinate at once; lower-dimensional bodies additionally
    carry their affine-hull equalities, and every point they capture counts
    as a boundary hit.
    """
    if p.is_empty:
        return CountResult(0)
    d = p.dim
    if len(coords) != d:
        raise DegenerateInput("shift dimension does not match the polytope")
    eqs, ineqs = p.integer_description()
    flat = not p.is_full_dim
    den = math.lcm(*(c.denominator for c in coords))
    m = [c.numerator * (den // c.denominator) for c in coords]
    # box corner + shift = (corner * den + m * pden) / (pden * den)
    pden = p.denominator
    lo_box, hi_box = p.integer_box()
    scale = pden * den
    ranges = []
    for i in range(d):
        lo = -((-lo_box[i] * den - m[i] * pden) // scale)
        hi = (hi_box[i] * den + m[i] * pden) // scale
        if lo > hi:
            return CountResult(0)
        ranges.append((lo, hi))

    # constraint a.(z - s) (<=|==) b  <->  den*(a.z) (<=|==) den*b + a.m
    ineq_data = [
        (a, den * b + sum(ai * mi for ai, mi in zip(a, m))) for a, b in ineqs
    ]
    eq_data = [
        (a, den * b + sum(ai * mi for ai, mi in zip(a, m))) for a, b in eqs
    ]

    count = 0
    hits: list[tuple[int, ...]] = []
    tail_lo, tail_hi = ranges[-1]
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges[:-1])):
        lo, hi = tail_lo, tail_hi
        feasible = True
        tight_all = False
        tight_vals: set[int] = set()
        for a, t in eq_data:
            r = t - den * sum(ai * zi for ai, zi in zip(a, prefix))
            ad = den * a[-1]
            if ad == 0:
                if r != 0:
                    feasible = False
                    break
            else:
                if r % ad:
                    feasible = False
                    break
                z = r // ad
                lo = max(lo, z)
                hi = min(hi, z)
        if not feasible or lo > hi:
            continue
        for a, t in ineq_data:
            r = t - den * sum(ai * zi for ai, zi in zip(a, prefix))
            ad = den * a[-1]
            if ad == 0:
                if r < 0:
                    feasible = False
                    break
                if r == 0:
                    tight_all = True
            elif ad > 0:
                hi = min(hi, r // ad)
                if r % ad == 0:
                    tight_vals.add(r // ad)
            else:
                lo = max(lo, -(r // -ad))
                if (-r) % (-ad) == 0:
                    tight_vals.add((-r) // (-ad))
            if lo > hi:
                feasible = False
                break
        if not feasible or lo > hi:
            continue
        count += hi - lo + 1
        if flat or tight_all:
            hits.extend(prefix + (z,) for z in range(lo, hi + 1))
        else:
            hits.extend(prefix + (z,) for z in sorted(tight_vals) if lo <= z <= hi)
    return CountResult(count, tuple(hits))


def count_at(body: Body, shift) -> CountResult:
    """Number of lattice points inside ``body + shift`` (closed count).

    Unions count additively over their parts, matching the almost-sure
    additivity of counts over interior-disjoint families.
    """
    coords = _shift_coords(shift)
    if isinstance(body, PolytopeUnion):
        total = 0
        hits: list[tuple[int, ...]] = []
        for part in body.parts:
            r = _count_polytope(part, coords)
            total += r.count
            hits.extend(r.boundary_hits)
        return CountResult(total, tuple(hits))
    return _count_polytope(body, coords)


def is_generic(body: Body, shift) -> bool:
    """True when no lattice point lies on the boundary of ``body + shift``."""
    return count_at(body, shift).is_generic


def generic_count(
    body: Body,
    seed: int = 0,
    *,
    trials: int = 8,
    max_resamples: int = 64,
) -> int:
    """Almost-sure count of a body whose generic count is constant.

    Draws shifts until generic (resampling on boundary hits) and checks the
    count over several independent generic shifts; disagreement raises
    NotConstant, flagging misuse.  Boundary events at dyadic shifts signal a
    degenerate instance rather than bad luck, hence the hard resample cap.
    """
    dim = body.dim
    stream = ShiftStream(dim, seed)
    values = []
    for _ in range(trials):
        for attempt in range(max_resamples + 1):
            res = count_at(body, stream.draw())
            if res.is_generic:
                values.append(res.count)
                break
        else:
            raise DegenerateInput(
                f"no generic shift found in {max_resamples} resamples"
            )
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
        object.__setattr__(
            self, "generators", tuple(as_vec(g) for g in self.generators)
        )
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
    d = spec.dim
    total = 0
    for subset in itertools.combinations(spec.generators, d):
        det = determinant(subset)
        total += abs(int(det))
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
    rows = []
    for g in raw:
        row = tuple(parse_rational(x) for x in g)
        if any(c.denominator != 1 for c in row):
            raise DegenerateInput(f"zonotope generators must be integral, got {g!r}")
        rows.append(row)
    return ZonotopeSpec(dim, tuple(rows))


def zonotope_spec_to_json(spec: ZonotopeSpec) -> dict:
    return {
        "dim": spec.dim,
        "generators": [[int(c) for c in g] for g in spec.generators],
    }
