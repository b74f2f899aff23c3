"""Exact and empirical laws of the shifted lattice-point count.

Three independent routes to the same quantities live here:

* the mean is the volume;
* the variance/covariance comes from a lattice sum of intersection
  volumes over integer translates,

      cov(X_P, X_Q) = sum_t vol(P meet (Q + t)) - vol(P) vol(Q),

  an unfolding identity validated against brute-force grid integration
  in the test suite before being relied on exactly;
* the full law comes from a cell decomposition of the unit cube: the
  count is piecewise constant on the cells of the arrangement of all
  facet hyperplanes of all relevant integer translates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .counting import ShiftStream, count_at
from .errors import (
    CellBudgetExceeded,
    DegenerateInput,
    InsufficientSamples,
    InvariantViolation,
)
from .geometry import (
    Body,
    HalfSpace,
    Polytope,
    PolytopeUnion,
    ZERO,
    clip_both,
    intersect,
    sides,
    unit_cube,
    volume,
)


@dataclass(frozen=True)
class MomentReport:
    mean: Fraction
    variance: Fraction
    covariance: Optional[Fraction] = None

    def __post_init__(self):
        if self.variance < 0:
            raise DegenerateInput("variance must be nonnegative")


@dataclass
class CountDistribution:
    """Law of the count, exact (rational atoms) or empirical (frequencies)."""

    kind: str  # "exact" | "empirical"
    probs: Optional[dict[int, Fraction]] = None
    freqs: Optional[dict[int, int]] = None
    samples: Optional[int] = None
    sample_seed: Optional[int] = None
    redraws: int = 0

    def __post_init__(self):
        if self.kind == "exact":
            if self.probs is None:
                raise DegenerateInput("exact distribution needs probabilities")
            total = sum(self.probs.values(), ZERO)
            if total != 1:
                raise DegenerateInput(f"probabilities sum to {total}, not 1")
            if any(p < 0 for p in self.probs.values()):
                raise DegenerateInput("negative probability")
        elif self.kind == "empirical":
            if self.freqs is None or self.samples is None:
                raise DegenerateInput("empirical distribution needs frequencies")
            if sum(self.freqs.values()) != self.samples:
                raise DegenerateInput("frequencies must sum to the sample count")
        else:
            raise DegenerateInput(f"unknown distribution kind: {self.kind!r}")

    def support(self) -> tuple[int, ...]:
        src = self.probs if self.kind == "exact" else self.freqs
        return tuple(sorted(m for m, w in src.items() if w))

    def probability(self, m: int) -> Fraction:
        if self.kind == "exact":
            return self.probs.get(m, ZERO)
        return Fraction(self.freqs.get(m, 0), self.samples)

    def probability_map(self) -> dict[int, Fraction]:
        return {m: self.probability(m) for m in self.support()}

    def mean(self) -> Fraction:
        return sum((m * self.probability(m) for m in self.support()), ZERO)

    def variance(self) -> Fraction:
        mu = self.mean()
        second = sum((m * m * self.probability(m) for m in self.support()), ZERO)
        return second - mu * mu

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountDistribution):
            return NotImplemented
        return self.probability_map() == other.probability_map()


# ---------------------------------------------------------------------------
# moments


def _require_full_dim(body: Body, what: str):
    parts = body.parts if isinstance(body, PolytopeUnion) else (body,)
    for part in parts:
        if not part.is_full_dim:
            raise DegenerateInput(
                f"{what} requires full-dimensional parts; a lower-dimensional "
                "body captures lattice points with probability zero"
            )


def exact_mean(body: Body) -> Fraction:
    """The expected count is exactly the volume."""
    _require_full_dim(body, "exact_mean")
    return volume(body)


def _translate_range(p: Polytope, q: Polytope) -> list[range]:
    plo, phi = p.bounding_box()
    qlo, qhi = q.bounding_box()
    out = []
    for i in range(p.dim):
        lo = math.ceil(plo[i] - qhi[i])
        hi = math.floor(phi[i] - qlo[i])
        out.append(range(lo, hi + 1))
    return out


def exact_covariance(p: Polytope, q: Polytope) -> Fraction:
    """cov of the counts of p and q under one common shift, via the lattice
    sum of intersection volumes over the difference box.

    For the self-covariance the summand is even in the translate
    (vol(P meet (P+t)) = vol(P meet (P-t))), so only half the range is
    enumerated.
    """
    if not isinstance(p, Polytope) or not isinstance(q, Polytope):
        raise DegenerateInput("covariance is defined for single polytopes")
    if p.dim != q.dim:
        raise DegenerateInput("covariance requires equal ambient dimensions")
    _require_full_dim(p, "exact_covariance")
    _require_full_dim(q, "exact_covariance")
    symmetric = p == q
    # per-facet linear filters, cheap certificates of empty intersection in
    # integers: for a facet a . x <= b of p, a . t > floor(b - min_q a . w)
    # rules t out; for a facet of q, a . t < ceil(min_p a . v - b) does
    p_filters = [(h.coeffs, -min(sides(q, h)) // q.denominator) for h in p.facets()]
    q_filters = [(h.coeffs, -(-min(sides(p, h)) // p.denominator)) for h in q.facets()]
    second = ZERO
    for t in itertools.product(*_translate_range(p, q)):
        if symmetric and t < tuple(-c for c in t):
            continue
        if any(sum(map(mul, a, t)) > c for a, c in p_filters):
            continue
        if any(sum(map(mul, a, t)) < c for a, c in q_filters):
            continue
        cap = intersect(p, q.translated(t))
        if not cap.is_empty and cap.is_full_dim:
            vol = cap.volume()
            second += vol if (not symmetric or t == tuple(-c for c in t)) else 2 * vol
    return second - p.volume() * q.volume()


def exact_variance(p: Polytope) -> MomentReport:
    """Mean = volume, variance = the self-covariance lattice sum."""
    return MomentReport(mean=exact_mean(p), variance=exact_covariance(p, p))


# ---------------------------------------------------------------------------
# exact distribution by cell decomposition


def _cutting_planes(parts: tuple[Polytope, ...], cube: Polytope) -> list[HalfSpace]:
    """Facet hyperplanes of every integer translate z - P whose bounding box
    meets the open unit cube, filtered to planes that actually cut it,
    deduplicated and sorted for determinism."""
    planes: dict[tuple, HalfSpace] = {}
    for part in parts:
        lo, hi = part.bounding_box()
        # superset of the z with (z - part) reaching the open cube; planes
        # from useless translates fall to the cube-cut filter
        zranges = [range(math.ceil(a), math.floor(b) + 2) for a, b in zip(lo, hi)]
        # z - part satisfies -a . x <= b - a . z: the facets of -part, moved by z
        negated = [HalfSpace(tuple(-x for x in hs.normal), hs.offset) for hs in part.facets()]
        for z in itertools.product(*zranges):
            for hs in negated:
                flipped = hs.translated(z)
                vals = sides(cube, flipped)
                if min(vals) < 0 < max(vals):
                    planes[flipped.plane_key()] = flipped
    keyed = sorted(planes.items(), key=lambda kv: kv[0])
    return [hs for _, hs in keyed]


def _split_cells(cube: Polytope, planes: list[HalfSpace], budget: int) -> list[Polytope]:
    """Leaf cells of the arrangement of `planes` inside the cube.

    Iterative sweep: carry the below side forward, stack the above side with
    the next plane index (planes already processed cannot cut a child)."""
    out: list[Polytope] = []
    stack: list[tuple[Polytope, int]] = [(cube, 0)]
    while stack:
        cell, idx = stack.pop()
        while idx < len(planes):
            h = planes[idx]
            vals = sides(cell, h)
            if min(vals) < 0 < max(vals):
                below, above = clip_both(cell, h)
                stack.append((above, idx + 1))
                cell = below
            idx += 1
        out.append(cell)
        if len(out) + len(stack) > budget:
            raise CellBudgetExceeded(f"cell decomposition exceeded {budget} cells")
    return out


def exact_distribution(body: Body, cell_budget: int = 10**6) -> CountDistribution:
    """Exact law of the count under a uniform unit-cube shift.

    Splits the unit cube by every facet hyperplane of every lattice
    translate that can reach it; on each full-dimensional leaf cell the
    count is constant and is read off at the vertex centroid, which by
    construction avoids every boundary (checked, raising InvariantViolation,
    as a loud failure beats a silent miscount).  Probabilities are exact
    cell-volume sums.
    """
    _require_full_dim(body, "exact_distribution")
    parts = body.parts if isinstance(body, PolytopeUnion) else (body,)
    d = parts[0].dim
    cube = unit_cube(d)
    planes = _cutting_planes(parts, cube)
    cells = _split_cells(cube, planes, cell_budget)
    probs: dict[int, Fraction] = {}
    total = ZERO
    for cell in cells:
        vol = cell.volume()
        if vol == 0:
            continue
        k = len(cell.numerators) * cell.denominator
        centroid = tuple(Fraction(sum(c), k) for c in zip(*cell.numerators))
        res = count_at(body, centroid)
        if not res.is_generic:
            raise InvariantViolation(
                "cell centroid landed on a translate boundary; "
                "the splitting plane set must be incomplete"
            )
        probs[res.count] = probs.get(res.count, ZERO) + vol
        total += vol
    if total != 1:
        raise InvariantViolation(f"cell volumes sum to {total}, not 1")
    probs = {m: pr for m, pr in sorted(probs.items()) if pr != 0}
    return CountDistribution(kind="exact", probs=probs)


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_distribution(body: Body, samples: int, seed: int = 0) -> CountDistribution:
    """Empirical law from seeded dyadic shifts; deterministic per seed.

    Samples that hit a boundary exactly are redrawn and tallied in
    ``redraws``.
    """
    if samples < 1:
        raise DegenerateInput("need at least one sample")
    dim = body.dim
    stream = ShiftStream(dim, seed)
    freqs: dict[int, int] = {}
    redraws = 0
    for _ in range(samples):
        for _ in range(64):
            res = count_at(body, stream.draw())
            if res.is_generic:
                break
            redraws += 1
        else:
            raise DegenerateInput("resampling failed to find a generic shift")
        freqs[res.count] = freqs.get(res.count, 0) + 1
    return CountDistribution(
        kind="empirical",
        freqs=dict(sorted(freqs.items())),
        samples=samples,
        sample_seed=seed,
        redraws=redraws,
    )


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class ComparisonReport:
    method: str
    equal: Optional[bool] = None
    chi2: Optional[float] = None
    p_value: Optional[float] = None
    dof: Optional[int] = None

    def to_json(self) -> dict:
        out: dict = {"method": self.method}
        if self.equal is not None:
            out["equal"] = self.equal
        if self.chi2 is not None:
            out["chi2"] = self.chi2
            out["pValue"] = self.p_value
            out["dof"] = self.dof
        return out


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of the chi-square law with integer ``dof`` >= 1.

    This is the regularized gamma Q(dof/2, y) with y = stat/2: for even dof
    the finite Poisson series e^-y (1 + y + ... + y^(k-1)/(k-1)!), k = dof/2;
    for odd dof erfc(sqrt y) plus e^-y times the sum of
    y^(i-1/2) / Gamma(i + 1/2) over i = 1 .. (dof-1)/2.
    """
    y = stat / 2
    if dof % 2 == 0:
        term = total = 1.0
        for i in range(1, dof // 2):
            term *= y / i
            total += term
        return math.exp(-y) * total
    total = math.erfc(math.sqrt(y))
    term = math.sqrt(y) / math.gamma(1.5)
    for i in range(1, (dof + 1) // 2):
        total += math.exp(-y) * term
        term *= y / (i + 0.5)
    return total


def compare_distributions(
    a: CountDistribution, b: CountDistribution, min_expected: float = 5.0
) -> ComparisonReport:
    """Exact/exact: rational equality.  Exact/empirical: chi-square
    goodness of fit over the exact support.  Empirical/empirical:
    two-sample chi-square over the pooled support."""
    if a.kind == "exact" and b.kind == "exact":
        return ComparisonReport(
            method="exact-equality", equal=a.probability_map() == b.probability_map()
        )
    if a.kind == "exact" or b.kind == "exact":
        exact, emp = (a, b) if a.kind == "exact" else (b, a)
        support = exact.support()
        expected = {m: emp.samples * exact.probability(m) for m in support}
        if min(expected.values()) < min_expected:
            raise InsufficientSamples(
                f"expected bin count below {min_expected}; draw more samples"
            )
        outside = sum(f for m, f in emp.freqs.items() if m not in support)
        if outside:
            return ComparisonReport(
                method="chi-square-goodness-of-fit",
                chi2=math.inf,
                p_value=0.0,
                dof=len(support) - 1,
            )
        stat = 0.0
        for m in support:
            e = float(expected[m])
            o = emp.freqs.get(m, 0)
            stat += (o - e) ** 2 / e
        dof = len(support) - 1
        return ComparisonReport(
            method="chi-square-goodness-of-fit",
            chi2=stat,
            p_value=_chi2_sf(stat, dof),
            dof=dof,
        )
    support = sorted(set(a.support()) | set(b.support()))
    n_a, n_b = a.samples, b.samples
    pooled = {m: Fraction(a.freqs.get(m, 0) + b.freqs.get(m, 0), n_a + n_b) for m in support}
    stat = 0.0
    for m in support:
        for dist, n in ((a, n_a), (b, n_b)):
            e = float(n * pooled[m])
            if e < min_expected:
                raise InsufficientSamples(
                    f"expected bin count below {min_expected}; draw more samples"
                )
            o = dist.freqs.get(m, 0)
            stat += (o - e) ** 2 / e
    dof = len(support) - 1
    return ComparisonReport(
        method="chi-square-two-sample",
        chi2=stat,
        p_value=_chi2_sf(stat, dof),
        dof=dof,
    )
