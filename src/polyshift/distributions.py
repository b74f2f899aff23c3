"""Exact and empirical laws of the shifted lattice-point count.

Three independent routes to the same quantities live here:

* the mean is the volume;
* the variance/covariance comes from a lattice sum of intersection
  volumes over the integer translates in the interior of the difference
  body P - Q, the only ones whose intersection has volume,

      cov(X_P, X_Q) = sum_t vol(P meet (Q + t)) - vol(P) vol(Q),

  an unfolding identity validated against brute-force grid integration
  in the test suite before being relied on exactly;
* the full law comes from overlaying the integer translates z - P on the
  unit cube: the count at x is the number of translates holding x, so
  cells that start at count 0 and gain one inside each translate carry
  the law in their volumes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .counting import ShiftStream, draw_generic
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
    clip,
    clip_both,
    minkowski_sum,
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
    sum of intersection volumes over the interior of the difference body
    p - q.  An integer t has a full-dimensional cap p meet (q + t) exactly
    when it lies strictly inside p - q, so only those translates are
    clipped, each cap being p clipped by q's integer rows moved by t,
    ``a . x <= b + a . t``.  A cap that turns flat on the way is a kernel
    fault and raises InvariantViolation.

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
    _, inside = minkowski_sum(p, q.negated()).integer_description()
    _, rows = q.integer_description()
    second = ZERO
    for t in itertools.product(*_translate_range(p, q)):
        if symmetric and t < tuple(-c for c in t):
            continue
        if any(sum(map(mul, a, t)) >= b for a, b in inside):
            continue
        cap = p
        # gcd(a, b + a . t) = gcd(a, b) = 1: the moved row stays primitive
        for a, b in rows:
            cap = clip(cap, HalfSpace._from_ints(a, b + sum(map(mul, a, t))))
            if not cap.is_full_dim:
                raise InvariantViolation(
                    f"cap at translate {list(t)} inside the difference body turned flat")
        vol = cap.volume()
        second += vol if (not symmetric or t == tuple(-c for c in t)) else 2 * vol
    return second - p.volume() * q.volume()


def exact_variance(p: Polytope) -> MomentReport:
    """Mean = volume, variance = the self-covariance lattice sum."""
    return MomentReport(mean=exact_mean(p), variance=exact_covariance(p, p))


# ---------------------------------------------------------------------------
# exact distribution by overlaying the translates on the cube


def _overlay(cells: list[tuple[Polytope, int]], facets: list[HalfSpace]
             ) -> list[tuple[Polytope, int]]:
    """Lay one translate, cut out of the cube by `facets`, over the counted
    cells: the part of a cell inside it gains one, the parts cut away keep
    their count.  A cell that a facet leaves wholly outside, judged first
    on the cell's bounding box, stays whole; so does a cell whose last part
    turns out to lie outside, as all its parts keep one count."""
    out = []
    for cell, count in cells:
        (lo, hi), den = cell.integer_box(), cell.denominator
        # a . x over the box is least at lo where a > 0 and at hi elsewhere
        if any(sum(a * (l if a > 0 else u) for a, l, u in zip(h.coeffs, lo, hi)) >= h.rhs * den
               for h in facets):
            out.append((cell, count))
            continue
        part, cut = cell, []
        for h in facets:
            vals = sides(part, h)
            if max(vals) <= 0:
                continue
            if min(vals) >= 0:
                out.append((cell, count))
                break
            part, away = clip_both(part, h)
            cut.append((away, count))
        else:
            out += cut
            out.append((part, count + 1))
    return out


def exact_distribution(body: Body, cell_budget: int = 10**6) -> CountDistribution:
    """Exact law of the count under a uniform unit-cube shift.

    The count at x is the number of integer z with x in z - P, so the law
    is that of the integer translates z - P laid over the unit cube.  Cells
    carry counts, starting from the cube alone at count 0; each translate
    that meets the open cube is overlaid by its facets that cut the cube
    (`_overlay`).  A facet -a . x <= b - a . z that leaves the open cube
    wholly outside rules its translate out.  Probabilities are exact sums
    of the final cells' volumes, which must fill the cube (checked, raising
    InvariantViolation, as a loud failure beats a silent miscount).  At
    most `cell_budget` cells are kept.
    """
    _require_full_dim(body, "exact_distribution")
    parts = body.parts if isinstance(body, PolytopeUnion) else (body,)
    cube = unit_cube(parts[0].dim)
    cells = [(cube, 0)]
    for part in parts:
        lo, hi = part.bounding_box()
        _, ineqs = part.integer_description()
        # z - part reaches the open cube only for z in the box grown by one
        for z in itertools.product(*(range(math.ceil(a), math.floor(b) + 2)
                                     for a, b in zip(lo, hi))):
            # z - part is cut out by -a . x <= b - a . z over part's facets
            facets = [HalfSpace._from_ints(tuple(-c for c in a), b - sum(map(mul, a, z)))
                      for a, b in ineqs]
            vals = [sides(cube, h) for h in facets]
            if any(min(v) >= 0 for v in vals):
                continue
            cells = _overlay(cells, [h for h, v in zip(facets, vals) if max(v) > 0])
            if len(cells) > cell_budget:
                raise CellBudgetExceeded(f"cell decomposition exceeded {cell_budget} cells")
    probs: dict[int, Fraction] = {}
    for cell, count in cells:
        probs[count] = probs.get(count, ZERO) + cell.volume()
    total = sum(probs.values(), ZERO)
    if total != 1:
        raise InvariantViolation(f"cell volumes sum to {total}, not 1")
    return CountDistribution(kind="exact", probs=dict(sorted(probs.items())))


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
    bodies = [body]
    for _ in range(samples):
        _, (count,), rejected = draw_generic(stream, bodies)
        redraws += rejected
        freqs[count] = freqs.get(count, 0) + 1
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
