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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .counting import ShiftStream, generic_draws
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


# A signed permutation x -> (s_0 x_{j_0}, ..., s_{d-1} x_{j_{d-1}}), as the
# pairs (j_i, s_i) of its output coordinates.
SignedPermutation = tuple[tuple[int, int], ...]


def _shape(points) -> list[tuple[int, ...]]:
    """A multiset of integer points up to translation: sorted, less its
    lexicographically least point."""
    points = sorted(points)
    least = points[0]
    return [tuple(x - y for x, y in zip(v, least)) for v in points]


def _symmetries(p: Polytope) -> list[list[SignedPermutation]]:
    """The group G of signed permutations M with M p a translate of p,
    closed under x -> -x, as levels 0..d: the elements of G are the
    products m_d ... m_1 m_0 with m_k from level k.  Level k < d holds, for
    each value that the elements fixing the coordinates before k take at
    coordinate k, one such element; level d is {I, -I}.

    M p is a translate of p when M maps p's vertex numerators onto a
    translate of them.  A partial map fixes the first k output coordinates,
    each to a signed column whose sorted values match the target column's up
    to translation, and is kept only while the projection of its image onto
    those coordinates is a translate of p's; so asymmetric bodies prune at
    the first coordinate and never meet the d! 2^d candidates, and only one
    completion is searched per level element.
    """
    nums, d = p.numerators, p.dim
    cols = list(zip(*nums))
    profiles = [_shape((x,) for x in col) for col in cols]
    options = [[(j, s) for j in range(d) for s in (1, -1)
                if _shape((s * x,) for x in cols[j]) == profiles[i]] for i in range(d)]
    targets = [_shape(v[:k] for v in nums) for k in range(d + 1)]

    def complete(m: SignedPermutation) -> Optional[SignedPermutation]:
        """A symmetry beginning with the partial map m, if there is one."""
        if _shape(tuple(s * v[j] for j, s in m) for v in nums) != targets[len(m)]:
            return None
        if len(m) == d:
            return m
        for c in options[len(m)]:
            if all(c[0] != j for j, _ in m) and (found := complete(m + (c,))):
                return found
        return None

    identity = tuple((i, 1) for i in range(d))
    levels = [[found for c in options[k] if c[0] >= k and (found := complete(identity[:k] + (c,)))]
              for k in range(d)]
    return levels + [[identity, tuple((i, -1) for i in range(d))]]


def _orbit(t: tuple[int, ...], levels: list[list[SignedPermutation]]) -> set[tuple[int, ...]]:
    """The images of t under the products of one element per level."""
    orbit = {t}
    for level in levels:
        orbit = {tuple(s * u[j] for j, s in m) for u in orbit for m in level}
    return orbit


def _interior_translates(diff: Polytope):
    """The integer points strictly inside the full-dimensional `diff`, in
    lexicographic order, fiber by fiber: each prefix of the first d - 1
    coordinates strictly inside the bounding box carries ``b - a . prefix``
    for every integer row of `diff`, and the last coordinate runs over the
    range where ``a . t < b`` holds for all of them."""
    _, rows = diff.integer_description()
    lo, hi = diff.integer_box()
    den = diff.denominator
    ranges = [range(x // den + 1, -(-y // den)) for x, y in zip(lo, hi)]
    cols = list(zip(*(a for a, _ in rows)))

    def fibers(prefix: tuple[int, ...], rest: list[int]):
        k = len(prefix)
        if k < len(ranges) - 1:
            for x in ranges[k]:
                yield from fibers(prefix + (x,), [r - c * x for r, c in zip(rest, cols[k])])
            return
        start, stop = ranges[k].start, ranges[k].stop
        for r, c in zip(rest, cols[k]):
            if c > 0:  # c x < r
                stop = min(stop, (r - 1) // c + 1)
            elif c < 0:
                start = max(start, r // c + 1)
            elif r <= 0:
                return
        for x in range(start, stop):
            yield prefix + (x,)

    return fibers((), [b for _, b in rows])


def exact_covariance(p: Polytope, q: Polytope) -> Fraction:
    """cov of the counts of p and q under one common shift, via the lattice
    sum of intersection volumes over the interior of the difference body
    p - q.  An integer t has a full-dimensional cap p meet (q + t) exactly
    when it lies strictly inside p - q, so only those translates are
    clipped, each cap being p clipped by q's integer rows moved by t,
    ``a . x <= b + a . t``.  A cap that turns flat on the way is a kernel
    fault and raises InvariantViolation.

    For the self-covariance the sum runs over the orbits of the group G of
    signed permutations M with M p a translate p - c of p, closed under
    x -> -x: then p meet (p + M t) = M(p meet (p + t)) + c and
    p meet (p - t) = (p meet (p + t)) - t have the cap's volume, and p - p
    is G-invariant.  The first translate of each orbit reached in
    lexicographic order adds |orbit| times its cap; the orbits must cover
    the interior translates exactly once, or InvariantViolation is raised.
    For p != q, G holds the identity alone.
    """
    if not isinstance(p, Polytope) or not isinstance(q, Polytope):
        raise DegenerateInput("covariance is defined for single polytopes")
    if p.dim != q.dim:
        raise DegenerateInput("covariance requires equal ambient dimensions")
    _require_full_dim(p, "exact_covariance")
    _require_full_dim(q, "exact_covariance")
    levels = _symmetries(p) if p == q else []
    _, rows = q.integer_description()
    second, seen, inside, covered = ZERO, set(), 0, 0
    for t in _interior_translates(minkowski_sum(p, q.negated())):
        inside += 1
        if t in seen:
            seen.remove(t)  # each translate is reached once
            continue
        orbit = _orbit(t, levels)
        covered += len(orbit)
        seen |= orbit - {t}
        cap = p
        # gcd(a, b + a . t) = gcd(a, b) = 1: the moved row stays primitive
        for a, b in rows:
            cap = clip(cap, HalfSpace._from_ints(a, b + sum(map(mul, a, t))))
            if not cap.is_full_dim:
                raise InvariantViolation(
                    f"cap at translate {list(t)} inside the difference body turned flat")
        second += len(orbit) * cap.volume()
    if covered != inside:
        raise InvariantViolation(
            f"symmetry orbits cover {covered} translates, but {inside} lie inside "
            "the difference body")
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
    freqs: Counter = Counter()
    redraws = 0
    for _, (counts,), rejected in generic_draws(ShiftStream(body.dim, seed), [body], samples):
        freqs.update(counts)
        redraws += sum(rejected)
    return CountDistribution(
        kind="empirical",
        freqs=dict(sorted(freqs.items())),
        samples=samples,
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
