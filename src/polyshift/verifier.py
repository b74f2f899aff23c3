"""Mechanical checks of the count identities, constancy claims and
counterexamples, all in exact arithmetic.

Each identity tag draws seeded instances from the construction catalog,
evaluates both sides of its identity at generic shifts (or compares exact
distributions / variances) and reports pass/fail with explicit witnesses.
Counterexample tags are inverted: they *assert* failure, so a regression
that silently "fixes" an impossible identity is caught.

The Reeve tetrahedron audit computes the variance four ways: a candidate
closed form, the per-layer indicator calculus, the intersection lattice
sum, and (for small n) the exact distribution.  The last three must agree
exactly; the closed form is only compared against, never trusted, because
the layer calculus itself contradicts it for n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Optional

from . import catalog
from .counting import (DYADIC_BITS, ShiftStream, ZonotopeSpec, generic_draws, zonotope_constant,
                       zonotope_polytope)
from .distributions import exact_distribution, exact_variance
from .errors import DegenerateInput, UnknownIdentity
from .geometry import (
    Body,
    Polytope,
    PolytopeUnion,
    affine_image,
    dilate,
    minkowski_sum,
    segment,
    volume,
    zero_vec,
)

PASS = "pass"
FAIL = "fail"
EXPECTED_FAILURE = "expected-failure-confirmed"


@dataclass(frozen=True)
class Witness:
    instance: str
    shift: Optional[tuple[str, ...]]
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "shift": list(self.shift) if self.shift is not None else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class VerificationReport:
    identity: str
    instances: int
    shifts_per_instance: int
    status: str
    witnesses: list[Witness] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "instances": self.instances,
            "shiftsPerInstance": self.shifts_per_instance,
            "status": self.status,
            "witnesses": [w.to_json() for w in self.witnesses],
            "notes": self.notes,
        }


_MAX_WITNESSES = 16


def _fmt_shift(nums) -> tuple[str, ...]:
    """A stream shift, given by its numerators over ``2**DYADIC_BITS``."""
    return tuple(str(Fraction(x, 1 << DYADIC_BITS)) for x in nums)


def _fmt_law(dist) -> str:
    return "{" + ", ".join(
        f"{m}: {dist.probability(m)}" for m in dist.support()
    ) + "}"


def _witness(out: list[Witness], instance: str, shift, lhs, rhs):
    if len(out) < _MAX_WITNESSES:
        out.append(
            Witness(
                instance,
                _fmt_shift(shift) if shift is not None else None,
                str(lhs),
                str(rhs),
            )
        )


# ---------------------------------------------------------------------------
# instance generators


def _scaling_instances(kind: str, count: int, seed: int):
    out = []
    for d in (2, 3):
        for i in range(count):
            if kind == "simplex":
                base = catalog.random_lattice_simplex(d, 3, seed + 100 * d + i)
            else:
                base = catalog.random_lattice_polytope(d, d + 3, 3, seed + 100 * d + i)
            out.append((f"{kind}-d{d}-#{i}", base))
    return out


def _symmetric_3d_instances(count: int, seed: int):
    out = [("octahedron", catalog.cross_polytope(3))]
    for i in range(count - 1):
        out.append(
            (f"sym3d-#{i}", catalog.centrally_symmetric_polytope(3, 4, 1, seed + i))
        )
    return out


def _sl_bodies(d: int, seed: int):
    if d == 2:
        return [
            ("simplex-2", catalog.standard_simplex(2)),
            ("poly2", catalog.random_lattice_polytope(2, 5, 2, seed + 17)),
        ]
    return [("simplex-3", catalog.standard_simplex(3))]


# ---------------------------------------------------------------------------
# per-tag checkers: each takes the keywords it needs of tag, instances,
# shifts, n_max, seed and body, and returns (instances, shifts, witnesses, notes)


def _check_scaling(tag: str, instances: int, shifts: int, n_max: int, seed: int, **_):
    kind = "simplex" if tag == "scaling-simplex" else "polyhedron"
    wit: list[Witness] = []
    notes: list[str] = []
    cases = _scaling_instances(kind, instances, seed)
    for idx, (label, base) in enumerate(cases):
        d = base.dim
        dec = catalog.scaling_decomposition(
            base, "simplex" if kind == "simplex" else "polyhedron"
        )
        dilates = [dilate(base, n) for n in range(1, n_max + 1)]
        bodies: list[Body] = list(dec.pieces) + dilates
        stream = ShiftStream(d, seed + 9973 * idx + 104729 * d)
        for nums, block, _ in generic_draws(stream, bodies, shifts):
            for shift, counts in zip(nums, zip(*block)):
                piece_counts = counts[: d]
                if sum(piece_counts) != dec.constant_sum:
                    _witness(wit, f"{label} piece-sum", shift,
                             sum(piece_counts), dec.constant_sum)
                for n in range(1, n_max + 1):
                    lhs = counts[d + n - 1]
                    rhs = sum(
                        dec.multiplicity(k, n) * piece_counts[k - 1]
                        for k in range(1, d + 1)
                    )
                    if lhs != rhs:
                        _witness(wit, f"{label} n={n}", shift, lhs, rhs)
        notes.append(f"{label}: piece-count sum constant {dec.constant_sum}")
    return len(cases), shifts, wit, notes


def _check_corollary_3d(instances: int, shifts: int, n_max: int, seed: int, **_):
    n_values = range(2, n_max + 1)
    wit: list[Witness] = []
    notes: list[str] = []
    for i in range(instances):
        base = catalog.random_lattice_polytope(3, 6, 2, seed + 31 * i)
        neg = base.negated()
        vol6 = 6 * volume(base)
        label = f"poly3d-#{i}"
        bodies: list[Body] = [base, neg] + [dilate(base, n) for n in n_values]
        stream = ShiftStream(3, seed + 7 * i)
        for nums, block, _ in generic_draws(stream, bodies, shifts):
            for shift, counts in zip(nums, zip(*block)):
                c_p, c_m = counts[0], counts[1]
                for j, n in enumerate(n_values):
                    lhs = counts[2 + j]
                    rhs = (
                        math.comb(n + 1, 2) * c_p
                        - math.comb(n, 2) * c_m
                        + math.comb(n + 1, 3) * vol6
                    )
                    if lhs != rhs:
                        _witness(wit, f"{label} n={n}", shift, lhs, rhs)
        notes.append(f"{label}: constant term factor 6*vol = {vol6}")
    return instances, shifts, wit, notes


def _check_symmetric_scaling(tag: str, instances: int, n_max: int, seed: int, **_):
    wit: list[Witness] = []
    notes: list[str] = []
    if tag == "corollary-3d-symmetric":
        cases = _symmetric_3d_instances(instances, seed)
        exponent = 2
        n_values = list(range(1, n_max + 1))
    else:
        cases = [("cross-4d", catalog.cross_polytope(4))]
        exponent = 4
        n_values = [2]
    for label, body in cases:
        base_var = exact_variance(body).variance
        for n in n_values:
            lhs = exact_variance(dilate(body, n)).variance
            rhs = Fraction(n) ** exponent * base_var
            if lhs != rhs:
                _witness(wit, f"{label} n={n}", None, lhs, rhs)
        notes.append(f"{label}: base variance {base_var}")
    return len(cases), 0, wit, notes


def _check_constancy(tag: str, instances: int, shifts: int, seed: int,
                     body: Optional[ZonotopeSpec], **_):
    wit: list[Witness] = []
    notes: list[str] = []
    cases: list[tuple[str, ZonotopeSpec]] = []
    if body is not None:
        cases.append(("input-zonotope", body))
    else:
        dims = (2,) if tag == "centrally-symmetric-2d-constancy" else (2, 3)
        for d in dims:
            for i in range(instances):
                gens = 3 + (i % 3)
                cases.append(
                    (
                        f"zonotope-d{d}-#{i}",
                        catalog.random_zonotope(d, gens, 3, seed + 100 * d + i),
                    )
                )
    for idx, (label, spec) in enumerate(cases):
        poly = zonotope_polytope(spec)
        constant = zonotope_constant(spec)
        vol = volume(poly)
        if vol != constant:
            _witness(wit, f"{label} volume", None, vol, constant)
        stream = ShiftStream(spec.dim, seed + 23 * idx + 1)
        for nums, (counts,), _ in generic_draws(stream, [poly], shifts):
            for shift, count in zip(nums, counts):
                if count != constant:
                    _witness(wit, label, shift, count, constant)
        notes.append(f"{label}: constant {constant}")
    return len(cases), shifts, wit, notes


def _check_invariance(tag: str, instances: int, seed: int, **_):
    wit: list[Witness] = []
    notes: list[str] = []
    checked = 0
    for d in (2, 3):
        for label, body in _sl_bodies(d, seed):
            base_var = exact_variance(body).variance
            base_dist = exact_distribution(body)
            images = []
            if tag == "sl-invariance":
                for i in range(instances):
                    u = catalog.random_unimodular(
                        d, seed + 1000 * d + i, steps=6, max_entry=3
                    )
                    images.append(
                        (f"{label} A#{i}", affine_image(body, u.matrix, zero_vec(d)))
                    )
            else:
                images.append((f"{label} negated", body.negated()))
            for img_label, img in images:
                checked += 1
                var = exact_variance(img).variance
                if var != base_var:
                    _witness(wit, f"{img_label} variance", None, var, base_var)
                dist = exact_distribution(img)
                if dist != base_dist:
                    _witness(
                        wit,
                        f"{img_label} distribution",
                        None,
                        _fmt_law(dist),
                        _fmt_law(base_dist),
                    )
            notes.append(f"{label}: variance {base_var}")
    return checked, 0, wit, notes


def _minkowski_delta_witnesses(label, trio, shifts, seed, wit):
    """Constancy of count(P+Q) - count(P) - count(Q) across generic shifts;
    returns the set of observed differences."""
    p, q, s = trio
    stream = ShiftStream(p.dim, seed)
    seen: dict[int, object] = {}
    for nums, (cp, cq, cs), _ in generic_draws(stream, [p, q, s], shifts):
        for shift, delta in zip(nums, map(sub, cs, map(add, cp, cq))):
            seen.setdefault(delta, shift)
    if len(seen) > 1:
        deltas = sorted(seen)
        _witness(wit, label, seen[deltas[-1]], deltas[-1], deltas[0])
    return set(seen)


def _check_minkowski_2d(instances: int, shifts: int, seed: int, **_):
    wit: list[Witness] = []
    notes: list[str] = []
    for i in range(instances):
        p = catalog.random_lattice_polytope(2, 4, 2, seed + 11 * i)
        q = catalog.random_lattice_polytope(2, 4, 2, seed + 11 * i + 5)
        s = minkowski_sum(p, q)
        deltas = _minkowski_delta_witnesses(
            f"pair-#{i}", (p, q, s), shifts, seed + i, wit
        )
        notes.append(f"pair-#{i}: delta {sorted(deltas)}")
    return instances, shifts, wit, notes


def _is_symmetric_law(dist) -> bool:
    """Whether the law is symmetric about its mean: m and 2 * mean - m are
    equally likely for every atom m (so 2 * mean is an integer)."""
    twice_mean = 2 * dist.mean()
    return twice_mean.denominator == 1 and all(
        dist.probability(m) == dist.probability(int(twice_mean) - m) for m in dist.support()
    )


def _check_symmetric_distribution_2d(instances: int, seed: int, **_):
    wit: list[Witness] = []
    notes: list[str] = []
    cases = [("unit-right-triangle", catalog.standard_simplex(2))]
    for i in range(instances - 1):
        cases.append(
            (f"polygon-#{i}", catalog.random_lattice_polytope(2, 5, 2, seed + 13 * i))
        )
    for label, poly in cases:
        dist = exact_distribution(poly)
        if not _is_symmetric_law(dist):
            _witness(wit, label, None, _fmt_law(dist), f"symmetric about mean {dist.mean()}")
        notes.append(f"{label}: support {list(dist.support())}")
    return len(cases), 0, wit, notes


def _check_counterexample_slab(shifts: int, seed: int, **_):
    wit: list[Witness] = []
    notes: list[str] = []
    body = catalog.central_slab(3)
    center = tuple(Fraction(1, 2) for _ in range(3))
    sym = body.negated().translated(tuple(2 * c for c in center))
    if sym != body:
        raise DegenerateInput("central slab lost its central symmetry")
    dist = exact_distribution(body)
    support = dist.support()
    if len(support) > 1:
        _witness(
            wit,
            "central-slab-3d count atoms",
            None,
            f"P({support[0]})={dist.probability(support[0])}",
            f"P({support[-1]})={dist.probability(support[-1])}",
        )
    notes.append(f"distribution {_fmt_law(dist)}")
    stream = ShiftStream(3, seed)
    seen: dict[int, None] = {}
    for _, (counts,), _ in generic_draws(stream, [body], shifts):
        seen.update(dict.fromkeys(counts))
        if len(seen) > 1:
            break
    notes.append(f"observed counts {sorted(list(seen)[:2])}")
    return 1, shifts, wit, notes


def _check_counterexample_minkowski(shifts: int, seed: int, **_):
    if shifts < 2:
        # a witness is two shifts with different deltas; with fewer the
        # report could only claim a failure to find what was never sought
        raise DegenerateInput("counterexample-minkowski needs at least two shifts")
    wit: list[Witness] = []
    notes: list[str] = []
    base = catalog.central_slab(3)
    flat = catalog.embed_with_zero_last(base)
    e = segment(zero_vec(4), (0, 0, 0, 1))
    prism = catalog.prism_over_embedded(base)
    deltas = _minkowski_delta_witnesses(
        "prism-over-slab", (flat, e, prism), shifts, seed, wit
    )
    notes.append(f"summand counts are almost surely 0; deltas {sorted(deltas)}")
    return 1, shifts, wit, notes


def _check_counterexample_symmetry(**_):
    wit: list[Witness] = []
    dist = exact_distribution(catalog.standard_simplex(3))
    if not _is_symmetric_law(dist):
        _witness(wit, "corner-simplex-3d", None, f"distribution {_fmt_law(dist)}",
                 f"symmetric about mean {dist.mean()}")
    return 1, 0, wit, [f"distribution {_fmt_law(dist)}"]


# tag -> (checker, (instances, shifts per instance, max dilation factor)),
# in the order the battery runs; the defaults apply where verify() gets None
_CHECKERS = {
    "scaling-simplex": (_check_scaling, (5, 200, 5)),
    "scaling-polyhedron": (_check_scaling, (3, 200, 5)),
    "corollary-3d": (_check_corollary_3d, (5, 100, 3)),
    "corollary-3d-symmetric": (_check_symmetric_scaling, (2, 0, 3)),
    "corollary-4d-symmetric": (_check_symmetric_scaling, (1, 0, 2)),
    "zonotope-constancy": (_check_constancy, (5, 100, 0)),
    "sl-invariance": (_check_invariance, (20, 0, 0)),
    "negation-invariance": (_check_invariance, (6, 0, 0)),
    "minkowski-2d": (_check_minkowski_2d, (5, 100, 0)),
    "symmetric-distribution-2d": (_check_symmetric_distribution_2d, (6, 0, 0)),
    "centrally-symmetric-2d-constancy": (_check_constancy, (5, 100, 0)),
    "counterexample-slab": (_check_counterexample_slab, (1, 100, 0)),
    "counterexample-minkowski": (_check_counterexample_minkowski, (1, 100, 0)),
    "counterexample-symmetry": (_check_counterexample_symmetry, (1, 0, 0)),
}

IDENTITY_TAGS = tuple(_CHECKERS)


def verify(
    kind: str,
    *,
    instances: Optional[int] = None,
    shifts: Optional[int] = None,
    n_max: Optional[int] = None,
    seed: int = 0,
    body=None,
) -> VerificationReport:
    """Run one identity check and return its report.

    Identity tags pass when no witness violates them; counterexample tags
    require at least one violating witness (expected-failure-confirmed).
    A negative size or seed, fewer than two shifts for counterexample-minkowski
    (its witness compares two), or a `body` on a tag other than the two
    constancy tags or other than a zonotope spec, raises DegenerateInput.
    """
    if kind not in _CHECKERS:
        raise UnknownIdentity(f"unknown identity tag: {kind!r}")
    for name, value in (("instances", instances), ("shifts", shifts), ("n_max", n_max),
                        ("seed", seed)):
        if value is not None and value < 0:
            raise DegenerateInput(f"{name} must be nonnegative, got {value}")
    if body is not None:
        if kind not in ("zonotope-constancy", "centrally-symmetric-2d-constancy"):
            raise DegenerateInput(f"identity {kind!r} takes no input body")
        if not isinstance(body, ZonotopeSpec):
            raise DegenerateInput(f"identity {kind!r} needs a zonotope input")
        if kind == "centrally-symmetric-2d-constancy" and body.dim != 2:
            raise DegenerateInput(f"identity {kind!r} needs a planar zonotope, got dim {body.dim}")
    checker, (d_inst, d_shifts, d_nmax) = _CHECKERS[kind]
    n_inst, n_shifts, witnesses, notes = checker(
        tag=kind,
        instances=d_inst if instances is None else instances,
        shifts=d_shifts if shifts is None else shifts,
        n_max=d_nmax if n_max is None else n_max,
        seed=seed,
        body=body,
    )
    if kind.startswith("counterexample-"):
        status = EXPECTED_FAILURE if witnesses else FAIL
    else:
        status = PASS if not witnesses else FAIL
    return VerificationReport(
        identity=kind,
        instances=n_inst,
        shifts_per_instance=n_shifts,
        status=status,
        witnesses=witnesses,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Reeve tetrahedron audit


def reeve_layer_triangle(n: int, k: int, w) -> Polytope:
    """Cross-section footprint of the height-n tetrahedron at level k for
    vertical offset w, dropped to the plane: the right triangle with legs
    from (k-w)/n to 1."""
    c = (Fraction(k) - Fraction(w)) / n
    return Polytope(2, [(c, 1), (1, c), (c, c)])


def reeve_layer_mean(n: int, k: int) -> Fraction:
    """Expected value of the level-k indicator: the integral over the
    vertical offset of the footprint area (n-k+w)^2 / (2 n^2)."""
    if not 1 <= k <= n:
        raise ValueError(f"layer index {k} outside 1..{n}")
    a = n - k
    return Fraction((a + 1) ** 3 - a**3, 6 * n * n)


def reeve_pair_expectation(n: int, k: int, l: int) -> Fraction:
    """E[I_k I_l] for layers k < l: zero when 2l > k + n (the footprints
    cannot overlap for any offset), else the offset integral of the
    overlap area (k + w + n - 2l)^2 / (2 n^2)."""
    if not (1 <= k < l <= n):
        raise ValueError(f"need 1 <= k < l <= n, got k={k}, l={l}, n={n}")
    if 2 * l > k + n:
        return Fraction(0)
    a = k - 2 * l + n
    return Fraction((a + 1) ** 3 - a**3, 6 * n * n)


@dataclass
class ReeveAudit:
    """Four independently computed variances for the height-n tetrahedron."""

    n: int
    var_closed_form: Fraction
    var_layer_oracle: Fraction
    var_intersection_engine: Fraction
    var_exact_distribution: Optional[Fraction]
    mean_table: dict[int, Fraction]
    pair_table: dict[tuple[int, int], Fraction]
    discrepancies: list[str] = field(default_factory=list)

    @property
    def oracles_agree(self) -> bool:
        ok = self.var_layer_oracle == self.var_intersection_engine
        if self.var_exact_distribution is not None:
            ok = ok and self.var_exact_distribution == self.var_layer_oracle
        return ok

    @property
    def matches_closed_form(self) -> bool:
        return self.var_layer_oracle == self.var_closed_form

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "varClosedForm": str(self.var_closed_form),
            "varLayerOracle": str(self.var_layer_oracle),
            "varIntersectionEngine": str(self.var_intersection_engine),
            "varExactDistribution": (
                str(self.var_exact_distribution)
                if self.var_exact_distribution is not None
                else None
            ),
            "meanTable": {str(k): str(v) for k, v in self.mean_table.items()},
            "pairTable": {f"{k},{l}": str(v) for (k, l), v in self.pair_table.items()},
            "oraclesAgree": self.oracles_agree,
            "matchesClosedForm": self.matches_closed_form,
            "discrepancies": self.discrepancies,
        }


def reeve_audit(n: int, max_distribution_n: int = 4) -> ReeveAudit:
    """Audit the variance of the height-n tetrahedron.

    The layer oracle expands Var = 2 sum_{k<l} E[I_k I_l] + sum E[I_k]
    - (sum E[I_k])^2, using that each layer indicator is 0/1 so its
    second moment equals its mean.  The intersection engine and, for
    n <= max_distribution_n, the exact distribution must agree with it
    exactly.  The candidate closed form (n^3 + 12n - 3)/(72n) is reported
    alongside; when it disagrees with the mutually consistent oracles a
    discrepancy record is emitted rather than either value being forced.
    """
    if n < 1:
        raise DegenerateInput(f"reeve-audit needs n >= 1, got {n}")
    closed = Fraction(n**3 + 12 * n - 3, 72 * n)
    means = {k: reeve_layer_mean(n, k) for k in range(1, n + 1)}
    pairs = {
        (k, l): reeve_pair_expectation(n, k, l)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    }
    mean_sum = sum(means.values(), Fraction(0))
    layer_var = 2 * sum(pairs.values(), Fraction(0)) + mean_sum - mean_sum**2
    body = catalog.reeve_tetrahedron(n)
    engine_var = exact_variance(body).variance
    dist_var = None
    if n <= max_distribution_n:
        dist_var = exact_distribution(body).variance()
    discrepancies = []
    if mean_sum != Fraction(n, 6):
        discrepancies.append(
            f"layer means sum to {mean_sum}, expected volume {Fraction(n, 6)}"
        )
    if layer_var != engine_var:
        discrepancies.append(
            f"layer oracle {layer_var} != intersection engine {engine_var}"
        )
    if dist_var is not None and dist_var != layer_var:
        discrepancies.append(
            f"distribution variance {dist_var} != layer oracle {layer_var}"
        )
    if layer_var != closed:
        discrepancies.append(
            f"closed form {closed} differs from the agreeing oracles "
            f"{layer_var} at n={n}"
        )
    return ReeveAudit(
        n=n,
        var_closed_form=closed,
        var_layer_oracle=layer_var,
        var_intersection_engine=engine_var,
        var_exact_distribution=dist_var,
        mean_table=means,
        pair_table=pairs,
        discrepancies=discrepancies,
    )
