"""Mechanical checks of the count identities, constancy claims and
counterexamples, all in exact arithmetic.

One table, `_TAGS`, is the only code that knows a tag: each row holds the
tag's checker with its variant bound, its default sizes, its quick sizes
and, for the two constancy tags, the check of an input body.  A checker
draws seeded instances from the construction catalog and reports pass/fail
with explicit witnesses.  A sampled identity is a list of linear relations
among the counts of a list of bodies at common generic shifts, checked by
one loop (`_relations`); a value that must stay constant across shifts is
collected by another (`_observed`); the other tags compare exact
distributions or variances.  Counterexample tags are inverted: they
*assert* failure, so a regression that silently "fixes" an impossible
identity is caught.

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
from functools import partial, reduce
from operator import add
from typing import Callable, NamedTuple, Optional

from . import catalog
from .counting import (DYADIC_BITS, ShiftStream, ZonotopeSpec, generic_draws, zonotope_constant,
                       zonotope_polytope)
from .distributions import exact_distribution, exact_variance
from .errors import DegenerateInput, InvariantViolation, UnknownIdentity
from .geometry import (
    Polytope,
    affine_image,
    dilate,
    minkowski_sum,
    segment,
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
        shift = _fmt_shift(shift) if shift is not None else None
        out.append(Witness(instance, shift, str(lhs), str(rhs)))


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


def _cross_4d(count: int, seed: int):
    """The one 4-D instance; it draws nothing."""
    return [("cross-4d", catalog.cross_polytope(4))]


def _sl_bodies(seed: int):
    return [("simplex-2", catalog.standard_simplex(2)),
            ("poly2", catalog.random_lattice_polytope(2, 5, 2, seed + 17)),
            ("simplex-3", catalog.standard_simplex(3))]


def _sl_images(label: str, body: Polytope, count: int, seed: int):
    d = body.dim
    return [
        (f"{label} A#{i}", affine_image(
            body, catalog.random_unimodular(d, seed + 1000 * d + i).matrix, zero_vec(d)))
        for i in range(count)
    ]


def _negated_image(label: str, body: Polytope, count: int, seed: int):
    """The one image -body; it draws nothing."""
    return [(f"{label} negated", body.negated())]


# ---------------------------------------------------------------------------
# count relations at common generic shifts; a term (c, i) is c times the
# count of body i


def _column(terms, block, constant: int = 0) -> list:
    """``constant + sum c * counts of body i`` over `terms`, at each draw of
    a block of counts."""
    cols = [block[i] if c == 1 else map(c.__mul__, block[i]) for c, i in terms]
    return list(reduce(partial(map, add), cols, [constant] * len(block[0])))


def _relations(wit: list, label: str, bodies: list, seed: int, shifts: int, relations: list):
    """Check every relation ``(suffix, lhs, rhs, constant)``, that is
    ``sum lhs == sum rhs + constant``, at the first `shifts` draws of one
    stream generic for every body; a violation is a witness ``label + suffix``.
    Each side of a relation is one column over a block of draws, and only
    where two columns differ are the draws walked, so that the witnesses
    come shift by shift, the relations in order at each shift."""
    for nums, block, _ in generic_draws(ShiftStream(bodies[0].dim, seed), bodies, shifts):
        bad = []
        for r, (suffix, lhs, rhs, constant) in enumerate(relations):
            left, right = _column(lhs, block), _column(rhs, block, constant)
            if left != right:
                bad += [(j, r, x, y) for j, (x, y) in enumerate(zip(left, right)) if x != y]
        for j, r, x, y in sorted(bad):
            _witness(wit, label + relations[r][0], nums[j], x, y)


def _observed(bodies: list, seed: int, shifts: int, terms) -> dict:
    """Each value the combination `terms` takes at the first `shifts` draws of
    one stream generic for every body, with the draw where it first appears."""
    seen: dict = {}
    for nums, block, _ in generic_draws(ShiftStream(bodies[0].dim, seed), bodies, shifts):
        # a draw is decoded only where its value first appears
        for j, value in enumerate(_column(terms, block)):
            if value not in seen:
                seen[value] = nums[j]
    return seen


# ---------------------------------------------------------------------------
# checkers: each takes its table row's variant, then seed and the sizes the
# row names (and an input body where the row takes one), and returns
# (instances, shifts per instance, witnesses, notes)


def _check_scaling(kind: str, instances: int, shifts: int, n_max: int, seed: int):
    wit: list[Witness] = []
    notes: list[str] = []
    cases = _scaling_instances(kind, instances, seed)
    for idx, (label, base) in enumerate(cases):
        d = base.dim
        dec = catalog.scaling_decomposition(base)
        # bodies: the parts of the pieces P_1..P_d, piece by piece, then
        # n * base for n = 1..n_max; a piece counts the sum of its parts
        piece_of = [k for k, piece in enumerate(dec.pieces) for _ in piece]
        bodies = [part for piece in dec.pieces for part in piece]
        m = len(bodies)
        relations = [(" piece-sum", [(1, j) for j in range(m)], [], dec.constant_sum)]
        relations += [
            (f" n={n}", [(1, m + n - 1)],
             [(catalog.piece_multiplicity(k + 1, n, d), j) for j, k in enumerate(piece_of)], 0)
            for n in range(1, n_max + 1)
        ]
        bodies += [dilate(base, n) for n in range(1, n_max + 1)]
        _relations(wit, label, bodies, seed + 9973 * idx + 104729 * d, shifts, relations)
        notes.append(f"{label}: piece-count sum constant {dec.constant_sum}")
    return len(cases), shifts, wit, notes


def _check_corollary_3d(instances: int, shifts: int, n_max: int, seed: int):
    n_values = range(2, n_max + 1)
    wit: list[Witness] = []
    notes: list[str] = []
    for i in range(instances):
        base = catalog.random_lattice_polytope(3, 6, 2, seed + 31 * i)
        vol6 = 6 * base.volume()
        label = f"poly3d-#{i}"
        # bodies: P, -P, then n * P for n = 2..n_max
        bodies = [base, base.negated()] + [dilate(base, n) for n in n_values]
        relations = [
            (f" n={n}", [(1, 2 + j)], [(math.comb(n + 1, 2), 0), (-math.comb(n, 2), 1)],
             math.comb(n + 1, 3) * vol6)
            for j, n in enumerate(n_values)
        ]
        _relations(wit, label, bodies, seed + 7 * i, shifts, relations)
        notes.append(f"{label}: constant term factor 6*vol = {vol6}")
    return instances, shifts, wit, notes


def _check_symmetric_scaling(instances_of, exponent: int, instances: int, n_max: int, seed: int):
    wit: list[Witness] = []
    notes: list[str] = []
    cases = instances_of(instances, seed)
    for label, body in cases:
        base_var = exact_variance(body).variance
        for n in range(1, n_max + 1):
            lhs = exact_variance(dilate(body, n)).variance
            rhs = Fraction(n) ** exponent * base_var
            if lhs != rhs:
                _witness(wit, f"{label} n={n}", None, lhs, rhs)
        notes.append(f"{label}: base variance {base_var}")
    return len(cases), 0, wit, notes


def _zonotope_input(planar: bool, body) -> Optional[str]:
    """What keeps `body` from being a constancy tag's input, or None."""
    if not isinstance(body, ZonotopeSpec):
        return "needs a zonotope input"
    if planar and body.dim != 2:
        return f"needs a planar zonotope, got dim {body.dim}"
    return None


def _check_constancy(dims: tuple[int, ...], instances: int, shifts: int, seed: int,
                     body: Optional[ZonotopeSpec] = None):
    wit: list[Witness] = []
    notes: list[str] = []
    if body is not None:
        cases = [("input-zonotope", body)]
    else:
        cases = [
            (f"zonotope-d{d}-#{i}", catalog.random_zonotope(d, 3 + (i % 3), 3, seed + 100 * d + i))
            for d in dims
            for i in range(instances)
        ]
    for idx, (label, spec) in enumerate(cases):
        poly = zonotope_polytope(spec)
        constant = zonotope_constant(spec)
        vol = poly.volume()
        if vol != constant:
            _witness(wit, f"{label} volume", None, vol, constant)
        _relations(wit, label, [poly], seed + 23 * idx + 1, shifts, [("", [(1, 0)], [], constant)])
        notes.append(f"{label}: constant {constant}")
    return len(cases), shifts, wit, notes


def _check_invariance(images, instances: int, seed: int):
    wit: list[Witness] = []
    notes: list[str] = []
    checked = 0
    for label, body in _sl_bodies(seed):
        base_var = exact_variance(body).variance
        base_dist = exact_distribution(body)
        for img_label, img in images(label, body, instances, seed):
            checked += 1
            var = exact_variance(img).variance
            if var != base_var:
                _witness(wit, f"{img_label} variance", None, var, base_var)
            dist = exact_distribution(img)
            if dist != base_dist:
                _witness(wit, f"{img_label} distribution", None, _fmt_law(dist),
                         _fmt_law(base_dist))
        notes.append(f"{label}: variance {base_var}")
    return checked, 0, wit, notes


_DELTA = [(1, 2), (-1, 0), (-1, 1)]  # count(P + Q) - count(P) - count(Q) of (P, Q, P + Q)


def _minkowski_deltas(wit: list, label: str, trio: list, shifts: int, seed: int) -> list:
    """The sorted values of count(P + Q) - count(P) - count(Q) across generic
    shifts; more than one is a witness."""
    seen = _observed(trio, seed, shifts, _DELTA)
    deltas = sorted(seen)
    if len(deltas) > 1:
        _witness(wit, label, seen[deltas[-1]], deltas[-1], deltas[0])
    return deltas


def _check_minkowski_2d(instances: int, shifts: int, seed: int):
    wit: list[Witness] = []
    notes: list[str] = []
    for i in range(instances):
        p = catalog.random_lattice_polytope(2, 4, 2, seed + 11 * i)
        q = catalog.random_lattice_polytope(2, 4, 2, seed + 11 * i + 5)
        deltas = _minkowski_deltas(wit, f"pair-#{i}", [p, q, minkowski_sum(p, q)], shifts, seed + i)
        notes.append(f"pair-#{i}: delta {deltas}")
    return instances, shifts, wit, notes


def _is_symmetric_law(dist) -> bool:
    """Whether the law is symmetric about its mean: m and 2 * mean - m are
    equally likely for every atom m (so 2 * mean is an integer)."""
    twice_mean = 2 * dist.mean()
    return twice_mean.denominator == 1 and all(
        dist.probability(m) == dist.probability(int(twice_mean) - m) for m in dist.support()
    )


def _check_symmetric_distribution_2d(instances: int, seed: int):
    wit: list[Witness] = []
    notes: list[str] = []
    cases = [("unit-right-triangle", catalog.standard_simplex(2))] + [
        (f"polygon-#{i}", catalog.random_lattice_polytope(2, 5, 2, seed + 13 * i))
        for i in range(instances - 1)
    ]
    for label, poly in cases:
        dist = exact_distribution(poly)
        if not _is_symmetric_law(dist):
            _witness(wit, label, None, _fmt_law(dist), f"symmetric about mean {dist.mean()}")
        notes.append(f"{label}: support {list(dist.support())}")
    return len(cases), 0, wit, notes


def _check_counterexample_slab(shifts: int, seed: int):
    wit: list[Witness] = []
    notes: list[str] = []
    body = catalog.central_slab(3)
    if body.negated().translated((1, 1, 1)) != body:  # symmetric about (1/2, 1/2, 1/2)
        raise InvariantViolation("central slab lost its central symmetry")
    dist = exact_distribution(body)
    support = dist.support()
    if len(support) > 1:
        _witness(wit, "central-slab-3d count atoms", None,
                 f"P({support[0]})={dist.probability(support[0])}",
                 f"P({support[-1]})={dist.probability(support[-1])}")
    notes.append(f"distribution {_fmt_law(dist)}")
    seen = _observed([body], seed, shifts, [(1, 0)])
    notes.append(f"observed counts {sorted(list(seen)[:2])}")
    return 1, shifts, wit, notes


def _check_counterexample_minkowski(shifts: int, seed: int):
    wit: list[Witness] = []
    base = catalog.central_slab(3)
    trio = [catalog.embed_with_zero_last(base), segment(zero_vec(4), (0, 0, 0, 1)),
            catalog.prism_over_embedded(base)]
    deltas = _minkowski_deltas(wit, "prism-over-slab", trio, shifts, seed)
    return 1, shifts, wit, [f"summand counts are almost surely 0; deltas {deltas}"]


def _check_counterexample_symmetry(seed: int):
    """The law of the corner simplex; it draws nothing."""
    wit: list[Witness] = []
    dist = exact_distribution(catalog.standard_simplex(3))
    if not _is_symmetric_law(dist):
        _witness(wit, "corner-simplex-3d", None, f"distribution {_fmt_law(dist)}",
                 f"symmetric about mean {dist.mean()}")
    return 1, 0, wit, [f"distribution {_fmt_law(dist)}"]


class _Tag(NamedTuple):
    check: Callable  # the checker with its variant bound
    sizes: dict  # the sizes `check` takes, at their defaults
    quick: dict = {}  # the sizes that differ in a fast sanity pass
    input: Optional[Callable] = None  # what is wrong with an input body; None: takes none
    least: dict = {}  # the smallest sizes that check something, where not `_LEAST`'s


# the smallest sizes that check something: a zero size checks no instance,
# no shift or no dilate
_LEAST = dict(instances=1, shifts=1, n_max=1)


# the only place that knows a tag, in the order the battery runs
_TAGS = {
    "scaling-simplex": _Tag(partial(_check_scaling, "simplex"),
                            dict(instances=5, shifts=200, n_max=5),
                            dict(instances=2, shifts=40, n_max=3)),
    "scaling-polyhedron": _Tag(partial(_check_scaling, "polyhedron"),
                               dict(instances=3, shifts=200, n_max=5),
                               dict(instances=1, shifts=40, n_max=3)),
    "corollary-3d": _Tag(_check_corollary_3d, dict(instances=5, shifts=100, n_max=3),
                         dict(instances=2, shifts=40), least=dict(n_max=2)),  # relations n >= 2
    "corollary-3d-symmetric": _Tag(partial(_check_symmetric_scaling, _symmetric_3d_instances, 2),
                                   dict(instances=2, n_max=3)),
    # one instance: cross_polytope(4) is drawn from nothing, so no size names it
    "corollary-4d-symmetric": _Tag(partial(_check_symmetric_scaling, _cross_4d, 4, instances=1),
                                   dict(n_max=2)),
    "zonotope-constancy": _Tag(partial(_check_constancy, (2, 3)), dict(instances=5, shifts=100),
                               input=partial(_zonotope_input, False)),
    "sl-invariance": _Tag(partial(_check_invariance, _sl_images), dict(instances=20),
                          dict(instances=5)),
    # one image per body, -P, so no size names it
    "negation-invariance": _Tag(partial(_check_invariance, _negated_image, instances=1), {}),
    "minkowski-2d": _Tag(_check_minkowski_2d, dict(instances=5, shifts=100)),
    "symmetric-distribution-2d": _Tag(_check_symmetric_distribution_2d, dict(instances=6)),
    "centrally-symmetric-2d-constancy": _Tag(partial(_check_constancy, (2,)),
                                             dict(instances=5, shifts=100),
                                             input=partial(_zonotope_input, True)),
    "counterexample-slab": _Tag(_check_counterexample_slab, dict(shifts=100)),
    # a witness is two shifts with different deltas; with fewer the report
    # could only claim a failure to find what was never sought
    "counterexample-minkowski": _Tag(_check_counterexample_minkowski, dict(shifts=100),
                                     least=dict(shifts=2)),
    "counterexample-symmetry": _Tag(_check_counterexample_symmetry, {}),
}

IDENTITY_TAGS = tuple(_TAGS)


def quick_sizes(kind: str) -> dict:
    """The `verify` keywords of tag `kind` for a fast sanity pass."""
    return dict(_TAGS[kind].quick)


def verify(kind: str, *, instances: Optional[int] = None, shifts: Optional[int] = None,
           n_max: Optional[int] = None, seed: int = 0, body=None) -> VerificationReport:
    """Run one identity check and return its report.

    The tag's row in the table gives its checker and default sizes.
    Identity tags pass when no witness violates them; counterexample tags
    require at least one violating witness (expected-failure-confirmed).
    A negative size or seed, a size that the row does not name (the tag
    would ignore it), a size that would check nothing (zero instances,
    shifts or dilates, fewer than two shifts for counterexample-minkowski,
    whose witness compares two, or n_max < 2 for corollary-3d, whose
    relations start at n = 2), or a `body` that the row does not take (only
    the constancy tags take one, a zonotope spec, planar for the 2-D tag)
    raises DegenerateInput.
    """
    if kind not in _TAGS:
        raise UnknownIdentity(f"unknown identity tag: {kind!r}")
    if seed < 0:
        raise DegenerateInput(f"seed must be nonnegative, got {seed}")
    given = dict(instances=instances, shifts=shifts, n_max=n_max)
    row = _TAGS[kind]
    unused = [name for name, value in given.items() if value is not None and name not in row.sizes]
    if unused:
        raise DegenerateInput(f"identity {kind!r} takes no {', '.join(unused)}")
    sizes = {k: v if given[k] is None else given[k] for k, v in row.sizes.items()}
    for name, value in sizes.items():
        least = row.least.get(name, _LEAST[name])
        if value < least:
            raise DegenerateInput(f"identity {kind!r} with {name} {value} checks nothing; "
                                  f"it needs {name} >= {least}")
    if body is not None:
        problem = "takes no input body" if row.input is None else row.input(body)
        if problem:
            raise DegenerateInput(f"identity {kind!r} {problem}")
        sizes["body"] = body
    n_inst, n_shifts, witnesses, notes = row.check(seed=seed, **sizes)
    if kind.startswith("counterexample-"):
        status = EXPECTED_FAILURE if witnesses else FAIL
    else:
        status = PASS if not witnesses else FAIL
    return VerificationReport(kind, n_inst, n_shifts, status, witnesses, notes)


# ---------------------------------------------------------------------------
# Reeve tetrahedron audit


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
    if max_distribution_n < 0:
        raise DegenerateInput(
            f"reeve-audit needs max_distribution_n >= 0, got {max_distribution_n}")
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
