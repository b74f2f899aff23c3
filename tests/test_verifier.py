"""Identity verifier: per-tag checks, witnesses, and the tetrahedron audit."""

import hashlib
import json
from fractions import Fraction

import pytest

from polyshift.errors import DegenerateInput, UnknownIdentity
from polyshift.verifier import (
    EXPECTED_FAILURE,
    FAIL,
    IDENTITY_TAGS,
    PASS,
    ReeveAudit,
    _TAGS,
    reeve_audit,
    reeve_layer_mean,
    quick_sizes,
    reeve_pair_expectation,
    verify,
)

from conftest import HEXAGON, reeve_layer_triangle

F = Fraction


# ---------------------------------------------------------------------------
# layer calculus


def test_layer_mean_values_by_hand_integral():
    # integral of (n - k + w)^2 / (2 n^2) over w in [0, 1]
    assert reeve_layer_mean(2, 1) == F(7, 24)
    assert reeve_layer_mean(2, 2) == F(1, 24)


@pytest.mark.parametrize("n", range(1, 7))
def test_layer_means_sum_to_volume(n):
    total = sum(reeve_layer_mean(n, k) for k in range(1, n + 1))
    assert total == F(n, 6)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 4)])
def test_layer_mean_matches_geometric_quadrature(n, k):
    # the footprint area is quadratic in the offset, so three-point
    # Simpson quadrature on the exact triangle areas is exact
    f0 = reeve_layer_triangle(n, k, F(0)).volume()
    f1 = reeve_layer_triangle(n, k, F(1, 2)).volume()
    f2 = reeve_layer_triangle(n, k, F(1)).volume()
    assert reeve_layer_mean(n, k) == (f0 + 4 * f1 + f2) / 6


def test_pair_expectation_values():
    assert reeve_pair_expectation(3, 1, 2) == F(1, 54)
    assert reeve_pair_expectation(2, 1, 2) == 0
    assert reeve_pair_expectation(5, 1, 3) == F(1, 150)


def test_pair_expectation_support_condition():
    for n in range(2, 7):
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                if 2 * l > k + n:
                    assert reeve_pair_expectation(n, k, l) == 0
                else:
                    assert reeve_pair_expectation(n, k, l) > 0


def test_pair_expectation_matches_geometric_quadrature():
    # overlap area of the two layer footprints is quadratic in the offset
    from polyshift.geometry import intersect

    n, k, l = 4, 1, 2
    vals = []
    for w in (F(0), F(1, 2), F(1)):
        cap = intersect(
            reeve_layer_triangle(n, k, w), reeve_layer_triangle(n, l, w)
        )
        vals.append(cap.volume())
    assert reeve_pair_expectation(n, k, l) == (vals[0] + 4 * vals[1] + vals[2]) / 6


def test_layer_functions_validate_ranges():
    with pytest.raises(ValueError):
        reeve_layer_mean(3, 4)
    with pytest.raises(ValueError):
        reeve_pair_expectation(3, 2, 2)


# ---------------------------------------------------------------------------
# audits


def test_audit_n1_all_agree():
    audit = reeve_audit(1)
    assert audit.var_closed_form == F(5, 36)
    assert audit.var_layer_oracle == F(5, 36)
    assert audit.var_intersection_engine == F(5, 36)
    assert audit.var_exact_distribution == F(5, 36)
    assert audit.oracles_agree and audit.matches_closed_form
    assert audit.discrepancies == []


def test_audit_n2_discrepancy_record():
    audit = reeve_audit(2)
    assert audit.var_layer_oracle == F(2, 9)
    assert audit.var_intersection_engine == F(2, 9)
    assert audit.var_exact_distribution == F(2, 9)
    assert audit.var_closed_form == F(29, 144)
    assert audit.oracles_agree
    assert not audit.matches_closed_form
    assert len(audit.discrepancies) == 1


def test_audit_n3():
    audit = reeve_audit(3)
    assert audit.var_layer_oracle == F(31, 108)
    assert audit.oracles_agree


@pytest.mark.parametrize("n", [7, 8])
def test_audit_agreement_beyond_required_range(n):
    audit = reeve_audit(n, max_distribution_n=0)
    assert audit.var_layer_oracle == audit.var_intersection_engine
    assert not audit.matches_closed_form


def test_audit_json_shape():
    data = reeve_audit(2).to_json()
    assert data["n"] == 2
    assert data["varLayerOracle"] == "2/9"
    assert data["oraclesAgree"] is True
    assert data["matchesClosedForm"] is False
    assert data["pairTable"]["1,2"] == "0"


def test_audit_rejects_a_negative_distribution_bound():
    # a negative bound would silently skip the exact-law variance, as 0 does
    with pytest.raises(DegenerateInput, match="max_distribution_n >= 0"):
        reeve_audit(2, max_distribution_n=-5)


# ---------------------------------------------------------------------------
# verify() tags (small instance counts; acceptance runs the full sizes)


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("no-such-identity")


def test_negative_seed_is_rejected():
    # random.Random takes |seed|: the catalog would draw the instances of -seed
    with pytest.raises(DegenerateInput, match="seed must be nonnegative"):
        verify("symmetric-distribution-2d", seed=-3)


@pytest.mark.parametrize(
    "tag,kwargs",
    [
        ("scaling-simplex", dict(instances=2, shifts=25, n_max=3)),
        ("scaling-polyhedron", dict(instances=1, shifts=25, n_max=3)),
        ("corollary-3d", dict(instances=2, shifts=25, n_max=3)),
        ("corollary-3d-symmetric", dict(instances=2, n_max=2)),
        ("zonotope-constancy", dict(instances=2, shifts=25)),
        ("sl-invariance", dict(instances=3)),
        ("negation-invariance", dict()),
        ("minkowski-2d", dict(instances=3, shifts=40)),
        ("symmetric-distribution-2d", dict(instances=3)),
        ("centrally-symmetric-2d-constancy", dict(instances=3, shifts=40)),
    ],
)
def test_identity_tags_pass(tag, kwargs):
    report = verify(tag, seed=2, **kwargs)
    assert report.status == PASS
    assert report.witnesses == []


def test_corollary_4d_symmetric_checks_every_dilate_up_to_n_max(monkeypatch):
    # like the 3-D tag, n = 1 .. n_max, so --n is not silently ignored
    from polyshift import verifier

    factors = []
    real = verifier.dilate
    monkeypatch.setattr(verifier, "dilate", lambda body, n: factors.append(n) or real(body, n))
    assert verify("corollary-4d-symmetric", n_max=3).status == PASS
    assert factors == [1, 2, 3]


@pytest.mark.parametrize(
    "tag",
    ["counterexample-slab", "counterexample-minkowski", "counterexample-symmetry"],
)
def test_counterexample_tags_confirm_failure(tag):
    # the symmetry counterexample draws no shift, so it takes no shift count
    report = verify(tag, seed=2, **({} if tag == "counterexample-symmetry" else dict(shifts=60)))
    assert report.status == EXPECTED_FAILURE
    assert report.witnesses


def test_corollary_3d_on_unit_reeve_with_explicit_constant():
    # n = 2: count(2T) = 3 count(T) - 1 count(-T) + 1, the 1 being
    # C(3,3) * 6 * vol(T)
    import math

    from polyshift.catalog import reeve_tetrahedron
    from polyshift.counting import ShiftStream, count_at
    from polyshift.geometry import dilate

    base = reeve_tetrahedron(1)
    neg = base.negated()
    double = dilate(base, 2)
    constant = math.comb(3, 3) * 6 * base.volume()
    assert constant == 1
    stream = ShiftStream(3, seed=3)
    done = 0
    while done < 50:
        s = stream.draw()
        rp, rm, r2 = count_at(base, s), count_at(neg, s), count_at(double, s)
        if not (rp.is_generic and rm.is_generic and r2.is_generic):
            continue
        done += 1
        assert r2.count == 3 * rp.count - 1 * rm.count + constant


def test_corollary_chain_consistency_on_symmetric_instances():
    # the same centrally symmetric 3-polytopes must satisfy both the
    # pointwise dilation corollary and the quadratic variance law
    import math

    from polyshift.catalog import centrally_symmetric_polytope, cross_polytope
    from polyshift.counting import ShiftStream, count_at
    from polyshift.distributions import exact_variance
    from polyshift.geometry import dilate

    bodies = [cross_polytope(3), centrally_symmetric_polytope(3, 4, 1, seed=77)]
    for body in bodies:
        neg = body.negated()
        assert neg == body  # symmetric about the origin
        vol6 = 6 * body.volume()
        base_var = exact_variance(body).variance
        for n in (2, 3):
            dil = dilate(body, n)
            assert exact_variance(dil).variance == n * n * base_var
            stream = ShiftStream(3, seed=7)
            done = 0
            while done < 50:
                s = stream.draw()
                rp, rm, rn = count_at(body, s), count_at(neg, s), count_at(dil, s)
                if not (rp.is_generic and rm.is_generic and rn.is_generic):
                    continue
                done += 1
                rhs = (
                    math.comb(n + 1, 2) * rp.count
                    - math.comb(n, 2) * rm.count
                    + math.comb(n + 1, 3) * vol6
                )
                assert rn.count == rhs


def reference_relations(wit, label, bodies, seed, shifts, relations):
    """The relation check draw by draw and relation by relation, as it was
    first written: the witnesses come shift by shift."""
    from polyshift.counting import ShiftStream, generic_draws
    from polyshift.verifier import _witness

    for nums, block, _ in generic_draws(ShiftStream(bodies[0].dim, seed), bodies, shifts):
        for shift, counts in zip(nums, zip(*block)):
            for suffix, lhs, rhs, constant in relations:
                left = sum(c * counts[i] for c, i in lhs)
                right = sum(c * counts[i] for c, i in rhs) + constant
                if left != right:
                    _witness(wit, label + suffix, shift, left, right)


def off_by_one_decompositions(monkeypatch):
    """Make the first piece's multiplicity one too large in every scaling
    decomposition: every dilate's relation fails wherever that piece counts
    a point, several relations at one draw."""
    from polyshift import catalog

    real = catalog.piece_multiplicity
    monkeypatch.setattr(catalog, "piece_multiplicity", lambda k, n, d: real(k, n, d) + (k == 1))


def test_relation_witnesses_come_shift_by_shift_up_to_the_cap(monkeypatch):
    from polyshift import verifier

    off_by_one_decompositions(monkeypatch)
    calls = []
    check = verifier._relations
    monkeypatch.setattr(verifier, "_relations",
                        lambda *args: calls.append(args) or check(*args))
    report = verify("scaling-simplex", instances=1, shifts=40, n_max=3, seed=2)
    expected: list = []
    for wit, *args in calls:
        reference_relations(expected, *args)
    assert report.status == FAIL
    assert report.witnesses == expected
    assert len(expected) == verifier._MAX_WITNESSES
    # the first failing draw fails every relation n = 1..3, in order, and
    # later draws follow
    assert [w.instance for w in expected[:3]] == [f"simplex-d2-#0 n={n}" for n in (1, 2, 3)]
    assert len({w.shift for w in expected}) > 1


# sha256 of the report JSON (sorted keys) of each scaling tag with the first
# piece's multiplicity off by one, at instances=1, shifts=40, n_max=3, seed=2:
# the witnesses pin which bodies each piece's count is read from; the
# polyhedron's pieces have one part each in the plane and five in space
OFF_BY_ONE_DIGESTS = {
    "scaling-polyhedron": "ca50b68a720db72d09ec2c17d1493376ff638ec52c4bf2f9c7b9800cc8db3e89",
    "scaling-simplex": "b6df6859c2bed2595004f11f4b86826ec72d19c1c27d0e5fec62af68e2c7ca1c",
}


@pytest.mark.parametrize("tag", OFF_BY_ONE_DIGESTS)
def test_faulty_decomposition_witnesses_are_pinned(tag, monkeypatch):
    off_by_one_decompositions(monkeypatch)
    report = verify(tag, instances=1, shifts=40, n_max=3, seed=2)
    assert report.status == FAIL
    digest = hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == OFF_BY_ONE_DIGESTS[tag]


def test_verify_with_explicit_zonotope_instance():
    report = verify("zonotope-constancy", shifts=50, body=HEXAGON)
    assert report.status == PASS
    assert report.instances == 1
    assert "constant 3" in report.notes[0]


def test_report_json_shape():
    report = verify("minkowski-2d", instances=1, shifts=10, seed=1)
    data = report.to_json()
    assert data["identity"] == "minkowski-2d"
    assert data["status"] == PASS
    assert data["instances"] == 1
    assert data["shiftsPerInstance"] == 10
    assert data["witnesses"] == []


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_sizes_a_tag_does_not_name_are_rejected(tag):
    # a size the checker would ignore is an error, not a silent no-op; the
    # quick battery passes only the sizes each row names
    sizes = _TAGS[tag].sizes
    assert set(quick_sizes(tag)) <= set(sizes)
    for name in {"instances", "shifts", "n_max"} - set(sizes):
        with pytest.raises(DegenerateInput, match=f"identity '{tag}' takes no {name}"):
            verify(tag, **{name: 1})


# corollary-3d's relations start at n = 2; a Minkowski counterexample
# compares the deltas at two shifts; every other size checks nothing at 0
LEAST_SIZES = {("corollary-3d", "n_max"): 2, ("counterexample-minkowski", "shifts"): 2}


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_sizes_that_check_nothing_are_rejected(tag):
    # a zero size would report a pass that checked nothing
    sizes = _TAGS[tag].sizes
    for name in sizes:
        least = LEAST_SIZES.get((tag, name), 1)
        assert min(sizes[name], quick_sizes(tag).get(name, least)) >= least
        with pytest.raises(DegenerateInput, match=f"identity '{tag}' with {name} {least - 1} "
                           f"checks nothing; it needs {name} >= {least}"):
            verify(tag, **{name: least - 1})


def test_all_tags_enumerated():
    assert len(IDENTITY_TAGS) == 14


# sha256 of each tag's report JSON (sorted keys) at its quick sizes and seed 7,
# taken before the tags moved into one table
QUICK_SEED7_DIGESTS = {
    "scaling-simplex": "4819b22a0aa6f8f7690297570c80563268be311141852112214df4d546b15644",
    "scaling-polyhedron": "214943dadfa97f890c85b6572890f155c2147e2a966cc3175a669da0a9ca6310",
    "corollary-3d": "ec890d28c9205d2a2fe4a599184bd1df3ba440ae13ff076bfed799984ac97318",
    "corollary-3d-symmetric": "ea3658a4f4f0fa30760b70d66966f83f4ad96e7bff6dcac7bd49e61abb2f3cc3",
    "corollary-4d-symmetric": "34a83b36dbc6a83fa1b1a862c822c17e450933676985d145eaddf059177059c5",
    "zonotope-constancy": "dfa6b337c3e6a08a9fca0cdc3172a59a286e7e4dd82f1ba208dc58676e4eb2d9",
    "sl-invariance": "b8e756f21af0358e69054d9e6a80f020f3924c80b1da8406a9a7049837a6f459",
    "negation-invariance": "e5c5485a756594f8ae778b61edf4767e0d23ddb586ccf1b2523ccfe1b1233948",
    "minkowski-2d": "3502795e99eea5f60d8d476764819ca7ce310bcd1fa678303028a9b347cefbb2",
    "symmetric-distribution-2d": "7d7f74627c7496e85d7862306771ffa1fa6baa157d315a7be23d82363c497386",
    "centrally-symmetric-2d-constancy": "276b28acfb5584ea232d33bf292a59b207bd4f0a4e3250c488421df26659f932",
    "counterexample-slab": "d6606b7bfc8ff9c28d92ad680d28236c6ff089ccb9d6bc430ba6490980cf1ae7",
    "counterexample-minkowski": "fb24306f31ad5f3fade55182736e7a216f8389b5e2604185a2a65a4d5aceeb6c",
    "counterexample-symmetry": "86e55ea2b1e09420bc2c2aadae1fe9e92608f14de8e9ceeb3f621c2647825b70",
}


def test_quick_reports_are_pinned():
    assert tuple(QUICK_SEED7_DIGESTS) == IDENTITY_TAGS
    for tag, digest in QUICK_SEED7_DIGESTS.items():
        report = json.dumps(verify(tag, seed=7, **quick_sizes(tag)).to_json(), sort_keys=True)
        assert hashlib.sha256(report.encode()).hexdigest() == digest, tag


# sha256 of the report JSON (sorted keys) at the default sizes and seed 0 of
# the three tags whose counts come mostly from the block sampler's stepped
# cells, taken while every new cell was still walked
DEFAULT_SEED0_DIGESTS = {
    "scaling-simplex": "4d1cf66ce60400cb07796b9155283f6e14093635272904a411276f0ed1878195",
    "scaling-polyhedron": "bc258f33fdae9439bec8f2f574d366ec04d7483ad2d34060477477d856a80c3a",
    "corollary-3d": "e9f3a5dcece5363279c4661f97682a9c1ee4abcb360bb15983c7812b1b2d262e",
}


@pytest.mark.parametrize("tag", DEFAULT_SEED0_DIGESTS)
def test_default_size_reports_are_pinned(tag):
    report = json.dumps(verify(tag, seed=0).to_json(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == DEFAULT_SEED0_DIGESTS[tag]
