"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(os.path.dirname(HERE))


def _stdout(argv) -> str:
    from polyshift import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


REEVE2_MOMENTS = Job("moments:reeve2", "moments", ("moments", "--input", "reeve:2"),
                     {"volume": "1/3", "reeve": 2})
REEVE2_LAW = Job("law:reeve2", "law", ("distribution", "--method", "exact", "--input", "reeve:2"),
                 {"volume": "1/3"})


def test_variance_off_by_a_sixth_is_flagged():
    good = _stdout(REEVE2_MOMENTS.argv)
    payload = json.loads(good)
    payload["variance"] = str(Fraction(payload["variance"]) + Fraction(1, 6))
    bad = json.dumps(payload)
    checker = checks.Checker({})
    assert checker.check(REEVE2_MOMENTS, good, {}) == []
    assert checker.check(REEVE2_MOMENTS, bad, {})
    pinned = checks.Checker({REEVE2_MOMENTS.label: checks.digest(good)})
    assert pinned.check(REEVE2_MOMENTS, good, {}) == []
    assert pinned.check(REEVE2_MOMENTS, good.replace(",", ", ", 1), {})


def test_law_with_a_shifted_atom_is_flagged():
    good = _stdout(REEVE2_LAW.argv)
    payload = json.loads(good)
    entries = payload["distribution"]["entries"]
    top = max(entries, key=int)
    entries[str(int(top) + 1)] = entries.pop(top)
    bad = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    checker = checks.Checker({})
    assert checker.check(REEVE2_LAW, good, {}) == []
    assert checker.check(REEVE2_LAW, bad, {})


def test_cross_ladder_scaling_is_checked():
    job = Job("moments:cross3x2", "moments", ("moments", "--input", "x"),
              {"volume": "64/6", "cross": (3, 2)})
    base = json.dumps({"mean": "4/3", "variance": "5/9"})
    out = json.dumps({"mean": "32/3", "variance": "20/9"})
    assert checks.Checker({}).check(job, out, {"moments:cross3x1": base}) == []
    wrong = json.dumps({"mean": "32/3", "variance": "21/9"})
    assert checks.Checker({}).check(job, wrong, {"moments:cross3x1": base})


def test_mc_mean_far_from_volume_is_flagged():
    job = Job("mc:small0", "mc",
              ("distribution", "--method", "mc", "--samples", "1000", "--seed", "1",
               "--input", "reeve:3"),
              {"volume": "1/2", "size": "small", "samples": 1000})
    good = _stdout(job.argv)
    checker = checks.Checker({})
    assert checker.check(job, good, {}) == []
    skewed = json.loads(good)
    skewed["distribution"]["entries"] = {"0": "1/10", "1": "9/10"}
    assert checker.check(job, json.dumps(skewed), {})


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 9):
        for x in (0.3, 2.0, 7.5, 30.0):
            assert checks.chi2_sf(x, dof) == pytest.approx(float(stats.chi2.sf(x, dof)), rel=1e-9)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("distributions.exact_variance", 1.0, 9.0, 0, 0),
        ("geometry.intersect", 2.0, 5.0, 1, 0),
        ("geometry.clip", 2.5, 4.0, 2, 0),
        ("geometry.intersect", 6.0, 8.0, 1, 0),
        ("geometry.intersect", 6.5, 7.0, 4, 0),  # nested in a same-named span
    ]
    layer_self, inclusive, calls = tracing.self_times(spans)
    assert layer_self == pytest.approx({"cli": 2.0, "distributions": 3.0, "geometry": 5.0})
    assert sum(layer_self.values()) == pytest.approx(10.0)
    assert inclusive["geometry.intersect"] == pytest.approx(5.0)
    assert inclusive["geometry.clip"] == pytest.approx(1.5)
    assert calls["geometry.intersect"] == 3


def test_tracing_wraps_every_importer_and_restores():
    from polyshift import cli, distributions, geometry

    original = geometry.clip_both
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)
        try:
            assert distributions.clip_both is not original
            _stdout(REEVE2_LAW.argv)
        finally:
            restore()
        metrics, calls = tracing.layer_metrics(tracer)
        counts.append(calls)
        assert calls["cli.main"] == 1
        assert metrics["geometry.clip_both.calls"] > 0
        assert metrics["counting.count_at.calls"] > 0
        for name, start, end, parent, _ in tracer.spans():
            assert start <= end
            if parent >= 0:
                assert tracer.spans()[parent][1] <= start
    assert counts[0] == counts[1]
    assert distributions.clip_both is original and geometry.clip_both is original
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_arrangement_on_hand_made_planes():
    diag = [((1, 1, 1), 1), ((1, 1, 1), 2)]
    assert workloads.arrangement(diag) == (3, 0, 0)
    assert workloads.arrangement(diag + [((1, -1, 0), 0)]) == (6, 2, 0)
    # three planes through one interior point, pairwise on distinct lines
    star = [((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)]
    assert workloads.arrangement(star) == (8, 3, 1)
    assert sum(workloads.arrangement(star, limit=5)) > 5


def test_arrangement_cells_match_recorded_decompositions():
    from polyshift import catalog

    # cell counts of the cell decomposition at this benchmark's introduction
    for seed, cells in ((13, 480), (19, 300), (3, 146), (1, 794)):
        body = catalog.random_lattice_polytope(3, 5 + seed % 2, 2, seed=seed)
        planes = workloads.cutting_planes(body)
        assert workloads.arrangement(planes)[0] == cells
        assert sum(workloads.arrangement(planes, limit=400)) > 400 or cells < 400


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_inputs_are_deterministic_and_in_their_cost_windows(seed):
    from polyshift.cli import parse_polytope_input

    for workload in workloads.WORKLOADS:
        first = workloads.prepare(workload, seed)
        again = workloads.prepare(workload, seed)
        assert [(j.id, j.argv, j.meta) for j in first] == [(j.id, j.argv, j.meta) for j in again]
        assert 5 <= len(first) <= 12
    law = [j for j in workloads.prepare("law", seed) if "cost" in j.meta]
    lo, hi = workloads.LAW_TOTAL_COST
    assert lo <= sum(j.meta["cost"] for j in law) <= hi
    for job in law:
        body = parse_polytope_input(job.argv[-1])
        assert workloads.law_cost(body) == job.meta["cost"]
        assert workloads.LAW_BODY_COST[0] <= job.meta["cost"] <= workloads.LAW_BODY_COST[1]
    for job in workloads.prepare("variance", seed):
        if job.id.startswith("moments:rand"):
            body = parse_polytope_input(job.argv[-1])
            lo, hi = workloads.VARIANCE_COST_WINDOW
            assert lo <= body.volume() * len(body.facets()) <= hi


def test_seeds_change_the_random_inputs():
    a = [j.argv for j in workloads.prepare("law", 1)]
    b = [j.argv for j in workloads.prepare("law", 2)]
    assert a != b
