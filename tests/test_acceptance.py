"""Acceptance battery: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them)."""

import math
import subprocess
import sys
import time
from fractions import Fraction

from polyshift.catalog import (
    central_slab,
    cross_polytope,
    piece_multiplicity,
    random_lattice_polytope,
    random_lattice_simplex,
    random_zonotope,
    scaling_decomposition,
    standard_simplex,
    reeve_tetrahedron,
)
from polyshift.counting import ShiftStream, count_at, zonotope_constant, zonotope_polytope
from polyshift.distributions import (
    exact_distribution,
    exact_variance,
    mc_distribution,
)
from polyshift.geometry import dilate, unit_cube
from polyshift.verifier import EXPECTED_FAILURE, PASS, reeve_audit, verify

from conftest import HEXAGON

F = Fraction


def _report(index: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {index:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _criterion_1_2_instances():
    bodies = [
        ("simplex:2", standard_simplex(2)),
        ("simplex:3", standard_simplex(3)),
        ("cube:3", unit_cube(3)),
        ("central-slab:3", central_slab(3)),
        ("hexagon", zonotope_polytope(HEXAGON)),
    ]
    for n in range(1, 5):
        bodies.append((f"reeve:{n}", reeve_tetrahedron(n)))
    for i in range(5):
        bodies.append((f"rand2d#{i}", random_lattice_polytope(2, 5, 2, seed=100 + i)))
    for i in range(5):
        bodies.append((f"rand3d#{i}", random_lattice_polytope(3, 5, 1, seed=200 + i)))
    return bodies


def test_criterion_01_mean_equals_volume():
    start = time.time()
    bad = []
    for label, body in _criterion_1_2_instances():
        dist = exact_distribution(body)
        if dist.mean() != body.volume():
            bad.append(f"{label}: {dist.mean()} != {body.volume()}")
    elapsed = time.time() - start
    _report(1, "mean-equals-volume", not bad and elapsed < 120,
            f"{elapsed:.1f}s, 19 instances")


def test_criterion_02_two_oracle_variance():
    start = time.time()
    bad = []
    for label, body in _criterion_1_2_instances():
        dist_var = exact_distribution(body).variance()
        sum_var = exact_variance(body).variance
        if dist_var != sum_var:
            bad.append(f"{label}: {dist_var} != {sum_var}")
    elapsed = time.time() - start
    _report(2, "two-oracle-variance", not bad and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_03_unit_right_triangle_variance():
    ok = exact_variance(standard_simplex(2)).variance == F(1, 4)
    _report(3, "triangle-variance-quarter", ok)


def test_criterion_04_reeve_audit():
    start = time.time()
    bad = []
    discrepancy_records = 0
    for n in range(1, 7):
        audit = reeve_audit(n, max_distribution_n=4)
        if audit.var_layer_oracle != audit.var_intersection_engine:
            bad.append(f"n={n}: layer {audit.var_layer_oracle} vs engine")
        if n <= 4 and audit.var_exact_distribution != audit.var_layer_oracle:
            bad.append(f"n={n}: distribution variance disagrees")
        if n == 1 and not (
            audit.var_layer_oracle == F(5, 36) and audit.matches_closed_form
        ):
            bad.append("n=1 should match the closed form 5/36")
        if n >= 2:
            if audit.matches_closed_form:
                bad.append(f"n={n}: unexpectedly matches the closed form")
            if not audit.discrepancies:
                bad.append(f"n={n}: no discrepancy record emitted")
            discrepancy_records += len(audit.discrepancies)
    elapsed = time.time() - start
    _report(4, "reeve-audit", not bad and elapsed < 600,
            f"{elapsed:.1f}s, {discrepancy_records} discrepancy records")


def test_criterion_05_scaling_identities():
    start = time.time()
    bad = []
    shifts = 200
    for d in (2, 3):
        instances = []
        for i in range(5):
            instances.append(random_lattice_simplex(d, 3, seed=1000 * d + i))
        for i in range(3):
            instances.append(random_lattice_polytope(d, d + 3, 3, seed=3000 * d + i))
        for idx, base in enumerate(instances):
            dec = scaling_decomposition(base)
            constant = dec.constant_sum
            if constant != math.factorial(d) * base.volume():
                bad.append(f"d={d}#{idx}: constant {constant}")
            dilates = [dilate(base, n) for n in range(1, 6)]
            stream = ShiftStream(d, seed=500 + idx + 10 * d)
            done = 0
            while done < shifts:
                s = stream.draw()
                # a piece counts the sum of its parts' counts
                part_res = [[count_at(p, s) for p in piece] for piece in dec.pieces]
                dil_res = [count_at(q, s) for q in dilates]
                if any(not r.is_generic for res in part_res + [dil_res] for r in res):
                    continue
                done += 1
                counts = [sum(r.count for r in res) for res in part_res]
                if sum(counts) != constant:
                    bad.append(f"d={d}#{idx}: piece sum {sum(counts)} != {constant}")
                    break
                for n in range(1, 6):
                    rhs = sum(
                        piece_multiplicity(k, n, d) * counts[k - 1]
                        for k in range(1, d + 1)
                    )
                    if dil_res[n - 1].count != rhs:
                        bad.append(f"d={d}#{idx} n={n}: {dil_res[n-1].count} != {rhs}")
                        break
    elapsed = time.time() - start
    _report(5, "scaling-identities", not bad and elapsed < 600,
            f"{elapsed:.1f}s, 16 instances x {shifts} shifts")


def test_criterion_06_corollary_3d():
    start = time.time()
    bad = []
    for i in range(5):
        base = random_lattice_polytope(3, 6, 2, seed=600 + i)
        neg = base.negated()
        vol6 = 6 * base.volume()
        dil = {n: dilate(base, n) for n in (2, 3)}
        stream = ShiftStream(3, seed=60 + i)
        done = 0
        while done < 100:
            s = stream.draw()
            res = {
                "p": count_at(base, s),
                "m": count_at(neg, s),
                2: count_at(dil[2], s),
                3: count_at(dil[3], s),
            }
            if any(not r.is_generic for r in res.values()):
                continue
            done += 1
            for n in (2, 3):
                rhs = (
                    math.comb(n + 1, 2) * res["p"].count
                    - math.comb(n, 2) * res["m"].count
                    + math.comb(n + 1, 3) * vol6
                )
                if res[n].count != rhs:
                    bad.append(f"#{i} n={n}: {res[n].count} != {rhs}")
                    break
    elapsed = time.time() - start
    _report(6, "corollary-3d", not bad, f"{elapsed:.1f}s")


def test_criterion_07_symmetric_scaling_3d_4d():
    start = time.time()
    bad = []
    oct3 = cross_polytope(3)
    v0 = exact_variance(oct3).variance
    for n in (1, 2, 3):
        vn = exact_variance(dilate(oct3, n)).variance
        if vn != F(n * n) * v0:
            bad.append(f"octahedron n={n}: {vn} != {n*n}*{v0}")
    cross4 = cross_polytope(4)
    w0 = exact_variance(cross4).variance
    w2 = exact_variance(dilate(cross4, 2)).variance
    if w2 != 16 * w0:
        bad.append(f"4d cross: {w2} != 16*{w0}")
    elapsed = time.time() - start
    _report(7, "symmetric-variance-scaling", not bad and elapsed < 900,
            f"{elapsed:.1f}s, Var3d={v0}, Var4d={w0}")


def test_criterion_08_zonotope_constancy():
    start = time.time()
    bad = []
    specs = []
    for i in range(5):
        specs.append(random_zonotope(2, 3 + (i % 3), 3, seed=800 + i))
    for i in range(5):
        specs.append(random_zonotope(3, 3 + (i % 3), 3, seed=900 + i))
    for idx, spec in enumerate(specs):
        poly = zonotope_polytope(spec)
        constant = zonotope_constant(spec)
        if poly.volume() != constant:
            bad.append(f"#{idx}: volume {poly.volume()} != {constant}")
        stream = ShiftStream(spec.dim, seed=80 + idx)
        done = 0
        while done < 100:
            res = count_at(poly, stream.draw())
            if not res.is_generic:
                continue
            done += 1
            if res.count != constant:
                bad.append(f"#{idx}: count {res.count} != {constant}")
                break
    elapsed = time.time() - start
    _report(8, "zonotope-constancy", not bad, f"{elapsed:.1f}s, 10 zonotopes")


def test_criterion_09_unimodular_and_negation_invariance():
    start = time.time()
    sl = verify("sl-invariance", instances=20, seed=90)
    neg = verify("negation-invariance", seed=91)
    ok = sl.status == PASS and neg.status == PASS
    elapsed = time.time() - start
    _report(9, "sl-and-negation-invariance", ok,
            f"{elapsed:.1f}s, {sl.instances} unimodular images")


def test_criterion_10_counterexamples():
    start = time.time()
    bad = []
    slab_dist = exact_distribution(central_slab(3))
    if slab_dist.probability_map() != {0: F(1, 3), 1: F(2, 3)}:
        bad.append(f"central slab law {slab_dist.probability_map()}")
    mink = verify("counterexample-minkowski", seed=10)
    if mink.status != EXPECTED_FAILURE:
        bad.append(f"prism Minkowski status {mink.status}")
    simplex_dist = exact_distribution(standard_simplex(3))
    if simplex_dist.probability_map() != {0: F(5, 6), 1: F(1, 6)}:
        bad.append(f"corner simplex law {simplex_dist.probability_map()}")
    mean2 = 2 * simplex_dist.mean()
    symmetric = mean2.denominator == 1 and all(
        simplex_dist.probability(m) == simplex_dist.probability(int(mean2) - m)
        for m in simplex_dist.support()
    )
    if symmetric:
        bad.append("corner simplex law unexpectedly symmetric")
    elapsed = time.time() - start
    _report(10, "counterexamples", not bad, f"{elapsed:.1f}s")


def test_criterion_11_monte_carlo_soundness(mc_pvalue):
    start = time.time()
    bad = []
    n = 100000
    for label, body in (("simplex:2", standard_simplex(2)), ("reeve:3", reeve_tetrahedron(3))):
        exact = exact_distribution(body)
        var = float(exact.variance())
        emp = mc_distribution(body, samples=n, seed=11)
        se = math.sqrt(var / n)
        if abs(float(emp.mean()) - float(exact.mean())) > 4 * se:
            bad.append(f"{label}: mean {float(emp.mean()):.5f} off")
        p_value = mc_pvalue(exact, emp)
        if p_value <= 0.001:
            bad.append(f"{label}: p-value {p_value}")
        if mc_distribution(body, samples=2000, seed=11).probs != (
            mc_distribution(body, samples=2000, seed=11).probs
        ):
            bad.append(f"{label}: rerun mismatch")
    cmd = [
        sys.executable, "-m", "polyshift",
        "distribution", "--input", "simplex:2", "--method", "mc",
        "--samples", "2000", "--seed", "11",
    ]
    if (
        subprocess.run(cmd, capture_output=True, check=True).stdout
        != subprocess.run(cmd, capture_output=True, check=True).stdout
    ):
        bad.append("CLI rerun not byte-identical")
    elapsed = time.time() - start
    _report(11, "monte-carlo-soundness", not bad and elapsed < 60, f"{elapsed:.1f}s")
