"""Seeded inputs and job lists for the four benchmark workloads.

A job is one ``polyshift`` CLI invocation.  The program sees only catalog
names (``reeve:n``) or ``file:`` JSON written here; file names are content
digests, so a job's argv, and therefore its stdout, is a function of its
input alone.

Random bodies are hulls of 5-6 integer points in [-2, 2]^3 drawn from the
seed.  Their cost varies by two orders of magnitude, so each workload keeps
drawing until a cost model computed from public geometry lands in a fixed
window: ``volume * facets`` for the lattice-sum variance (it tracks the
number of overlapping translates times the clips per overlap), and the
size of the hyperplane arrangement the cell decomposition builds for the
exact law (`law_cost`).

Run as a script to time set-up alone:
``python3 perfbench/workloads.py --workload law --seed 3`` prints the
seconds from its first statement to the inputs being ready.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUT_DIR = os.path.join(".perfbench_out", "inputs")

WORKLOADS = ("variance", "law", "mc", "verify")

# tags of the verification battery left out of `verify`: both run
# exact_variance on dilates, which the `variance` workload already times
SKIPPED_TAGS = ("corollary-3d-symmetric", "corollary-4d-symmetric")

# tags whose cost follows the verifier's own instance draw (scaling-polyhedron
# takes 2.5-5 s depending on --seed, the whole battery 9-12 s) run at seed 0,
# so that `verify` times the same work at every seed; the others use the
# workload seed
FIXED_SEED_TAGS = ("scaling-simplex", "scaling-polyhedron", "zonotope-constancy", "sl-invariance")

VARIANCE_BODIES = 3
VARIANCE_COST_WINDOW = (30, 60)  # volume * facet count of one body
LAW_PLANE_WINDOW = (20, 40)  # cutting planes of one body
LAW_BODY_COST = (200, 550)  # law_cost of one body
LAW_TOTAL_COST = (2500, 2600)  # law_cost summed over the bodies
MAX_DRAWS = 400

MC_SEEDS = 3
MC_LARGE_SAMPLES = 600  # dilate(cross_polytope(4), 3): ~1.5 ms per sample
MC_SMALL_SAMPLES = 20000  # reeve:3: ~30 us per sample


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # moments | law | mc | verify
    argv: tuple[str, ...]
    meta: dict  # expected values and cost-model figures for checks and records

    @property
    def label(self) -> str:
        """Stable identity of the invocation; keys the reference digests."""
        return " ".join(self.argv)


def _write_body(poly) -> str:
    from polyshift.geometry import polytope_to_json

    text = json.dumps(polytope_to_json(poly), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    path = os.path.join(INPUT_DIR, f"{digest}.json")
    if not os.path.exists(path):  # the name is the content digest
        os.makedirs(INPUT_DIR, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    return "file:" + path.replace(os.sep, "/")


def _random_hull(rng: random.Random):
    from polyshift import catalog

    return catalog.random_lattice_polytope(3, rng.choice((5, 6)), 2, seed=rng.getrandbits(32))


# ---------------------------------------------------------------------------
# cost model of the exact law: size of the arrangement in the unit cube


def cutting_planes(body) -> list[tuple[tuple[int, ...], int]]:
    """Integer planes ``a.x = c`` that cut the open unit cube, one per facet
    hyperplane of each translate ``z - body`` with z in the bounding box
    grown by one: the plane set the cell decomposition splits by."""
    lo, hi = body.bounding_box()
    zranges = [range(math.ceil(a), math.floor(b) + 2) for a, b in zip(lo, hi)]
    planes = set()
    for f in body.facets():
        a = tuple(int(x) for x in f.normal)
        b = int(f.offset)
        cmin = sum(min(x, 0) for x in a)
        cmax = sum(max(x, 0) for x in a)
        for z in itertools.product(*zranges):
            c = sum(x * y for x, y in zip(a, z)) - b
            if cmin < c < cmax:
                lead = next(x for x in a if x)
                planes.add((a, c) if lead > 0 else (tuple(-x for x in a), -c))
    return sorted(planes)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _reduced(nums, den) -> tuple:
    if den < 0:
        nums, den = [-x for x in nums], -den
    g = math.gcd(*nums, den)
    return tuple(x // g for x in nums) + (den // g,)


def arrangement(planes, limit: int | None = None) -> tuple[int, int, int]:
    """(cells, lines, points) of the arrangement the 3-D planes cut in the
    open unit cube: its regions, the distinct lines where planes meet that
    cross the cube, and the distinct intersection points inside it.  Stops
    early, with a partial count whose sum exceeds `limit`, once the sum is
    known to.

    Cells follow from Zaslavsky's theorem restricted to an open convex set:
    the sum of |mu| over the flats of the intersection lattice that meet
    it.  The whole space and each plane contribute 1, a line lying in m
    planes contributes m - 1, and a point contributes 1 - (planes through
    it) + the sum of (m - 1) over the lines through it.  Integer arithmetic
    throughout: a line is its primitive direction d plus the point X/D on
    it with X_k = 0 for d's first nonzero coordinate k.
    """
    lines: dict[tuple, set] = {}
    for (a, c), (b, e) in itertools.combinations(planes, 2):
        d = _cross(a, b)
        if d == (0, 0, 0):
            continue
        k = next(i for i in range(3) if d[i])
        g = math.gcd(*d) * (1 if d[k] > 0 else -1)
        i, j = [m for m in range(3) if m != k]
        x = [0, 0, 0]
        x[i] = c * b[j] - e * a[j]
        x[j] = a[i] * e - b[i] * c
        key = (tuple(v // g for v in d), _reduced(x, a[i] * b[j] - a[j] * b[i]))
        lines.setdefault(key, set()).update(((a, c), (b, e)))

    cells = 1 + len(planes)
    crossing = 0
    points: dict[tuple, tuple[set, dict]] = {}
    for line, members in lines.items():
        d, (*x, den) = line
        # the open cube in the scaled parameter s: 0 < x_m + s d_m < den
        lo = hi = None
        for m in range(3):
            if d[m] == 0:
                if not 0 < x[m] < den:
                    break
                continue
            u, v = sorted((Fraction(-x[m], d[m]), Fraction(den - x[m], d[m])))
            lo = u if lo is None else max(lo, u)
            hi = v if hi is None else min(hi, v)
        else:
            if not lo < hi:
                continue
            cells += len(members) - 1
            crossing += 1
            # every interior point adds at least one cell
            if limit is not None and cells + crossing + 2 * len(points) > limit:
                return cells + len(points), crossing, len(points)
            for a, c in planes:
                ad = _dot(a, d)
                if ad == 0 or (a, c) in members:
                    continue
                num = c * den - _dot(a, x)
                if lo < Fraction(num, ad) < hi:
                    pt = _reduced([x[m] * ad + num * d[m] for m in range(3)], den * ad)
                    through, on_lines = points.setdefault(pt, (set(), {}))
                    through.update(members)
                    through.add((a, c))
                    on_lines[line] = len(members)
    for through, on_lines in points.values():
        cells += 1 - len(through) + sum(m - 1 for m in on_lines.values())
    return cells, crossing, len(points)


def law_cost(body, limit: int | None = None) -> int | None:
    """Cost model of the exact law: cells + lines + points of the
    arrangement, which predicts exact_distribution's time to about 8% per
    body (cells alone: about 11%).  None when the plane count is outside
    LAW_PLANE_WINDOW."""
    planes = cutting_planes(body)
    if not LAW_PLANE_WINDOW[0] <= len(planes) <= LAW_PLANE_WINDOW[1]:
        return None
    return sum(arrangement(planes, limit))


# ---------------------------------------------------------------------------
# job lists


def _variance_jobs(rng: random.Random) -> list[Job]:
    from polyshift import catalog
    from polyshift.geometry import dilate

    jobs = []
    for d, factors in ((3, (1, 2, 3, 4)), (4, (1, 2))):
        base = catalog.cross_polytope(d)
        for n in factors:
            vol = Fraction((2 * n) ** d, math.factorial(d))
            jobs.append(
                Job(
                    f"moments:cross{d}x{n}",
                    "moments",
                    ("moments", "--input", _write_body(dilate(base, n))),
                    {"volume": str(vol), "cross": (d, n)},
                )
            )
    for n in (2, 4, 8):
        jobs.append(
            Job(f"moments:reeve{n}", "moments", ("moments", "--input", f"reeve:{n}"),
                {"volume": str(Fraction(n, 6)), "reeve": n})
        )
    lo, hi = VARIANCE_COST_WINDOW
    accepted = 0
    for _ in range(MAX_DRAWS):
        body = _random_hull(rng)
        vol = body.volume()
        if lo <= vol * len(body.facets()) <= hi:
            jobs.append(
                Job(f"moments:rand{accepted}", "moments",
                    ("moments", "--input", _write_body(body)), {"volume": str(vol)})
            )
            accepted += 1
            if accepted == VARIANCE_BODIES:
                return jobs
    raise RuntimeError("variance: no bodies in the cost window")


def law_bodies(rng: random.Random) -> list[tuple[object, int]]:
    """Random hulls with their law cost: each body inside LAW_BODY_COST, the
    total inside LAW_TOTAL_COST.  Several mid-sized bodies average out what
    the cost model misses."""
    lo, hi = LAW_BODY_COST
    picked: list[tuple[object, int]] = []
    total = 0
    for _ in range(MAX_DRAWS):
        body = _random_hull(rng)
        cost = law_cost(body, limit=hi)
        if cost is None or not lo <= cost <= hi:
            continue
        short = LAW_TOTAL_COST[0] - (total + cost)
        if total + cost > LAW_TOTAL_COST[1] or 0 < short < lo:
            continue  # overshoots, or leaves a gap no single body can fill
        picked.append((body, cost))
        total += cost
        if short <= 0:
            return picked
    raise RuntimeError("law: no body set in the cost window")


def _law_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        Job(f"law:reeve{n}", "law", ("distribution", "--method", "exact", "--input", f"reeve:{n}"),
            {"volume": str(Fraction(n, 6))})
        for n in (2, 4, 8)
    ]
    for i, (body, cost) in enumerate(law_bodies(rng)):
        jobs.append(
            Job(f"law:rand{i}", "law",
                ("distribution", "--method", "exact", "--input", _write_body(body)),
                {"volume": str(body.volume()), "cost": cost})
        )
    return jobs


def _mc_jobs(rng: random.Random) -> list[Job]:
    from polyshift import catalog
    from polyshift.geometry import dilate

    large = _write_body(dilate(catalog.cross_polytope(4), 3))
    seeds = [rng.getrandbits(31) for _ in range(MC_SEEDS)]
    jobs = []
    for size, inp, samples, vol in (
        ("large", large, MC_LARGE_SAMPLES, Fraction(6**4, 24)),
        ("small", "reeve:3", MC_SMALL_SAMPLES, Fraction(3, 6)),
    ):
        for i, s in enumerate(seeds):
            jobs.append(
                Job(f"mc:{size}{i}", "mc",
                    ("distribution", "--method", "mc", "--samples", str(samples),
                     "--seed", str(s), "--input", inp),
                    {"volume": str(vol), "size": size, "samples": samples})
            )
    return jobs


def _verify_jobs(rng: random.Random) -> list[Job]:
    from polyshift.verifier import IDENTITY_TAGS

    s = rng.getrandbits(31)
    return [
        Job(f"verify:{tag}", "verify",
            ("verify", "--identity", tag, "--seed", str(0 if tag in FIXED_SEED_TAGS else s)),
            {"tag": tag})
        for tag in IDENTITY_TAGS
        if tag not in SKIPPED_TAGS
    ]


_JOB_LISTS = {"variance": _variance_jobs, "law": _law_jobs, "mc": _mc_jobs, "verify": _verify_jobs}


def prepare(workload: str, seed: int) -> list[Job]:
    """Generate and write the inputs of one workload; return its job list.

    Paths are relative to the repository root, which must be the working
    directory.
    """
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    prepare(args.workload, args.seed)
    print(repr(time.perf_counter() - _STARTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
