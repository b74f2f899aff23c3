#!/usr/bin/env python3
"""Run the full identity-verification battery and print a summary table.

Exit status is nonzero when any identity tag fails (counterexample tags
are expected to confirm failure, which counts as success).
"""

import argparse
import sys
import time

from polyshift.verifier import FAIL, IDENTITY_TAGS, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller instance counts for a fast sanity pass",
    )
    args = parser.parse_args()

    overrides = {}
    if args.quick:
        overrides = {
            "scaling-simplex": dict(instances=2, shifts=40, n_max=3),
            "scaling-polyhedron": dict(instances=1, shifts=40, n_max=3),
            "corollary-3d": dict(instances=2, shifts=40),
            "sl-invariance": dict(instances=5),
        }

    worst = 0
    print(f"{'identity':36s} {'status':28s} {'inst':>4s} {'time':>8s}")
    for tag in IDENTITY_TAGS:
        start = time.time()
        report = verify(tag, seed=args.seed, **overrides.get(tag, {}))
        elapsed = time.time() - start
        print(f"{tag:36s} {report.status:28s} {report.instances:4d} {elapsed:7.1f}s")
        for witness in report.witnesses[:3]:
            if report.status == FAIL:
                print(f"    witness: {witness}")
        if report.status == FAIL:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
