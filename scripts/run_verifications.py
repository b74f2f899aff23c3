#!/usr/bin/env python3
"""Run the full identity-verification battery and print a summary table.

Exit status is nonzero when any identity tag fails (counterexample tags
are expected to confirm failure, which counts as success).
"""

import argparse
import sys
import time

from polyshift.verifier import FAIL, IDENTITY_TAGS, quick_sizes, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="the smaller sizes each tag's table row gives for a fast sanity pass",
    )
    args = parser.parse_args()

    worst = 0
    print(f"{'identity':36s} {'status':28s} {'inst':>4s} {'time':>8s}")
    for tag in IDENTITY_TAGS:
        start = time.time()
        report = verify(tag, seed=args.seed, **(quick_sizes(tag) if args.quick else {}))
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
