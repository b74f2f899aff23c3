"""Command-line interface.

Subcommands: volume, count, moments, distribution, verify, reeve-audit,
catalog.  Inputs are catalog construction names (``simplex:d``,
``slab:d:k``, ``reeve:n``, ``central-slab:d``) or files (``zonotope:path``,
``file:path``).  All rationals are emitted as "p/q" strings in lowest
terms; output is byte-deterministic for a fixed invocation, including the
Monte Carlo paths, whose seeds are always echoed.

Exit codes: 0 success (including expected-failure-confirmed), 1
verification failure, 2 input error, 3 broken internal invariant (codes 2
and 3 with a machine-readable ``{"error": ...}`` payload).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Union

from . import catalog
from .counting import (ShiftStream, ZonotopeSpec, stream_counts, zonotope_polytope,
                       zonotope_spec_from_json)
from .distributions import (
    CountDistribution,
    exact_distribution,
    exact_variance,
    mc_distribution,
)
from .errors import GeometryError, InvariantViolation
from .geometry import Polytope, polytope_from_json, polytope_to_json
from .verifier import FAIL, IDENTITY_TAGS, reeve_audit, verify

CONSTRUCTION_FORMS = (
    "simplex:<d>",
    "slab:<d>:<k>",
    "reeve:<n>",
    "central-slab:<d>",
    "zonotope:<file>",
    "file:<path>",
)


class InputError(GeometryError):
    pass


def parse_polytope_input(spec: str) -> Union[Polytope, ZonotopeSpec]:
    """Resolve a CLI input name to a polytope or zonotope spec."""
    name, _, arg = spec.partition(":")
    try:
        if name == "simplex":
            return catalog.standard_simplex(int(arg))
        if name == "slab":
            d_str, _, k_str = arg.partition(":")
            d, k = int(d_str), int(k_str)
            pieces = catalog.slab_pieces(d)
            if not 1 <= k <= d:
                raise InputError(f"slab piece index {k} outside 1..{d}")
            return pieces[k - 1]
        if name == "reeve":
            return catalog.reeve_tetrahedron(int(arg))
        if name == "central-slab":
            return catalog.central_slab(int(arg))
        if name == "zonotope":
            with open(arg, encoding="utf-8") as fh:
                return zonotope_spec_from_json(json.load(fh))
        if name == "file":
            with open(arg, encoding="utf-8") as fh:
                return polytope_from_json(json.load(fh))
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        raise InputError(f"bad input {spec!r}: {exc}") from exc
    raise InputError(
        f"unknown construction {spec!r}; expected one of {', '.join(CONSTRUCTION_FORMS)}"
    )


def _as_polytope(body) -> Polytope:
    if isinstance(body, ZonotopeSpec):
        return zonotope_polytope(body)
    return body


def _distribution_payload(dist: CountDistribution) -> dict:
    entries = {str(m): str(dist.probability(m)) for m in dist.support()}
    out = {"kind": dist.kind, "entries": entries}
    if dist.kind == "empirical":
        out["samples"] = dist.samples
        out["redraws"] = dist.redraws
    return out


def _distribution_csv(dist: CountDistribution) -> str:
    lines = ["count,probability"]
    for m in dist.support():
        lines.append(f"{m},{dist.probability(m)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: Optional[str]):
    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", out_path)


def _run_volume(args) -> int:
    body = parse_polytope_input(args.input)
    poly = _as_polytope(body)
    _emit_json(
        {
            "command": "volume",
            "input": args.input,
            "seed": args.seed,
            "dim": poly.dim,
            "volume": str(poly.volume()),
            "isLattice": poly.is_lattice,
        },
        args.out,
    )
    return 0


def _run_count(args) -> int:
    if args.shifts < 1:
        raise InputError(f"--shifts must be a positive integer, got {args.shifts}")
    body = parse_polytope_input(args.input)
    poly = _as_polytope(body)
    draws = list(stream_counts(ShiftStream(poly.dim, args.seed), poly, args.shifts))
    _emit_json(
        {
            "command": "count",
            "input": args.input,
            "seed": args.seed,
            "counts": [res.count for _, res in draws],
            "generic": [res.is_generic for _, res in draws],
            "shifts": [[str(c) for c in s] for s, _ in draws],
        },
        args.out,
    )
    return 0


def _run_moments(args) -> int:
    body = parse_polytope_input(args.input)
    poly = _as_polytope(body)
    report = exact_variance(poly)
    _emit_json(
        {
            "command": "moments",
            "input": args.input,
            "seed": args.seed,
            "mean": str(report.mean),
            "variance": str(report.variance),
        },
        args.out,
    )
    return 0


def _run_distribution(args) -> int:
    # a size of the other method would be silently ignored
    if args.method == "exact" and args.samples is not None:
        raise InputError("--method exact takes no --samples")
    if args.method == "mc" and args.cell_budget is not None:
        raise InputError("--method mc takes no --cell-budget")
    body = parse_polytope_input(args.input)
    poly = _as_polytope(body)
    if args.method == "exact":
        dist = exact_distribution(poly, 10**6 if args.cell_budget is None else args.cell_budget)
    else:
        dist = mc_distribution(poly, 100000 if args.samples is None else args.samples, args.seed)
    if args.format == "csv":
        _emit(_distribution_csv(dist), args.out)
    else:
        payload = {
            "command": "distribution",
            "input": args.input,
            "method": args.method,
            "seed": args.seed,
            "distribution": _distribution_payload(dist),
        }
        _emit_json(payload, args.out)
    return 0


def _run_verify(args) -> int:
    body = None
    if args.input:
        body = parse_polytope_input(args.input)
    report = verify(
        args.identity,
        instances=args.instances,
        shifts=args.shifts,
        n_max=args.n,
        seed=args.seed,
        body=body,
    )
    payload = report.to_json()
    payload["seed"] = args.seed
    _emit_json(payload, args.out)
    return 1 if report.status == FAIL else 0


def _run_reeve_audit(args) -> int:
    audit = reeve_audit(args.n, max_distribution_n=args.max_distribution_n)
    payload = audit.to_json()
    payload["seed"] = args.seed
    _emit_json(payload, args.out)
    return 0


def _run_catalog(args) -> int:
    if args.dump:
        body = parse_polytope_input(args.dump)
        poly = _as_polytope(body)
        _emit_json(polytope_to_json(poly), args.out)
        return 0
    _emit_json(
        {
            "command": "catalog",
            "seed": args.seed,
            "constructions": list(CONSTRUCTION_FORMS),
            "identities": list(IDENTITY_TAGS),
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyshift",
        description=(
            "Exact distribution, moments and identity checks for the number "
            "of lattice points captured by a randomly shifted integer polytope."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="construction name or file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("volume", help="exact volume of a body")
    common(p)
    p.set_defaults(func=_run_volume)

    p = sub.add_parser("count", help="lattice counts at seeded random shifts")
    common(p)
    p.add_argument("--shifts", type=int, default=1)
    p.set_defaults(func=_run_count)

    p = sub.add_parser("moments", help="exact mean and variance of the count")
    common(p)
    p.set_defaults(func=_run_moments)

    p = sub.add_parser("distribution", help="exact or Monte Carlo count law")
    common(p)
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=None, help="mc only; default 100000")
    p.add_argument("--cell-budget", type=int, default=None, dest="cell_budget",
                   help="exact only; default 10**6")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_run_distribution)

    p = sub.add_parser("verify", help="check one identity tag")
    p.add_argument("--identity", required=True, choices=IDENTITY_TAGS)
    p.add_argument("--input", default=None, help="optional explicit instance")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--shifts", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="maximum dilation factor")
    common(p, with_input=False)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("reeve-audit", help="four-way tetrahedron variance audit")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--max-distribution-n", type=int, default=4)
    common(p, with_input=False)
    p.set_defaults(func=_run_reeve_audit)

    p = sub.add_parser("catalog", help="list constructions or dump one as JSON")
    p.add_argument("--dump", default=None, help="construction to serialize")
    common(p, with_input=False)
    p.set_defaults(func=_run_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: a parser is a web of reference cycles, and one
    # left behind per call lingers until a full garbage collection
    return build_parser()


def main(argv=None) -> int:
    """Exit codes: 0 success, 1 identity violated, 2 input error, 3 broken
    internal invariant; codes 2 and 3 print a JSON ``error`` payload."""
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            # random.Random takes |seed|, so a negative seed would replay the
            # shifts and catalog instances of another seed
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (GeometryError, InvariantViolation) as exc:
        sys.stdout.write(
            json.dumps({"error": str(exc)}, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        return 3 if isinstance(exc, InvariantViolation) else 2


if __name__ == "__main__":
    sys.exit(main())
