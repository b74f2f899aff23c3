#!/usr/bin/env python3
"""polyshift benchmark: seeded CLI job lists, timed end to end, with an
optional traced run that splits the time by layer.

    python3 perfbench/run.py --workload variance --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Load is a closed loop: one client, one process, one thread; each job is one
in-process call to ``polyshift.cli.main(argv)`` with stdout captured.  The
job list is run in passes until ``--seconds`` have elapsed.  Outputs are checked after timing.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of two traced passes (whose call counts must
agree) and their overhead over one untraced pass.  A result record with the
per-job times is written under ``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5


def _load_program():
    """Import polyshift from the checkout's source tree, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polyshift", "cli.py")):
        print(f"polyshift sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def run_job(job) -> tuple[float, int, str, str | None]:
    """One timed CLI call: (seconds, exit code, stdout, exception text)."""
    from polyshift import cli

    buf = io.StringIO()
    err = None
    rc = 1
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
            err = f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
            err = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, rc, buf.getvalue(), err


def run_pass(jobs, tracer=None) -> dict:
    """Run the job list once; per-job times, outputs and errors."""
    times, outputs, errors = {}, {}, {}
    start = time.perf_counter()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = idx
        elapsed, rc, stdout, err = run_job(job)
        times[job.id] = elapsed
        outputs[job.id] = stdout
        if err is not None or rc != 0:
            errors[job.id] = err or f"exit code {rc}"
    return {"wall_s": time.perf_counter() - start, "times": times,
            "outputs": outputs, "errors": errors}


def check_passes(jobs, passes, checker) -> list[dict]:
    """Check every job of every pass; identical outputs are checked once."""
    from checks import digest

    verdicts: dict[tuple[str, str], list[str]] = {}
    failures = []
    for n, rec in enumerate(passes):
        for job in jobs:
            if job.id in rec["errors"]:
                failures.append({"pass": n, "job": job.id, "problems": [rec["errors"][job.id]]})
                continue
            out = rec["outputs"][job.id]
            key = (job.id, digest(out))
            if key not in verdicts:
                verdicts[key] = checker.check(job, out, rec["outputs"])
            if verdicts[key]:
                failures.append({"pass": n, "job": job.id, "problems": verdicts[key]})
    return failures


def measure_setup(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of the time from the set-up script's
    first statement to ready: importing polyshift and generating this
    workload's inputs.  Interpreter boot is left out; its jitter on a
    loaded host is larger than the import it precedes."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed)]
    samples = [
        float(subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True).stdout.split()[-1])
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(samples)


def timed_passes(jobs, seconds: float) -> list[dict]:
    """Passes of the job list until `seconds` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs))
    return passes


def git_sha() -> str:
    """The checkout's commit, read from .git; "unknown" outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(jobs, workload: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    """End-to-end metrics with tracing off: (passes, metrics, extra record)."""
    passes = timed_passes(jobs, seconds)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": measure_setup(workload, seed),
    }
    return passes, metrics, mc_throughput(jobs, passes)


def measure_traced(jobs, workload: str, seed: int) -> tuple[list, dict, dict]:
    """Per-layer metrics from two traced passes after one untraced pass."""
    import tracing

    passes = [run_pass(jobs)]
    tracers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)
        try:
            passes.append(run_pass(jobs, tracer))
        finally:
            restore()
        tracers.append(tracer)
    (first, calls), (second, calls_again) = (tracing.layer_metrics(t) for t in tracers)
    metrics = {
        name: value if name.endswith(".calls") else (value + second[name]) / 2
        for name, value in first.items()
    }
    metrics["trace.overhead_ratio"] = (
        (passes[1]["wall_s"] + passes[2]["wall_s"]) / 2 / passes[0]["wall_s"]
    )
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    span_file = os.path.join(OUT_DIR, "traces", f"{workload}-seed{seed}.jsonl")
    tracers[0].write(span_file)
    return passes, metrics, {"calls_repeat": calls == calls_again, "span_file": span_file}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, check and record one workload; returns the result record."""
    from checks import Checker
    from workloads import prepare

    jobs = prepare(workload, seed)
    with open(REFERENCE, encoding="utf-8") as fh:
        checker = Checker(json.load(fh).get(workload, {}))
    if trace:
        passes, metrics, extra = measure_traced(jobs, workload, seed)
    else:
        passes, metrics, extra = measure(jobs, workload, seed, seconds)

    failures = check_passes(jobs, passes, checker)
    if trace and not extra["calls_repeat"]:
        failures.append({"pass": None, "job": None,
                         "problems": ["call counts differ between the two traced passes"]})
    attempted = len(jobs) * len(passes)
    failed = len({(f["pass"], f["job"]) for f in failures})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": [{"id": j.id, "argv": list(j.argv), **j.meta} for j in jobs],
        "passes": [{"wall_s": p["wall_s"], "times": p["times"]} for p in passes],
        "metrics": metrics, "failures": failures, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, **extra,
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def mc_throughput(jobs, passes) -> dict:
    """Samples per second of the large- and small-body MC jobs (median pass)."""
    out = {}
    for size in ("large", "small"):
        sel = [j for j in jobs if j.kind == "mc" and j.meta["size"] == size]
        if sel:
            samples = sum(j.meta["samples"] for j in sel)
            out[f"mc_{size}_samples_per_s"] = statistics.median(
                samples / sum(p["times"][j.id] for j in sel) for p in passes
            )
    return out


def units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_reference() -> int:
    """Rewrite reference.json with the stdout digests of every job at the
    default seed, after checking the outputs semantically."""
    from checks import Checker, digest
    from workloads import WORKLOADS, prepare

    ref = {}
    for workload in WORKLOADS:
        jobs = prepare(workload, DEFAULT_SEED)
        rec = run_pass(jobs)
        failures = check_passes(jobs, [rec], Checker({}))
        if failures:
            print(json.dumps(failures, indent=1), file=sys.stderr)
            return 1
        ref[workload] = {j.label: digest(rec["outputs"][j.id]) for j in jobs}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own; the
    last line maps each workload to its result line."""
    from workloads import WORKLOADS

    results, worst = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        worst = max(worst, proc.returncode)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join("  " + line for line in lines[:-1]))
        results[workload] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results, sort_keys=True))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("variance", "law", "mc", "verify", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)
    _load_program()
    os.chdir(ROOT)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in units(bool(args.trace)).items()
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} "
          f"({record['failed']}/{record['attempted']} jobs)")
    for name in ("mc_large_samples_per_s", "mc_small_samples_per_s"):
        if name in record:
            print(f"{name} = {record[name]:.6g} samples/s")
    for f in record["failures"][:10]:
        print(f"FAILED {f['job']} (pass {f['pass']}): {'; '.join(f['problems'])}")
    print(json.dumps({"correct": not record["failures"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
