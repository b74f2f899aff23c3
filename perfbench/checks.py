"""Output checks for benchmark jobs, run outside the timed region.

Each check takes a job and its captured stdout and returns a list of
problems (empty when the output is right).  Exact outputs are compared as
rationals; Monte Carlo outputs are tested statistically against exact
values computed here by an independent route.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

MC_SIGMAS = 5
MC_MIN_P = 1e-6
MIN_EXPECTED = 5.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of the chi-square law with integer degrees of freedom:
    Q(k/2, x/2), a finite series for even k and erfc plus a series for odd k."""
    y = stat / 2
    if dof % 2 == 0:
        term, total = 1.0, 1.0
        for i in range(1, dof // 2):
            term *= y / i
            total += term
        return math.exp(-y) * total
    total = math.erfc(math.sqrt(y))
    term = math.sqrt(y) / math.gamma(1.5)
    for i in range(1, (dof - 1) // 2 + 1):
        total += math.exp(-y) * term
        term *= y / (i + 0.5)
    return total


def _law(payload: dict) -> dict[int, Fraction]:
    return {int(m): Fraction(p) for m, p in payload["distribution"]["entries"].items()}


def _moments(law: dict[int, Fraction]) -> tuple[Fraction, Fraction]:
    mean = sum((m * p for m, p in law.items()), Fraction(0))
    second = sum((m * m * p for m, p in law.items()), Fraction(0))
    return mean, second - mean * mean


def _body(job):
    """The job's input as a polytope, through polyshift's own parser."""
    from polyshift.cli import parse_polytope_input

    return parse_polytope_input(job.argv[job.argv.index("--input") + 1])


def reeve_variance(n: int) -> Fraction:
    """Var of the count of the height-n Reeve tetrahedron from its layer
    indicators: 2 sum_{k<l} E[I_k I_l] + sum E[I_k] - (sum E[I_k])^2."""
    from polyshift.verifier import reeve_layer_mean, reeve_pair_expectation

    means = sum((reeve_layer_mean(n, k) for k in range(1, n + 1)), Fraction(0))
    pairs = sum(
        (reeve_pair_expectation(n, k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)),
        Fraction(0),
    )
    return 2 * pairs + means - means * means


class Checker:
    """Checks outputs; caches the exact values it computes per input."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self._exact_var: dict[str, Fraction] = {}
        self._exact_law: dict[str, dict[int, Fraction]] = {}

    def check(self, job, stdout: str, outputs: dict[str, str]) -> list[str]:
        """Problems with one job's stdout; `outputs` maps job ids of the
        same pass to their stdout, for checks across jobs."""
        want = self.reference.get(job.label)
        if want is not None and digest(stdout) != want:
            return ["stdout differs from the reference digest"]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        if "error" in payload:
            return [f"error payload: {payload['error']}"]
        try:
            return getattr(self, f"_check_{job.kind}")(job, payload, outputs)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            return [f"malformed output: {exc!r}"]

    def _exact_variance(self, job) -> Fraction:
        key = job.label
        if key not in self._exact_var:
            from polyshift.distributions import exact_variance

            self._exact_var[key] = exact_variance(_body(job)).variance
        return self._exact_var[key]

    def _check_moments(self, job, payload, outputs) -> list[str]:
        problems = []
        vol = Fraction(job.meta["volume"])
        mean, var = Fraction(payload["mean"]), Fraction(payload["variance"])
        if mean != vol:
            problems.append(f"mean {mean} != volume {vol}")
        frac = vol - math.floor(vol)
        if var < frac * (1 - frac):
            problems.append(f"variance {var} below {{v}}(1-{{v}}) = {frac * (1 - frac)}")
        if "reeve" in job.meta:
            want = reeve_variance(job.meta["reeve"])
            if var != want:
                problems.append(f"variance {var} != layer-oracle variance {want}")
        d, n = job.meta.get("cross", (None, None))
        if d == 3 and n > 1:
            base = outputs.get("moments:cross3x1")
            if base is not None:
                want = n * n * Fraction(json.loads(base)["variance"])
                if var != want:
                    problems.append(f"Var({n}P) = {var} != n^2 Var(P) = {want}")
        return problems

    def _check_law(self, job, payload, outputs) -> list[str]:
        law = _law(payload)
        problems = []
        if sum(law.values()) != 1 or min(law.values()) <= 0:
            problems.append("probabilities are not positive or do not sum to 1")
        mean, var = _moments(law)
        vol = Fraction(job.meta["volume"])
        if mean != vol:
            problems.append(f"law mean {mean} != volume {vol}")
        want = self._exact_variance(job)
        if var != want:
            problems.append(f"law variance {var} != lattice-sum variance {want}")
        return problems

    def _check_mc(self, job, payload, outputs) -> list[str]:
        dist = payload["distribution"]
        n = dist["samples"]
        if n != job.meta["samples"]:
            return [f"{n} samples, asked for {job.meta['samples']}"]
        law = _law(payload)
        freqs = {m: p * n for m, p in law.items()}
        if any(f.denominator != 1 for f in freqs.values()) or sum(freqs.values()) != n:
            return ["empirical frequencies do not sum to the sample count"]
        mean, var = _moments(law)
        vol = Fraction(job.meta["volume"])
        se = math.sqrt(var / n)
        if abs(float(mean - vol)) > MC_SIGMAS * se:
            return [f"sample mean {float(mean):.5f} is over {MC_SIGMAS} SE ({se:.5f}) from {vol}"]
        if job.meta["size"] == "small":
            p = self._chi2_p(job, freqs, n)
            if not p > MC_MIN_P:
                return [f"chi-square p-value {p:.3g} against the exact law"]
        return []

    def _chi2_p(self, job, freqs, n) -> float:
        """Goodness of fit against the exact law, pooling the rarest atoms
        until every expected count reaches MIN_EXPECTED."""
        key = job.label
        if key not in self._exact_law:
            from polyshift.distributions import exact_distribution

            exact = exact_distribution(_body(job))
            self._exact_law[key] = {m: exact.probability(m) for m in exact.support()}
        exact = self._exact_law[key]
        if set(freqs) - set(exact):
            return 0.0
        bins = sorted(([float(p * n), float(freqs.get(m, 0))] for m, p in exact.items()))
        while len(bins) > 1 and bins[0][0] < MIN_EXPECTED:
            e, o = bins.pop(0)
            bins[0][0] += e
            bins[0][1] += o
            bins.sort()
        stat = sum((o - e) ** 2 / e for e, o in bins)
        return chi2_sf(stat, len(bins) - 1) if len(bins) > 1 else 1.0

    def _check_verify(self, job, payload, outputs) -> list[str]:
        if payload["identity"] != job.meta["tag"]:
            return [f"report for {payload['identity']}, asked for {job.meta['tag']}"]
        if payload["status"] not in ("pass", "expected-failure-confirmed"):
            return [f"status {payload['status']}"]
        return []
