"""One pass of a benchmark workload, run in a fresh Python process.

``run.py`` starts this script once per pass.  The pass sets up (imports
treecut, builds the family specs, solves their constants), runs the
workload's timed phase, then checks the outputs in an untimed phase and
prints one JSON object as its last line of standard output.

The timed phase only calls public functions of treecut.  With
``--trace 1`` a span is recorded around each call, under a root span for
the phase, and the spans are written as JSON lines when the pass ends.
With ``--trace 0`` no span is recorded and no file is written.

    python3 perfbench/workloads.py --workload exact_dp --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent> --run-id r --pass-index 0
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from treecut import (  # noqa: E402
    ONE_SIDED,
    TWO_SIDED,
    ExperimentConfig,
    TollSpec,
    binary,
    cayley,
    compute_counts,
    estimate_delta,
    estimate_mu,
    family_independence_check,
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
    normalize_moments,
    one_sided_moments,
    ordered,
    run_experiment,
    shifted_moments,
    solve_constants,
    two_sided_moments,
)
from treecut import cli  # noqa: E402
from treecut.simulate import EXPLICIT  # noqa: E402

# Full sizes are the reference sizes; smoke sizes only exercise every call.
FULL = dict(
    exact_n=300, probs_n=600,
    float_n=10_000, mu_n=4000, longdouble_n=2000,
    two_n=2000, two_samples=8192, one_n=200, one_samples=100_000,
    explicit_n=30, explicit_samples=4096,
)
SMOKE = dict(
    exact_n=40, probs_n=60,
    float_n=1000, mu_n=600, longdouble_n=300,
    two_n=200, two_samples=8192, one_n=50, one_samples=5000,
    explicit_n=10, explicit_samples=300,
)

#: sha256 of ``treecut probs --kind C --alpha0 1 --alpha1 1 --n N`` output,
#: recorded from the library as first benchmarked.
PROBS_SHA256 = {
    600: "436d6022a81940900ff225f1e5b8f482d30c8b197e7f8706ddf1fab19ffff1af",
    60: "c920f3341771cf8f469cc3169bbd2fda3f8193584210ba08464913ffc6826e6e",
}

#: central_cancel_err is reported no lower than the float64 unit roundoff,
#: so that an exactly cancelling kernel reads as one rounding unit, not 0.
UNIT_ROUNDOFF = 2.0**-53


def _cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# ---------------------------------------------------------------------------
# Tracing (benchmark side: spans around calls into treecut)
# ---------------------------------------------------------------------------


class Tracer:
    """Records one span per call when enabled; calls straight through when not.

    A span holds the called function as ``<layer>.<function>``, a case
    label, the per-layer metric bucket it is charged to, start and end
    (``perf_counter`` seconds), the id of the enclosing group span and
    work counters.  ``work`` counters come from the call's arguments;
    ``result_work`` derives counters from its output, after the span has
    ended.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._parent = None

    @contextlib.contextmanager
    def group(self, name: str, case: str = ""):
        """A span around several calls, such as the timed phase (the root)."""
        if not self.enabled:
            yield
            return
        span = self._span(name, case, name, time.perf_counter(), None, {})
        self.spans.append(span)
        outer, self._parent = self._parent, span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._parent = outer

    def call(self, bucket, case, fn, *args, work=None, result_work=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        counters = dict(work or {})
        if result_work is not None:
            counters.update(result_work(result))
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self.spans.append(self._span(name, case, bucket, start, end, counters))
        return result

    def _span(self, name, case, bucket, start, end, work):
        return {
            "run": self.run_id, "id": len(self.spans), "parent": self._parent, "name": name,
            "case": case, "bucket": bucket, "start": start, "end": end, "work": work,
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# Work counters computed from call arguments, independent of how a kernel
# folds its sums.


def counts_terms(n_max: int) -> int:
    """Sum of (n - 1) over 2 <= n <= n_max: convolution terms of the recurrence."""
    return n_max * (n_max - 1) // 2


def dp_terms(variant: str, n_max: int, s_max: int) -> int:
    per_n = (s_max + 1) * (s_max + 2) // 2 if variant == TWO_SIDED else s_max
    return counts_terms(n_max) * per_n


def _fraction_bits(values) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def counts_bits(counts) -> dict:
    return {"max_bits": _fraction_bits(counts.exact[1:])}


def table_bits(table) -> dict:
    return {"max_bits": max(_fraction_bits(row[1:]) for row in table.rows)}


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------


def exact_dp(tr: Tracer, sizes: dict, fams: dict, consts: dict, seed: int) -> dict:
    n = sizes["exact_n"]
    toll0 = TollSpec(alpha=0, size_one_cost=0)
    counts, c01 = {}, {}
    with tr.group("verify.c01", "criterion 1 shape"):
        for name in ("cayley", "binary", "ordered"):
            counts[name] = tr.call(
                "counts.exact", f"c01/{name}", compute_counts, fams[name], n, exact_cutoff=n,
                work={"terms": counts_terms(n)}, result_work=counts_bits,
            )
            c01[name] = tr.call(
                "moments.rational", f"c01/{name}", two_sided_moments, counts[name], toll0, n, 2,
                mode="rational", work={"terms": dp_terms(TWO_SIDED, n, 2)}, result_work=table_bits,
            )
    one = tr.call(
        "moments.rational", "one_sided/a1/binary", one_sided_moments, counts["binary"],
        TollSpec(alpha=1), n, 2, mode="rational",
        work={"terms": dp_terms(ONE_SIDED, n, 2)}, result_work=table_bits,
    )
    probs_n = sizes["probs_n"]
    path = OUT / f"probs-{os.getpid()}.csv"
    argv = ["probs", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--n", str(probs_n), "--out", str(path)]
    code = tr.call("cli.probs", f"probs/ordered/n{probs_n}", cli.main, argv)
    return {"c01": c01, "one_sided": one, "probs": (probs_n, code, path)}


def float_asymptotics(tr: Tracer, sizes: dict, fams: dict, consts: dict, seed: int) -> dict:
    n, mu_n = sizes["float_n"], sizes["mu_n"]
    out = {}
    for name in ("ordered", "cayley"):
        con = consts[name]
        counts = tr.call(
            "counts.float", name, compute_counts, fams[name], n, exact_cutoff=1,
            work={"terms": counts_terms(n)},
        )

        def dp(fn, variant, alpha, n_max, s_max):
            return tr.call(
                "moments.float", f"{variant}/a{alpha}/{name}", fn, counts, TollSpec(alpha=alpha),
                n_max, s_max, mode="float", work={"terms": dp_terms(variant, n_max, s_max)},
            )

        dp(one_sided_moments, ONE_SIDED, 0, n, 2)
        alpha1 = dp(two_sided_moments, TWO_SIDED, 1, n, 3)
        report1 = tr.call("analysis", f"normalize/a1/{name}", normalize_moments, alpha1, con)
        half = dp(two_sided_moments, TWO_SIDED, 0.5, n, 4)
        delta = tr.call("analysis", f"estimate_delta/{name}", estimate_delta, half, con)
        tr.call("analysis", f"normalize/a0.5/{name}", normalize_moments, half, con, delta=delta.delta)
        quarter = dp(two_sided_moments, TWO_SIDED, 0.25, mu_n, 2)
        mu = tr.call("analysis", f"estimate_mu/{name}", estimate_mu, quarter)
        alpha0 = dp(two_sided_moments, TWO_SIDED, 0, n, 4)
        out[name] = {"counts": counts, "alpha1": report1, "half": half, "delta": delta, "mu": mu, "alpha0": alpha0}
    ld_n = sizes["longdouble_n"]
    out["longdouble"] = tr.call(
        "moments.longdouble", "two_sided/a0.5/ordered", two_sided_moments, out["ordered"]["counts"],
        TollSpec(alpha=0.5), ld_n, 4, mode="float", dtype=np.longdouble,
        work={"terms": dp_terms(TWO_SIDED, ld_n, 4)},
    )
    out["limits"] = [
        tr.call("limits", "two_sided_half/s8", limit_moments_two_sided_half, 8),
        tr.call("limits", "two_sided/a1/s8", limit_moments_two_sided, 1.0, 8),
        tr.call("limits", "one_sided/a1/s8", limit_moments_one_sided, 1.0, 8),
    ]
    return out


def monte_carlo(tr: Tracer, sizes: dict, fams: dict, consts: dict, seed: int) -> dict:
    n2, s2 = sizes["two_n"], sizes["two_samples"]
    two = ExperimentConfig(family=fams["ordered"], variant=TWO_SIDED, alpha=1.0, n=n2, samples=s2, seed=seed, workers=1)
    two_work = {"samples": s2, "cuts": s2 * (n2 - 1)}
    w1 = tr.call("simulate.size_two.w1", "two/a1/ordered/w1", run_experiment, two, work=two_work)
    w2 = tr.call(
        "simulate.size_two.w2", "two/a1/ordered/w2", run_experiment, dataclasses.replace(two, workers=2),
        work=two_work,
    )
    one = ExperimentConfig(
        family=fams["ordered"], variant=ONE_SIDED, alpha=1.0, n=sizes["one_n"], samples=sizes["one_samples"], seed=seed,
    )
    r_one = tr.call("simulate.size_one", "one/a1/ordered", run_experiment, one, work={"samples": one.samples})
    explicit = ExperimentConfig(
        family=fams["cayley"], variant=TWO_SIDED, alpha=1.0, n=sizes["explicit_n"], samples=sizes["explicit_samples"],
        seed=seed, engine=EXPLICIT,
    )
    r_x = tr.call(
        "simulate.explicit", "two/a1/cayley", run_experiment, explicit, work={"samples": explicit.samples},
    )
    return {"w1": w1, "w2": w2, "runs": [(two, w1), (one, r_one), (explicit, r_x)]}


PHASES = {"exact_dp": exact_dp, "float_asymptotics": float_asymptotics, "monte_carlo": monte_carlo}


# ---------------------------------------------------------------------------
# Untimed output checks: each is (name, passed, detail)
# ---------------------------------------------------------------------------


def central_cancel_err(table, n: int) -> float:
    """max over s = 2..4 of |E(X_n - E X_n)^s| / (E X_n)^s from a float table.

    On a two-sided alpha = 0 table the cost is deterministic, so every
    central moment is exactly 0 and the value is pure cancellation error.
    """
    mean = float(table.moment(n, 1))
    worst = max(abs(float(shifted_moments(table, lambda _: mean, s, [n])[0])) / mean**s for s in (2, 3, 4))
    return max(worst, UNIT_ROUNDOFF)


def cancel_err_standalone(sizes: dict, fams: dict) -> float:
    """central_cancel_err for workloads whose timed phase builds no such table."""
    n = sizes["float_n"]
    worst = 0.0
    for name in ("ordered", "cayley"):
        counts = compute_counts(fams[name], n, exact_cutoff=1)
        worst = max(worst, central_cancel_err(two_sided_moments(counts, TollSpec(alpha=0), n, 4, mode="float"), n))
    return worst


def check_exact_dp(out: dict, sizes: dict, fams: dict, consts: dict) -> list:
    checks = []
    n_max = sizes["exact_n"]
    for name, table in out["c01"].items():
        bad = [
            n for n in range(1, n_max + 1)
            if table.moment(n, 1) != n - 1 or table.moment(n, 2) - table.moment(n, 1) ** 2 != 0
        ]
        checks.append((f"c01/{name}: mean n-1, variance 0 exactly", not bad, f"first bad n: {bad[:1]}"))
    exact = out["one_sided"]
    counts = compute_counts(fams["binary"], n_max, exact_cutoff=1)
    approx = one_sided_moments(counts, TollSpec(alpha=1), n_max, 2, mode="float")
    worst = max(
        abs(approx.moment(n, s) / float(exact.moment(n, s)) - 1) for n in range(1, n_max + 1) for s in range(3)
    )
    checks.append(("one-sided rational vs float DP within 1e-12", worst <= 1e-12, f"max rel gap {worst:.2e}"))
    probs_n, code, path = out["probs"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    ok = code == 0 and digest == PROBS_SHA256[probs_n]
    checks.append((f"probs --n {probs_n} output bytes match the recorded digest", ok, f"exit {code}, sha256 {digest}"))
    return checks


def check_float_asymptotics(out: dict, sizes: dict, fams: dict, consts: dict) -> list:
    checks = []
    n = sizes["float_n"]
    for name in ("ordered", "cayley"):
        res = out[name]
        means = res["alpha0"].row(1)[1:]
        gap = float(np.max(np.abs(means / (2.0 * np.arange(1, n + 1) - 1.0) - 1.0)))
        checks.append((f"{name}: alpha=0 two-sided mean is 2n-1 within 1e-10", gap <= 1e-10, f"max rel gap {gap:.2e}"))
        fit = res["delta"]
        target = consts[name].sigma / math.sqrt(2.0 * math.pi)
        off = abs(fit.free_coefficient / target - 1)
        ok = off <= 0.03 and fit.stability <= 0.05
        checks.append((f"{name}: alpha=1/2 free-fit coefficient within 3%, delta stable within 5%", ok,
                       f"coefficient off {off:.2e}, stability {fit.stability:.2e}"))
        mu = res["mu"]
        checks.append((f"{name}: alpha=1/4 mu stable within 5%", mu.stability <= 0.05, f"stability {mu.stability:.2e}"))
    # criterion 6's band, at the largest n of the grid
    rows = out["ordered"]["alpha1"].rows
    worst = max(row.rel_error for row in rows if row.n == rows[-1].n)
    checks.append(("ordered: alpha=1 normalized moments s<=3 within 3% of the limit", worst <= 0.03, f"max {worst:.2e}"))
    # criterion 7: the normalized gap between families shrinks along the grid
    for s in (1, 2, 3):
        table = family_independence_check(out["cayley"]["alpha1"], out["ordered"]["alpha1"], s)
        checks.append((f"alpha=1 family gap s={s} strictly decreasing", table.strictly_decreasing, ""))
    ld = out["longdouble"]
    half = out["ordered"]["half"]
    ld_n = ld.n_max
    worst = max(float(np.max(np.abs(ld.row(s)[1:] / half.row(s)[1 : ld_n + 1] - 1))) for s in range(5))
    checks.append(("longdouble vs float64 raw moments within 1e-9", worst <= 1e-9, f"max rel gap {worst:.2e}"))
    one = out["limits"][2].m
    gap = max(abs(one[1] - math.sqrt(math.pi / 8.0)), abs(one[2] - 8.0 / 15.0))
    checks.append(("one-sided alpha=1 limit moments match the closed forms", gap <= 1e-12, f"gap {gap:.1e}"))
    return checks


def check_monte_carlo(out: dict, sizes: dict, fams: dict, consts: dict) -> list:
    checks = [("workers=1 and workers=2 results bit-identical", out["w1"] == out["w2"], "")]
    for config, stats in out["runs"]:
        counts = compute_counts(config.family, config.n, exact_cutoff=1)
        maker = one_sided_moments if config.variant == ONE_SIDED else two_sided_moments
        mean = float(maker(counts, TollSpec(alpha=config.alpha), config.n, 1, mode="float").moment(config.n, 1))
        z_score = abs(stats.moment_estimates[0] - mean) / stats.standard_errors[0]
        label = f"{config.engine} {config.variant} n={config.n}: mean within 4 SE of the float DP"
        checks.append((label, z_score <= 4.0, f"{z_score:.2f} SE"))
    return checks


CHECKS = {"exact_dp": check_exact_dp, "float_asymptotics": check_float_asymptotics, "monte_carlo": check_monte_carlo}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PHASES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cancel-only", action="store_true", help="set up, then only report central_cancel_err")
    args = parser.parse_args(argv)

    fams = {"cayley": cayley(), "binary": binary(), "ordered": ordered()}
    consts = {name: solve_constants(spec) for name, spec in fams.items()}
    setup_s = time.monotonic() - args.spawned_at
    sizes = SMOKE if args.smoke else FULL
    if args.setup_only or args.cancel_only:
        cancel = cancel_err_standalone(sizes, fams) if args.cancel_only else None
        print(json.dumps({"setup_s": setup_s, "central_cancel_err": cancel}))
        return 0

    tracer = Tracer(f"{args.run_id}-p{args.pass_index}", enabled=bool(args.trace))
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with tracer.group(f"workload.{args.workload}"):
        out = PHASES[args.workload](tracer, sizes, fams, consts, args.seed)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    checks = CHECKS[args.workload](out, sizes, fams, consts)
    cancel = None
    if args.workload == "float_asymptotics":
        n = sizes["float_n"]
        cancel = max(central_cancel_err(out[name]["alpha0"], n) for name in ("ordered", "cayley"))

    trace_file = None
    if tracer.enabled:
        trace_file = OUT / f"{tracer.run_id}.jsonl"
        tracer.write(trace_file)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss_mb,
        "checks": [[name, bool(ok), detail] for name, ok, detail in checks],
        "central_cancel_err": cancel, "trace_file": str(trace_file) if trace_file else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
