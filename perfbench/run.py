"""treecut benchmark: one run of one workload, metrics as JSON on the last line.

    python3 perfbench/run.py --workload exact_dp --seed 1 --seconds 30 --trace 0

A run starts fresh worker processes (``workloads.py``), one per pass, while
another pass still fits in ``--seconds`` (at least one pass), so every pass
pays the full set-up and meets cold caches.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  medians over the passes, plus extra set-up-only processes for
  ``setup_s``.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics from the traced passes' spans; ``trace_overhead``
  compares the two kinds of pass.

Every pass checks its outputs; a failed check makes ``correct`` false.
``--smoke`` runs every workload at reduced sizes (used by
``test_smoke.py``).  The run exits non-zero without a result when the
treecut sources are missing or a pass fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up-only processes added to the passes' own set-ups for ``setup_s``.
SETUP_PROBES = 2
#: Criterion 1's wall-clock budget in the acceptance battery.
C01_BUDGET_S = 10.0
PASS_TIMEOUT_S = 170


def spawn(workload: str, args, run_id: str, index: int, trace: bool, extra=()) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes on Linux
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--spawned-at", repr(spawned_at), "--run-id", run_id,
        "--pass-index", str(index), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: pass {index} of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def layer_metrics(spans: list, cpu_s: float) -> dict:
    """Per-layer metrics of one traced pass; a layer the workload never calls reads 0."""
    own = self_times(spans)
    busy = defaultdict(float)
    work = defaultdict(float)
    max_bits = defaultdict(int)
    duration = defaultdict(float)
    for span in spans:
        if span["parent"] is None:
            continue
        bucket = span["bucket"]
        busy[bucket] += own[span["id"]]
        duration[bucket] += span["end"] - span["start"]
        for key, value in span["work"].items():
            if key == "max_bits":
                max_bits[bucket] = max(max_bits[bucket], value)
            else:
                work[bucket, key] += value

    def rate(bucket, key):
        return work[bucket, key] / busy[bucket] if busy[bucket] > 0 else 0.0

    w1, w2 = "simulate.size_two.w1", "simulate.size_two.w2"
    simulate = ("simulate.size_two.w1", "simulate.size_two.w2", "simulate.size_one", "simulate.explicit")
    return {
        "counts.exact_s": busy["counts.exact"],
        "counts.exact_terms": work["counts.exact", "terms"],
        "counts.exact_max_bits": max_bits["counts.exact"],
        "counts.float_s": busy["counts.float"],
        "counts.float_terms": work["counts.float", "terms"],
        "counts.float_terms_per_s": rate("counts.float", "terms"),
        "moments.rational_s": busy["moments.rational"],
        "moments.rational_terms": work["moments.rational", "terms"],
        "moments.rational_terms_per_s": rate("moments.rational", "terms"),
        "moments.rational_max_bits": max_bits["moments.rational"],
        "moments.float_s": busy["moments.float"],
        "moments.float_terms": work["moments.float", "terms"],
        "moments.float_terms_per_s": rate("moments.float", "terms"),
        "moments.longdouble_s": busy["moments.longdouble"],
        "limits.s": busy["limits"],
        "analysis.s": busy["analysis"],
        "verify.c01_budget_used": duration["verify.c01"] / C01_BUDGET_S,
        "cli.probs_s": busy["cli.probs"],
        "simulate.size_s": busy[w1] + busy[w2] + busy["simulate.size_one"],
        "simulate.samples": sum(work[b, "samples"] for b in simulate),
        "simulate.size_two.samples_per_s": rate(w1, "samples"),
        "simulate.size_two.cuts": work[w1, "cuts"],
        "simulate.size_two.cuts_per_s": rate(w1, "cuts"),
        "simulate.size_one.samples_per_s": rate("simulate.size_one", "samples"),
        "simulate.explicit.samples_per_s": rate("simulate.explicit", "samples"),
        "simulate.parallel_speedup": busy[w1] / busy[w2] if busy[w2] > 0 else 0.0,
        "cpu_s": cpu_s,
    }


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treecut" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no treecut sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"

    passes, traced, last = [], [], 0.0
    begin = time.monotonic()
    while not passes or time.monotonic() - begin + last < args.seconds:
        started = time.monotonic()
        if args.trace:
            passes.append(spawn(args.workload, args, run_id, 2 * len(traced), trace=False))
            traced.append(spawn(args.workload, args, run_id, 2 * len(traced) + 1, trace=True))
        else:
            passes.append(spawn(args.workload, args, run_id, len(passes), trace=False))
        last = time.monotonic() - started  # start no pass that would end past --seconds

    checks = [check for p in passes + traced for check in p["checks"]]
    failed = [check for check in checks if not check[1]]
    for name, _, detail in failed:
        sys.stderr.write(f"perfbench: check failed: {name} ({detail})\n")

    wall_s = statistics.median(p["wall_s"] for p in passes)
    if args.trace:
        per_pass = [layer_metrics(read_spans(p["trace_file"]), p["cpu_s"]) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / wall_s - 1.0
        wanted = declared["per_layer"]
    else:
        # set-up-only processes; one of them also computes central_cancel_err
        # when the timed phase builds no alpha = 0 float table
        cancels = [p["central_cancel_err"] for p in passes if p["central_cancel_err"] is not None]
        kinds = ["--setup-only"] * SETUP_PROBES
        if not cancels:
            kinds[0] = "--cancel-only"
        probes = [spawn(args.workload, args, run_id, -1, False, (kind,)) for kind in kinds]
        cancels = cancels or [probes[0]["central_cancel_err"]]
        setups = [p["setup_s"] for p in passes + probes]
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_ratio": (len(checks) - len(failed)) / len(checks),
            "central_cancel_err": statistics.median(cancels),
        }
        wanted = declared["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes + traced)
    print(f"# {args.workload} seed={args.seed} checks={len(checks)} pass wall_s: {walls}")
    print(f"fail_ratio {len(failed) / len(checks)!r} ratio")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
