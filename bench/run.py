"""Layered benchmark for monvar.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; monvar is imported from the checkout's
src/ only, and the run fails (exit 2, no result) when src/monvar is missing.

Workloads (single process, single thread, closed loop: one op at a time):

  closure_sweep    op = one start word under one reference presentation:
                   the bounded closure, the 31 closed-form pair checks, and
                   every certificate replayed and round-tripped through text.
  variety_queries  op = one satisfies or isoterm_for call on a seeded stream
                   of builtin, presented and composite handles.
  verify_cli       op = one `monvar verify` process.

Every pass of closure_sweep and variety_queries runs in a fresh interpreter
(bench/worker.py), so the successor memo starts empty.  With --trace 0 the
run times a set-up before each pass (at least SETUP_REPEATS in all), runs
passes until --seconds have gone, and prints the end-to-end metrics.  With --trace 1 it runs one untraced pass
and two traced passes of the same inputs, fails when their work counts
differ, and prints the per-layer metrics.  Either way the last stdout line is
the JSON result, and a result document with machine info, seed and sizes is
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("closure_sweep", "variety_queries", "verify_cli")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 100
# Ladder for the tail: the highest entry leaving at least ten samples of a
# pass beyond it, so the percentile depends on the workload, not on speed.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
VERIFY_COMMAND = (sys.executable, "-c", "import sys; from monvar.cli import main; sys.exit(main())", "verify")
# Same hash seed in every child, so set and dict layouts repeat between runs.
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    pass


def run_child(command, timeout=CHILD_TIMEOUT_S):
    """(wall seconds, exit code, stdout) of one child process, always reaped."""
    started = perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, env=ENV, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{command[1]} timed out after {timeout}s") from exc
    return perf_counter() - started, done.returncode, done.stdout, done.stderr


def worker(workload, seed, pass_index=0, *flags):
    command = [sys.executable, str(BENCH / "worker.py"), workload, "--seed", str(seed),
               "--pass-index", str(pass_index), *flags]
    elapsed, code, out, err = run_child(command)
    if code != 0:
        raise BenchError(f"worker {' '.join(command[2:])} exited {code}: {err.decode(errors='replace')[-2000:]}")
    if "--setup-only" in flags:
        return elapsed
    return json.loads(out.decode().splitlines()[-1])


def verify_process():
    """One `monvar verify` process as a pass record."""
    elapsed, code, out, _ = run_child(VERIFY_COMMAND)
    problems = oracles.verify_output_problems(code, out)
    return {"op_s": [elapsed], "decided": int(code in (0, 1)), "failures": ["; ".join(problems)] if problems else [],
            "elapsed_s": elapsed, "stdout_bytes": len(out)}


def tail_percentile(ops_per_pass: int) -> float:
    best = 50
    for p in PERCENTILES:
        if ops_per_pass - math.ceil(p / 100 * ops_per_pass) >= 10:
            best = p
    return best


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(workload, seed, seconds):
    # CPU speed on a shared machine drifts within seconds, so set-ups are
    # sampled between passes across the whole run and op statistics pool
    # every pass.
    setup, passes = [], []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        setup.append(worker(workload, seed, 0, "--setup-only"))
        passes.append(verify_process() if workload == "verify_cli" else worker(workload, seed, len(passes)))
    while len(setup) < SETUP_REPEATS:
        setup.append(worker(workload, seed, 0, "--setup-only"))
    op_s = [t for p in passes for t in p["op_s"]]
    tail_p = tail_percentile(len(passes[0]["op_s"]))
    attempted = len(op_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (attempted / sum(p["elapsed_s"] for p in passes), "1/s"),
        "op_p50_ms": (1000 * percentile(op_s, 50), "ms"),
        "op_tail_ms": (1000 * percentile(op_s, tail_p), "ms"),
        "decided_share": (sum(p["decided"] for p in passes) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "op_tail_percentile": tail_p,
        "op_samples": attempted,
        "passes": len(passes),
        "setup_samples_s": setup,
        "pass_elapsed_s": [p["elapsed_s"] for p in passes],
    }
    return passes, metrics, extra


def unit_of(name: str) -> str:
    if name.endswith("_calls") or name in ("rewriting.states_visited", "rewriting.cert_steps",
                                          "lattices.elements", "scenarios.checks_verified"):
        return "count"
    if name.endswith("_share"):
        return "share"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def per_layer(workload, seed):
    untraced = worker(workload, seed, 0)
    OUT.mkdir(exist_ok=True)
    traced = [worker(workload, seed, 0, "--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}-{k}.jsonl"))
              for k in (1, 2)]
    first, second = traced
    mismatch = [key for key in first["work"] if first["work"][key] != second["work"].get(key)]
    layers = {key: value if value == second["layers"][key] else (value + second["layers"][key]) / 2
              for key, value in first["layers"].items()}
    ops = len(untraced["op_s"])
    untraced_rate = ops / untraced["elapsed_s"]
    traced_rate = 2 * ops / (first["elapsed_s"] + second["elapsed_s"])
    imports = [run_child((sys.executable, "-c", "import monvar"))[0] for _ in range(IMPORT_REPEATS)]
    layers["cli.import_s"] = statistics.median(imports)
    layers["cli.stdout_bytes"] = first.get("stdout_bytes", 0)
    layers["trace.ops_per_s"] = traced_rate
    layers["trace.untraced_ops_per_s"] = untraced_rate
    layers["trace.overhead_ratio"] = untraced_rate / traced_rate
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    extra = {"work_counts": first["work"], "work_count_mismatch": mismatch}
    return [untraced, first, second], metrics, extra


def closure_checks(workload, passes) -> list[str]:
    """Whole-pass checks of closure_sweep: the closed forms' Yes-pair count,
    and byte-identical certificate texts."""
    problems = []
    for p in passes if workload == "closure_sweep" else ():
        if p["size"]["decider_yes_pairs"] != sum(oracles.EXPECTED_YES_PAIRS.values()):
            problems.append(f"closed forms give {p['size']['decider_yes_pairs']} decider-Yes pairs")
        if p["certificates_sha256"] != oracles.CLOSURE_CERTIFICATES_SHA256:
            problems.append("certificate texts differ from the pinned digest")
    return problems


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "monvar" / "__init__.py").is_file():
        print(f"error: no monvar sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            passes, metrics, extra = per_layer(args.workload, args.seed)
        else:
            passes, metrics, extra = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]] + closure_checks(args.workload, passes)
    sizes = passes[0].get("size", {"scenarios": len(oracles.VERIFY_STATUSES)})
    correct = not failures and not extra.get("work_count_mismatch")
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "sizes": sizes,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"result document: {path}")
    for failure in failures[:5]:
        print(f"FAILED: {failure}")
    if extra.get("work_count_mismatch"):
        print(f"FAILED: the two traced passes differ in {', '.join(extra['work_count_mismatch'])}")
    print(json.dumps({key: document[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
