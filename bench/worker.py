"""One pass of a workload in a fresh interpreter, so monvar's successor memo
starts empty.  Started by run.py with PYTHONPATH pointing at the checkout's
src/; prints one JSON object on its last stdout line.

  python3 bench/worker.py <workload> --seed N [--pass-index K] [--trace]
                          [--spans PATH] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import workloads
from spans import Tracer, summarize

# Size parameters: fixed, so every pass does the same amount of work.
CLOSURE_MAX_LEN = 8
CLOSURE_MAX_DEPTH = 8
QUERY_ROUNDS = 10
QUERY_MAX_LEN = 6
QUERY_MAX_DEPTH = 6


def make_inputs(workload: str, seed: int, pass_index: int):
    if workload == "closure_sweep":
        return workloads.closure_inputs(seed, pass_index, CLOSURE_MAX_LEN, CLOSURE_MAX_DEPTH)
    if workload == "variety_queries":
        return workloads.query_inputs(seed, pass_index, QUERY_ROUNDS, QUERY_MAX_LEN, QUERY_MAX_DEPTH)
    return None


def run_pass(workload: str, inputs, tracer):
    """Op records plus the workload's own result fields."""
    if workload == "closure_sweep":
        records, digest = workloads.closure_pass(inputs, tracer)
        size = {"max_word_length": CLOSURE_MAX_LEN, "max_depth": CLOSURE_MAX_DEPTH, "ops": len(records),
                "decider_yes_pairs": workloads.closure_confirmed_pairs(inputs)}
        return records, {"size": size, "certificates_sha256": digest}
    if workload == "variety_queries":
        records = workloads.query_pass(inputs, tracer)
        size = {"rounds": QUERY_ROUNDS, "queries": len(records),
                "max_word_length": QUERY_MAX_LEN, "max_depth": QUERY_MAX_DEPTH}
        return records, {"size": size}
    records, stdout_bytes = workloads.verify_in_process(tracer)
    return records, {"stdout_bytes": stdout_bytes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("closure_sweep", "variety_queries", "verify_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    inputs = make_inputs(args.workload, args.seed, args.pass_index)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    started = perf_counter()
    records, fields = run_pass(args.workload, inputs, tracer)
    elapsed = perf_counter() - started
    result = {
        "op_s": [r[0] for r in records],
        "decided": sum(r[1] for r in records),
        "failures": [r[2] for r in records if r[2] is not None],
        "elapsed_s": elapsed,
        **fields,
    }
    if tracer is not None:
        result["layers"], result["work"] = summarize(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
