"""One benchmark operation: one user command in a fresh interpreter.

Usage::

    PYTHONPATH=src python3 perfbench/op.py [--trace-out FILE] \\
        -- tune mesa --machine pentium4 --seed 1

The command after ``--`` is parsed by the program's own CLI parser and run
through the public API; only the workload, machine, seed and ``--jobs`` are
ever given, everything else is the program default.

The last line of standard output is one JSON object with ``t_start``, the
``time.monotonic()`` at which tuning starts (the clock is system-wide, so
the caller measures set-up time from its own launch time: interpreter
start, ``import repro``, argument parsing, machine and workload
construction), the paper quantities and ledger totals read from the returned
values, the tuned configurations, and (with ``--trace-out``) the per-layer
self times of the traced call sites.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _tune(args, machine) -> dict:
    from repro.core.peak import PeakTuner, evaluate_speedup
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    tuner = PeakTuner(
        machine,
        seed=args.seed,
        jobs=args.jobs,
        parallel_backend=args.backend,
        use_version_cache=not args.no_cache,
        use_prefix_cache=not args.no_prefix_cache,
        exec_tier=args.exec_tier,
    )
    t_start = time.monotonic()
    result = tuner.tune(workload, dataset=args.dataset)
    improvement = evaluate_speedup(workload, result.best_config, machine,
                                   exec_tier=args.exec_tier)
    ledger = result.ledger
    return {
        "t_start": t_start,
        "improvements": [improvement],
        "tuning_cycles": [ledger.total_cycles],
        "normalized_tuning_times": [],
        "configs": [[args.workload, sorted(result.best_config.enabled)]],
        "paper": [[result.method_used, sorted(result.best_config.enabled),
                   improvement, ledger.total_cycles]],
        "ledger": {
            "invocations": ledger.invocations,
            "program_runs": ledger.program_runs,
            "rating_wall_s": ledger.wall_seconds,
            "jobs": args.jobs or 0,
            "version_cache_hits": ledger.cache_hits,
            "prefix_compiles": ledger.prefix_compiles,
            "prefix_full_hits": ledger.prefix_full_hits,
        },
    }


def _fig7(args, machine) -> dict:
    from repro.experiments import figure7_experiment

    benchmarks = tuple(args.benchmarks) if args.benchmarks else None
    t_start = time.monotonic()
    entries = figure7_experiment(
        machine,
        benchmarks=benchmarks,
        datasets=("train", "ref") if args.ref else ("train",),
        seed=args.seed,
    )
    return {
        "t_start": t_start,
        "improvements": [e.improvement_pct for e in entries],
        "tuning_cycles": [e.tuning_cycles for e in entries],
        "normalized_tuning_times": [e.normalized_tuning_time for e in entries],
        "configs": [[e.benchmark, sorted(e.best_config.enabled)]
                    for e in entries],
        "paper": [[e.benchmark, e.method, e.dataset, sorted(e.best_config.enabled),
                   e.improvement_pct, e.tuning_cycles, e.normalized_tuning_time]
                  for e in entries],
        "ledger": {},
    }


def run(argv: list[str], trace_out: str | None) -> dict:
    from repro.cli import build_parser
    from repro.machine.config import machine_by_name

    args = build_parser().parse_args(argv)
    machine = machine_by_name(args.machine)
    command = {"tune": _tune, "fig7": _fig7}[args.command]
    if trace_out is None:
        return command(args, machine)

    from spans import Recorder, installed, self_times

    rec = Recorder()
    with installed(rec):
        out = command(args, machine)
    t_write = time.monotonic()
    rec.write_jsonl(trace_out)
    out["layers"] = self_times(rec)
    out["counters"] = dict(rec.counters)
    out["trace_write_s"] = time.monotonic() - t_write
    return out


def main() -> int:
    rest = sys.argv[1:]
    trace_out = None
    if rest[:1] == ["--trace-out"]:
        trace_out, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    try:
        out = run(rest, trace_out)
    except Exception:  # noqa: BLE001 - the boundary reports any failure
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": traceback.format_exc(limit=3)}))
        return 1
    out["ok"] = True
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
