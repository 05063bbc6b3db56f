"""Repository benchmark: whole tuning runs, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_mgrid --seed 1 --seconds 60 --trace 0

Each operation is one user command (``repro tune ...`` or ``repro fig7
...``) run in a fresh interpreter by ``perfbench/op.py``, one at a time.  A
pass runs the workload's commands once at one program seed.  A run covers a
block of consecutive program seeds derived from ``--seed`` (the same seed
always gives the same block), one pass each, and repeats the block while it
fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics, as means over the passes.
``--trace 1`` runs the block's first pass three times -- untraced, traced,
traced -- and reports the per-layer self times from the traced passes, the
tracing overhead against the untraced pass, and the counters.  Both modes
check every tuned configuration's outputs against ``-O0``, and that repeats
of one seed agree.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MACHINE = "pentium4"
#: the whole run ends within this many seconds
RUN_DEADLINE_S = 170.0
#: time kept free after the last pass for the output check
CHECK_RESERVE_S = 15.0


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[tuple[str, ...], ...]  # one command per op, without --seed
    seeds_per_run: int

    def tune_seeds(self, seed: int) -> list[int]:
        """Program seeds of one run: a block of consecutive seeds; the
        benchmark's default seed 1 starts at the program's default seed 1."""
        k = self.seeds_per_run
        return list(range(k * (seed - 1) + 1, k * seed + 1))

    def passes(self, seed: int) -> list[list[list[str]]]:
        """One pass per program seed: every command at that seed."""
        return [[list(cmd) + ["--seed", str(s)] for cmd in self.commands]
                for s in self.tune_seeds(seed)]


def _tune(name: str, *extra: str) -> tuple[str, ...]:
    return ("tune", name, "--machine", MACHINE) + extra


WORKLOADS = {
    "tune_rbr_int": Workload(
        why="integer RBR tuning sections: rating bookkeeping heavy, final "
            "measurement negligible",
        commands=tuple(_tune(n) for n in ("mesa", "bzip2", "gzip")),
        seeds_per_run=3,
    ),
    "fig7_mgrid": Workload(
        why="the paper's Fig. 7 for mgrid: five tuners, dominated by "
            "simulated execution",
        commands=(("fig7", "--benchmarks", "mgrid", "--machine", MACHINE),),
        seeds_per_run=3,
    ),
    "tune_parallel": Workload(
        why="batch engine with --jobs 2: version and prefix caches, "
            "per-task feeds",
        commands=tuple(_tune(n, "--jobs", "2") for n in ("swim", "mgrid", "art")),
        seeds_per_run=6,
    ),
}

#: traced layers, in report order; each gives ``<layer>_s`` (self time)
LAYERS = (
    "machine.executor.run",
    "machine.jit.build_traces",
    "core.rating.rate",
    "core.rating.outliers.filter",
    "core.rating.mbr.solve",
    "runtime.save_restore.save_restore",
    "runtime.instrument.invoke",
    "workloads.env",
    "core.peak.final_measure",
    "compiler.pipeline.compile",
    "compiler.effects.costing",
    "machine.executor.codegen",
    "ir.validate.validate",
    "core.engine.batch",
    "machine.profiler.profile",
    "core.rating.consultant.consult",
    "core.peak.tune",
)

#: counters that must repeat exactly across repeats of one seed
EXACT_COUNTERS = (
    "runtime.ledger.invocations",
    "runtime.ledger.program_runs",
    "core.rating.ratings",
    "compiler.pipeline.compiles",
    "machine.executor.runs",
    "core.rating.outliers.filter_calls",
)

#: counts of one traced pass, summed over its operations
COUNTS = EXACT_COUNTERS + (
    "runtime.instrument.invocations",
    "core.peak.o3_measures",
    "core.engine.tasks",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "improvement_pct": "%",
    "tuning_mcycles": "Mcycles",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}_s": "s" for layer in LAYERS}
    units.update({
        "machine.executor.runs": "count",
        "core.rating.ratings": "count",
        "core.rating.converged_share": "ratio",
        "core.rating.outliers.filter_calls": "count",
        "runtime.instrument.invocations": "count",
        "core.peak.o3_measures": "count",
        "compiler.pipeline.compiles": "count",
        "compiler.pipeline.repeat_compile_share": "ratio",
        "core.engine.tasks": "count",
        "core.engine.worker_busy_share": "ratio",
        "core.engine.version_cache_hits": "count",
        "compiler.prefix.full_hit_share": "ratio",
        "runtime.ledger.invocations": "count",
        "runtime.ledger.program_runs": "count",
        "experiments.figure7.normalized_tuning_time": "ratio",
        "perfbench.setup_s": "s",
        "perfbench.trace_write_s": "s",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


# --------------------------------------------------------------------------- #
# running operations


@dataclass
class OpRun:
    argv: list[str]
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: float = 0.0
    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(argv: list[str], *, timeout: float, trace_out: Path | None = None) -> OpRun:
    """Run one operation in a fresh interpreter and time it from outside."""
    op = OpRun(argv, traced=trace_out is not None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path, err_path = WORK / "op.out", WORK / "op.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        launch = time.monotonic()
        cmd = [sys.executable, str(HERE / "op.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        # its own process group, so that a timeout also kills the pool workers
        proc = subprocess.Popen(cmd + ["--"] + argv, stdout=out, stderr=err,
                                cwd=ROOT, env=env, start_new_session=True)
        killer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            # wait4 reaps the child and reports the resources of it and of
            # every descendant it waited for (the pool workers)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        done = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
        err.seek(0)
        stderr_tail = err.read().decode(errors="replace")[-400:]
    op.wall_s = done - launch
    op.cpu_s = usage.ru_utime + usage.ru_stime
    op.rss_mb = usage.ru_maxrss / 1024.0
    try:
        op.result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        op.result = {}
    if proc.returncode != 0 or not op.result.get("ok"):
        op.problems.append(
            f"exit {proc.returncode}: {op.result.get('error') or stderr_tail}")
    else:
        op.setup_s = op.result["t_start"] - launch
    return op


def run_pass(ops: list[list[str]], deadline: float, *,
             trace_prefix: Path | None = None) -> list[OpRun]:
    """Run *ops* one at a time; stops at the first failure."""
    runs = []
    for i, argv in enumerate(ops):
        trace_out = None if trace_prefix is None else \
            trace_prefix.with_name(f"{trace_prefix.name}-op{i}.jsonl")
        runs.append(run_op(argv, timeout=deadline - time.monotonic(),
                           trace_out=trace_out))
        if not runs[-1].ok:
            break
    return runs


# --------------------------------------------------------------------------- #
# checks


def check_outputs(runs: list[OpRun]) -> int:
    """Output-check every tuned configuration; returns the checks made."""
    from check import output_problems

    verdicts: dict[tuple, list[str]] = {}
    for op in runs:
        for bench, flags in op.result.get("configs", []) if op.ok else []:
            key = (bench, tuple(flags))
            if key not in verdicts:
                verdicts[key] = output_problems(bench, flags, MACHINE)
            op.problems += [f"{bench} {' '.join(flags)}: {p}"
                            for p in verdicts[key]]
    return len(verdicts)


def check_repeats(runs: list[OpRun]) -> None:
    """Fail an operation whose returned quantities differ from the first
    run of the same command and seed, or -- for traced runs -- whose exact
    counters differ from the first traced run of it."""
    first: dict[tuple, dict] = {}
    first_traced: dict[tuple, dict] = {}
    for op in (op for op in runs if op.ok):
        key = tuple(op.argv)
        ledger = op.result.get("ledger", {})
        facts = {"paper": op.result.get("paper"),
                 "invocations": ledger.get("invocations"),
                 "program_runs": ledger.get("program_runs")}
        base = first.setdefault(key, facts)
        diff = [k for k in facts if facts[k] != base[k]]
        if op.traced:
            counts = {k: _counters(op).get(k) for k in EXACT_COUNTERS}
            base = first_traced.setdefault(key, counts)
            diff += [k for k in counts if counts[k] != base[k]]
        if diff:
            op.problems.append(f"differs between repeats of one seed: {diff}")


# --------------------------------------------------------------------------- #
# metrics


def _counters(op: OpRun) -> dict[str, float]:
    """Per-op counters from the trace and from the returned values."""
    res = op.result
    layers = res.get("layers", {})
    c = dict(res.get("counters", {}))

    def calls(layer: str) -> int:
        return layers.get(layer, (0.0, 0, 0.0))[1]

    c["machine.executor.runs"] = calls("machine.executor.run")
    c["core.rating.outliers.filter_calls"] = calls("core.rating.outliers.filter")
    c["runtime.instrument.invocations"] = calls("runtime.instrument.invoke")
    c["compiler.pipeline.compiles"] = calls("compiler.pipeline.compile")
    return c


def pass_metrics(runs: list[OpRun]) -> dict[str, float]:
    improvements = [x for op in runs for x in op.result["improvements"]]
    return {
        "wall_s": sum(op.wall_s for op in runs),
        "cpu_s": sum(op.cpu_s for op in runs),
        "improvement_pct": statistics.fmean(improvements),
        "tuning_mcycles": sum(x for op in runs for x in op.result["tuning_cycles"]) / 1e6,
    }


def layer_metrics(runs: list[OpRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    self_s = {layer: sum(op.result["layers"].get(layer, (0.0, 0, 0.0))[0] for op in runs)
              for layer in LAYERS}
    m = {f"{layer}_s": v for layer, v in self_s.items()}
    counts: dict[str, float] = {}
    for op in runs:
        for name, value in _counters(op).items():
            counts[name] = counts.get(name, 0) + value
    m.update({name: counts.get(name, 0) for name in COUNTS})
    m["core.rating.converged_share"] = _share(counts.get("core.rating.converged", 0),
                                              m["core.rating.ratings"])
    m["compiler.pipeline.repeat_compile_share"] = _share(
        counts.get("compiler.pipeline.repeat_compiles", 0), m["compiler.pipeline.compiles"])
    # rating wall the workers report, against the pool's capacity while
    # the parent waited on batches
    busy = sum(op.result["ledger"].get("rating_wall_s", 0.0) for op in runs)
    capacity = sum(op.result["layers"].get("core.engine.batch", (0.0, 0, 0.0))[2]
                   * op.result["ledger"].get("jobs", 0) for op in runs)
    m["core.engine.worker_busy_share"] = _share(busy, capacity)
    normalized = [x for op in runs
                  for x, e in zip(op.result["normalized_tuning_times"], op.result["paper"])
                  if e[1] != "WHL"]
    m["experiments.figure7.normalized_tuning_time"] = \
        statistics.fmean(normalized) if normalized else 0.0
    m["perfbench.setup_s"] = sum(op.setup_s for op in runs)
    m["perfbench.trace_write_s"] = sum(op.result["trace_write_s"] for op in runs)
    m["trace.wall_s"] = sum(op.wall_s for op in runs)
    m["trace.unattributed_s"] = (m["trace.wall_s"] - sum(self_s.values())
                                 - m["perfbench.setup_s"] - m["perfbench.trace_write_s"])
    return m


def cache_metrics(runs: list[OpRun]) -> dict[str, float]:
    """Process-backend cache counters of one pass; these vary run to run."""
    ledgers = [op.result["ledger"] for op in runs if op.result["ledger"]]
    compiles = sum(x.get("prefix_compiles", 0) for x in ledgers)
    return {
        "core.engine.version_cache_hits": sum(x.get("version_cache_hits", 0)
                                              for x in ledgers),
        "compiler.prefix.full_hit_share": _share(
            sum(x.get("prefix_full_hits", 0) for x in ledgers), compiles),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.fmean(d[k] for d in dicts) for k in dicts[0]}


def _spread(values: list[float]) -> str:
    return f"mean {statistics.fmean(values):.6g}, range {min(values):.6g}..{max(values):.6g}"


# --------------------------------------------------------------------------- #


def _all_ok(runs: list[OpRun]) -> bool:
    return all(op.ok for op in runs)


def measure_end_to_end(name: str, seed: int, seconds: float,
                       deadline: float) -> tuple[list[OpRun], dict, list[str]]:
    """Run the seed block's passes, repeating the block while it fits in
    *seconds*; metrics are means over passes (medians over operations for
    set-up time and peak RSS)."""
    start = time.monotonic()
    block = WORKLOADS[name].passes(seed)
    runs: list[OpRun] = []
    passes: list[list[OpRun]] = []
    while _all_ok(runs):
        t_block = time.monotonic()
        for ops in block:
            passes.append(run_pass(ops, deadline))
            runs += passes[-1]
            if not _all_ok(runs):
                break
        now = time.monotonic()
        took = now - t_block
        if now - start + took > seconds or now + took > deadline:
            break
    if not _all_ok(runs):
        return runs, {}, []
    metrics = _mean_of([pass_metrics(p) for p in passes])
    metrics["setup_s"] = statistics.median(op.setup_s for op in runs)
    metrics["peak_rss_mb"] = statistics.median(op.rss_mb for op in runs)
    lines = [f"passes   : {len(passes)} x {len(block[0])} op(s), program seeds "
             f"{WORKLOADS[name].tune_seeds(seed)}"]
    return runs, metrics, lines


def measure_layers(name: str, seed: int,
                   deadline: float) -> tuple[list[OpRun], dict, list[str]]:
    """The first program seed's pass three times: untraced, traced, traced."""
    ops = WORKLOADS[name].passes(seed)[0]
    prefix = WORK / f"trace-{name}-{seed}"
    plain = run_pass(ops, deadline)
    runs = list(plain)
    traced: list[list[OpRun]] = []
    while len(traced) < 2 and _all_ok(runs):
        traced.append(run_pass(ops, deadline, trace_prefix=prefix))
        runs += traced[-1]
    if not _all_ok(runs):
        return runs, {}, []
    metrics = _mean_of([layer_metrics(p) for p in traced])
    plain_wall = sum(op.wall_s for op in plain)
    metrics["trace.overhead_pct"] = (metrics["trace.wall_s"] / plain_wall - 1.0) * 100.0
    caches = [cache_metrics(p) for p in [plain] + traced]
    metrics.update(_mean_of(caches))
    layers = sum(metrics[f"{layer}_s"] for layer in LAYERS)
    harness = metrics["perfbench.setup_s"] + metrics["perfbench.trace_write_s"]
    lines = [
        f"passes   : untraced + {len(traced)} traced x {len(ops)} op(s), "
        f"spans -> {prefix.relative_to(ROOT)}-op*.jsonl",
        f"account  : traced wall {metrics['trace.wall_s']:.3f} s = layers "
        f"{layers:.3f} + harness {harness:.3f} + unattributed "
        f"{metrics['trace.unattributed_s']:.3f}",
    ]
    if any(op.result["ledger"].get("jobs") for op in plain):
        lines += [f"varies   : {key} {_spread([c[key] for c in caches])} over "
                  f"{len(caches)} passes (never an exact count)" for key in caches[0]]
        lines.append("note     : worker-internal time is invisible to the parent "
                     "trace; it shows as core.engine.batch self time")
    return runs, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    deadline = time.monotonic() + RUN_DEADLINE_S - CHECK_RESERVE_S
    if args.trace:
        runs, metrics, lines = measure_layers(args.workload, args.seed, deadline)
    else:
        runs, metrics, lines = measure_end_to_end(args.workload, args.seed,
                                                  args.seconds, deadline)
    checks = check_outputs(runs)
    check_repeats(runs)
    failed = [op for op in runs if not op.ok]
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    complete = bool(metrics) and set(units) <= set(metrics)

    print(f"workload : {args.workload} ({WORKLOADS[args.workload].why})")
    lines.append(f"checks   : {checks} configuration(s) output-checked against -O0")
    for line in lines:
        print(line)
    for name in units:
        if name in metrics:
            print(f"  {name:44s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'failed_share':44s} {len(failed) / len(runs):14.6g} ratio")
    for op in failed:
        print(f"FAILED {' '.join(op.argv)}: {'; '.join(op.problems)}")
    print(json.dumps({
        "correct": complete and not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
