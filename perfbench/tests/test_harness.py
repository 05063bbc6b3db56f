"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import numpy as np
import pytest

import check
import run
import spans
from repro.compiler.options import OptConfig
from repro.core.peak import PeakTuner, evaluate_speedup
from repro.core.rating.outliers import filter_outliers
from repro.machine.config import machine_by_name
from repro.machine.executor import Executor
from repro.workloads import get_workload

FLAGS = ("schedule-insns", "strength-reduce", "gcse")
MACHINE = machine_by_name("pentium4")


def _tune(name: str, method: str | None = None, **kwargs) -> tuple:
    workload = get_workload(name)
    result = PeakTuner(MACHINE, seed=3, **kwargs).tune(
        workload, method=method, flags=FLAGS)
    improvement = evaluate_speedup(workload, result.best_config, MACHINE)
    ledger = result.ledger
    return (result.method_used, result.best_config.key(), ledger.total_cycles,
            ledger.invocations, ledger.program_runs, improvement)


# --------------------------------------------------------------------------- #
# timing wrappers


@pytest.mark.parametrize("name, method, kwargs", [
    ("mesa", None, {}),                # RBR: save/restore, outlier filter
    ("mgrid", "MBR", {}),              # MBR: component solve
    ("swim", "CBR", {}),               # CBR
    ("mgrid", "WHL", {"exec_tier": 1}),  # whole-program runs on Tier 1
    ("swim", None, {"jobs": 2}),       # batch engine on forked workers
    ("swim", None, {"jobs": 2, "parallel_backend": "thread"}),
])
def test_wrapped_calls_return_what_unwrapped_calls_return(name, method, kwargs):
    plain = _tune(name, method, **kwargs)
    rec = spans.Recorder()
    with spans.installed(rec):
        traced = _tune(name, method, **kwargs)
    assert traced == plain
    layers = spans.self_times(rec)
    assert layers["core.peak.tune"][1] == 1
    assert layers["machine.executor.run"][1] > 0
    # only the recording thread records, so spans nest: the root span
    # covers every other span's self time
    selfs = sum(row[0] for row in layers.values())
    assert selfs == pytest.approx(layers["core.peak.tune"][2] + layers["core.peak.final_measure"][2])


def test_wrappers_are_removed_on_exit():
    original = Executor.__dict__["run"]
    with spans.installed(spans.Recorder()):
        assert Executor.__dict__["run"] is not original
    assert Executor.__dict__["run"] is original


def test_wrapped_function_passes_arguments_and_result_through():
    rec = spans.Recorder()
    wrapped = rec.wrap("filter", filter_outliers)
    x = np.array([1.0, 1.1, 0.9, 1.05, 50.0, 1.0])
    assert np.array_equal(wrapped(x, k=4.0), filter_outliers(x, k=4.0))
    assert rec.names == ["filter"]


def test_self_times_add_up_to_the_root_span():
    rec = spans.Recorder()
    outer = rec.begin("outer")
    for _ in range(3):
        inner = rec.begin("inner")
        rec.end(rec.begin("leaf"))
        rec.end(inner)
    rec.end(outer)
    layers = spans.self_times(rec)
    assert layers["inner"][1] == 3 and layers["leaf"][1] == 3
    assert sum(row[0] for row in layers.values()) == pytest.approx(layers["outer"][2])
    assert list(rec.parents) == [-1, 0, 1, 0, 3, 0, 5]


# --------------------------------------------------------------------------- #
# output check


def _op(flags: list[str]) -> run.OpRun:
    op = run.OpRun(["tune", "swim", "--seed", "1"], traced=False)
    op.result = {"ok": True, "configs": [["swim", flags]],
                 "paper": [["CBR", flags, 1.0, 2.0]], "ledger": {}}
    return op


def test_tuned_o3_matches_o0():
    assert check.output_problems("swim", sorted(OptConfig.o3().enabled),
                                 "pentium4") == []


def test_corrupted_array_element_fails_the_operation(monkeypatch):
    real = check.run_outputs
    calls = []

    def corrupt_second(version, machine, tier, envs):
        outputs = real(version, machine, tier, envs)
        calls.append(version)
        if len(calls) == 2:  # the tuned configuration, after the -O0 reference
            arrays, _ = outputs[0]
            name = sorted(arrays)[0]
            arrays[name].flat[0] += 1
        return outputs

    monkeypatch.setattr(check, "run_outputs", corrupt_second)
    op = _op(sorted(OptConfig.o3().enabled))
    assert run.check_outputs([op]) == 1
    assert not op.ok
    assert "differs" in op.problems[0]


def test_mismatches_compares_return_values_exactly():
    outputs = [({"a": np.arange(3.0)}, 1.5)]
    assert check.mismatches(outputs, [({"a": np.arange(3.0)}, 1.5)]) == []
    assert check.mismatches(outputs, [({"a": np.arange(3.0)}, 1.5 + 1e-12)])
    assert check.mismatches(outputs, [({"a": np.arange(3.0)}, 1.5),
                                      ({"a": np.arange(3.0)}, 1.5)])


def test_repeat_with_other_quantities_fails():
    first, same, other = (_op(["gcse"]) for _ in range(3))
    other.result["paper"] = [["CBR", ["gcse"], 1.0, 2.5]]
    run.check_repeats([first, same, other])
    assert first.ok and same.ok
    assert not other.ok


def test_seed_blocks_are_disjoint_and_start_at_the_program_default():
    w = run.Workload(why="", commands=(("tune", "swim"), ("tune", "art")),
                     seeds_per_run=3)
    assert w.tune_seeds(1) == [1, 2, 3]
    assert w.tune_seeds(2) == [4, 5, 6]
    assert w.passes(2)[0] == [["tune", "swim", "--seed", "4"],
                              ["tune", "art", "--seed", "4"]]
    assert len(w.passes(2)) == 3
