"""Output check: a tuned configuration must compute what ``-O0`` computes.

For each tuned configuration the check compiles the tuning section, runs it
at the program's default execution tier on the first few ``ref``
invocations, and compares the arrays the invocation leaves behind and its
return value against a reference compiled with every optimisation flag off
and run at Tier 0.  Equality is exact.
"""

from __future__ import annotations

import copy
import inspect

import numpy as np

__all__ = ["default_tier", "mismatches", "output_problems", "run_outputs"]

#: how many leading ref invocations each configuration is run on
CHECK_INVOCATIONS = 4


def default_tier() -> int:
    """The execution tier a user gets when they do not ask for one."""
    from repro.core.peak import PeakTuner

    return inspect.signature(PeakTuner).parameters["exec_tier"].default


def run_outputs(version, machine, tier: int, envs: list[dict]) -> list[tuple]:
    """``(arrays, return value)`` of each invocation, on fresh copies."""
    from repro.machine.jit import create_executor

    executor = create_executor(machine, tier)
    outputs = []
    for env in envs:
        env = copy.deepcopy(env)
        result = executor.run(version.exe, env, factors=version.factors)
        arrays = {k: v for k, v in env.items() if isinstance(v, np.ndarray)}
        outputs.append((arrays, result.return_value))
    return outputs


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True  # both NaN
    return a == b


def mismatches(reference: list[tuple], got: list[tuple]) -> list[str]:
    """Describe every difference between two ``run_outputs`` results."""
    problems = []
    for i, ((ref_arrays, ref_ret), (arrays, ret)) in enumerate(zip(reference, got)):
        for name in sorted(ref_arrays.keys() | arrays.keys()):
            if name not in ref_arrays or name not in arrays \
                    or not _same(ref_arrays[name], arrays[name]):
                problems.append(f"invocation {i}: array {name!r} differs")
        if not _same(ref_ret, ret):
            problems.append(f"invocation {i}: return value {ret!r} != {ref_ret!r}")
    if len(reference) != len(got):
        problems.append(f"{len(got)} invocations run, expected {len(reference)}")
    return problems


def output_problems(workload_name: str, flags: list[str], machine_name: str,
                    *, n_invocations: int = CHECK_INVOCATIONS) -> list[str]:
    """Check one tuned configuration; an empty list means it is correct."""
    from repro.compiler.options import OptConfig
    from repro.compiler.pipeline import compile_version
    from repro.machine.config import machine_by_name
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    machine = machine_by_name(machine_name)
    envs = list(workload.profile_invocations("ref", limit=n_invocations))

    def outputs(config: OptConfig, tier: int) -> list[tuple]:
        version = compile_version(workload.ts, config, machine,
                                  program=workload.program)
        return run_outputs(version, machine, tier, envs)

    reference = outputs(OptConfig.o0(), 0)
    got = outputs(OptConfig(frozenset(flags)), default_tier())
    return mismatches(reference, got)
