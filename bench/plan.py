"""What the benchmark runs: programs, parameters, seeded variants, job order.

This module imports nothing from ``repro`` at module level, so a child
process can start its set-up clock before the system under test loads.
The benchmark keeps its own copy of the parameter presets: a change to
``repro.workloads`` presets must not silently change the benchmark's
inputs (the pinned source hashes in ``expected.json`` catch generator
edits).
"""

from __future__ import annotations

import math
import random

# Keyword arguments of the public generators in repro.workloads.programs.
TINY = {
    "compressx": {"data_size": 600, "table_size": 509, "passes": 1},
    "javacx": {"programs": 6, "tokens_per_program": 120, "max_depth": 4},
    "raytracex": {"width": 16, "height": 12, "spheres": 4, "frames": 1},
    "mpegaudiox": {"frames": 4, "bands": 12, "taps": 8},
    "sootx": {"statements": 60, "variables": 20, "iterations": 2},
    "scimarkx": {"grid": 10, "sor_iters": 4, "mc_samples": 500,
                 "sparse_rows": 60, "sparse_iters": 4},
}
PAPER = {
    "compressx": {"data_size": 16000, "table_size": 4093, "passes": 3},
    "javacx": {"programs": 28, "tokens_per_program": 420, "max_depth": 6},
    "raytracex": {"width": 64, "height": 48, "spheres": 8, "frames": 3},
    "mpegaudiox": {"frames": 28, "bands": 48, "taps": 32},
    "sootx": {"statements": 240, "variables": 30, "iterations": 30},
    "scimarkx": {"grid": 64, "sor_iters": 10, "mc_samples": 12000,
                 "sparse_rows": 100, "sparse_iters": 12,
                 "fft_size": 512, "fft_iters": 12},
}
PROGRAMS = tuple(TINY)

# Variant parameters are drawn log-uniformly in [1/SPREAD, SPREAD]x the
# tiny preset, in antithetic pairs: the second variant of a program
# uses the reciprocal factors of the first.  The total work of a pair
# then barely moves with the seed, so seed-to-seed spread measures the
# system, not the draw.
VARIANT_SPREAD = 1.25


class Workload:
    """One benchmark workload: which programs, how often, how run."""

    def __init__(self, name: str, why: str, *, programs=(), runs: int,
                 reps: int = 1, variants: bool = False,
                 warm: bool = False) -> None:
        self.name = name
        self.why = why
        self.fixed_programs = tuple(programs)
        self.runs = runs            # VM.run calls per job (1 + re-entries)
        self.reps = reps            # times each program is a job per child
        self.variants = variants    # seeded tiny variants, else paper preset
        self.warm = warm            # VMs seeded from a saved .rprof

    def programs(self, seed: int) -> dict[str, dict]:
        """``{key: {"program": name, "params": {...}}}`` for `seed`."""
        if self.variants:
            return variants(seed)
        return {f"{name}/paper": {"program": name,
                                  "params": dict(PAPER[name])}
                for name in self.fixed_programs}

    def order(self, seed: int, child: int) -> list[str]:
        """Job keys of one child, in run order.

        The seed shuffles the base order; each child rotates it, and on
        the many-job workloads each repetition rotates it again, so no
        program always runs first or after the same neighbour.
        """
        base = sorted(self.programs(seed))
        random.Random(f"order:{self.name}:{seed}").shuffle(base)
        n = len(base)
        jobs = []
        for rep in range(self.reps):
            shift = (child + rep * n // self.reps) % n
            jobs.extend(base[shift:] + base[:shift])
        return jobs


WORKLOADS = {w.name: w for w in (
    Workload("hot-loops",
             "loop-heavy programs: time goes to generated code, "
             "superblocks and guards",
             programs=("scimarkx", "raytracex", "mpegaudiox"), runs=2),
    Workload("branchy",
             "branchy programs: time goes to the dispatch loop, the "
             "profiler, links and trace-cache churn",
             programs=("compressx", "javacx", "sootx"), runs=2),
    Workload("cold-many",
             "many short programs from source in fresh VMs: start-up "
             "cost and cross-VM code sharing dominate",
             runs=1, reps=4, variants=True),
    Workload("warm-many",
             "the cold-many jobs seeded from saved profiles: the "
             "profile store's fill path replaces profiling",
             runs=1, reps=4, variants=True, warm=True),
)}


def variants(seed: int) -> dict[str, dict]:
    """The seeded tiny-preset variants: one antithetic pair per program."""
    rng = random.Random(f"variants:{seed}")
    out = {}
    for name in PROGRAMS:
        factors = {k: math.exp(rng.uniform(-1.0, 1.0)
                               * math.log(VARIANT_SPREAD))
                   for k in TINY[name]}
        for index, sign in enumerate((1, -1)):
            params = {k: max(1, round(v * factors[k] ** sign))
                      for k, v in TINY[name].items()}
            out[f"{name}/v{index}"] = {"program": name, "params": params}
    return out


def pinned_programs() -> dict[str, dict]:
    """Every program any workload runs at seed 0 (the expected.json keys)."""
    out: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        out.update(workload.programs(0))
    return dict(sorted(out.items()))


def source(entry: dict) -> str:
    """Mini-Java source of a program entry, from the public generators."""
    from repro.workloads import programs
    return getattr(programs, entry["program"])(**entry["params"])


# ----------------------------------------------------------------------
# Configurations.  Built from the field names TraceCacheConfig has, so
# that retiring a field turns the rungs that need it into null results
# instead of crashing the benchmark.

# The end-to-end configuration: defaults plus the compiled trace stack.
E2E_OVERRIDES = {"optimize_traces": True}

# The layer ladder, bottom to top.  A rung is an interpreter (overrides
# None: "switch", "threaded", and "profile", the threaded interpreter
# calling Profiler.advance per dispatch) or a VM configuration given as
# overrides; "full" and "warm" use the end-to-end configuration, "warm"
# seeded from the profile "full" saved.
LADDER = (
    ("switch", None),
    ("threaded", None),
    ("profile", None),
    ("traces", {"optimize_traces": False}),
    ("compiled", {"optimize_traces": True, "trace_linking": False,
                  "superblock_iters": 1}),
    ("linked", {"optimize_traces": True, "superblock_iters": 1}),
    ("full", "e2e"),
    ("warm", "e2e"),
)


def config_fields() -> set:
    """Field names of TraceCacheConfig in the code under test."""
    import dataclasses

    from repro.core import TraceCacheConfig
    return {f.name for f in dataclasses.fields(TraceCacheConfig)}


def config(overrides: dict):
    from repro.core import TraceCacheConfig
    return TraceCacheConfig(**overrides)


def e2e_overrides(fields) -> dict:
    """The end-to-end overrides that `fields` still has (else defaults)."""
    return {k: v for k, v in E2E_OVERRIDES.items() if k in fields}


def e2e_config():
    return config(e2e_overrides(config_fields()))


def ladder_rungs(fields) -> list[tuple[str, dict | None, str | None]]:
    """``(rung, overrides, reason)`` for each rung; `reason` is set, and
    the rung is not run, when a field it needs is not in `fields`."""
    rungs = []
    for name, overrides in LADDER:
        if overrides == "e2e":
            overrides = e2e_overrides(fields)
        missing = sorted(set(overrides or ()) - set(fields))
        reason = None
        if missing:
            reason = "TraceCacheConfig has no field " + ", ".join(missing)
        rungs.append((name, overrides, reason))
    return rungs


# ----------------------------------------------------------------------
# Checking: a run is correct when its value, printed output and
# instruction count equal the switch interpreter's.

def sha256(text: str) -> str:
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(value, output, instructions: int) -> dict:
    """The observable result of one run, in expected.json's form."""
    if not isinstance(value, (int, float, str, type(None))):
        value = repr(value)
    return {"value": value, "output_sha256": sha256("\n".join(output)),
            "instructions": instructions}


def mismatch(got: dict, ref: dict) -> str | None:
    """Why `got` differs from the reference `ref`, or None."""
    diffs = [f"{k} {got[k]!r} != {ref.get(k)!r}" for k in got
             if got[k] != ref.get(k)]
    return "; ".join(diffs) or None
