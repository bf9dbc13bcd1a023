"""Benchmark of the gmud simulator; see README.md in this directory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gmud-search --seed 1 --seconds 20 --trace 0

Builds nothing: it imports ``gmud`` from ``src/`` of the checkout, in this
one process, with BLAS pinned to one thread.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  Records and span dumps go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of this many set-ups, spread evenly over the run,
# so that it samples the machine's speed over the run as the timings do.
SETUP_REPS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)

# Other tenants of a shared machine slow its CPU by up to a factor of 2.4
# for seconds to minutes, and process CPU time slows with it.  A fixed
# yardstick loop, run about every YARD_EVERY_S, measures that speed, and
# the end-to-end timings are scaled to a machine on which the yardstick
# takes YARD_REF_S (its median on the 2-vCPU VM where the benchmark was
# defined).  Each stretch between two samples is scaled by the median of
# the YARD_WINDOW samples around it, so that a sample that was preempted
# (up to 7x the median) does not scale the work beside it.  The record
# keeps the unscaled figures too.
YARD_EVERY_S = 0.2
YARD_WINDOW = 9
YARD_REF_S = 6.5e-3
_YARD_2X2 = np.array([[1 + 2j, 0.3], [0.5j, -1.0]])
_YARD_VEC = np.linspace(0.0, 1.0, 1 << 15) * (1 + 1j)


def yardstick() -> float:
    """Seconds taken by a fixed mix of small numpy, vector numpy, page-fault and pure-Python work.

    The page faults stand in for the program's large temporary arrays
    (``gmud-search`` spends about 40% of its time in the kernel on them).
    """
    t0 = time.perf_counter()
    for _ in range(100):
        m = _YARD_2X2.conj().T @ _YARD_2X2
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        v = np.array([m[0, 1], m[0, 0] - d.real])
        v = v / np.linalg.norm(v)
    for _ in range(10):
        np.abs(_YARD_VEC * _YARD_VEC.conj() + 1.0).max()
    with mmap.mmap(-1, 2 << 20) as fresh:  # 512 new pages, each touched once
        for offset in range(0, len(fresh), mmap.PAGESIZE):
            fresh[offset] = 1
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    return time.perf_counter() - t0


def import_gmud():
    """Import gmud afresh from the checkout's ``src/`` (never an installed copy)."""
    for name in [m for m in sys.modules if m == "gmud" or m.startswith("gmud.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    gmud = importlib.import_module("gmud")
    if Path(gmud.__file__).resolve().parent != SRC / "gmud":
        raise ImportError(f"gmud imported from {gmud.__file__}, not from {SRC}")
    return gmud


def setup(workload: str, seed: int):
    """Import, input generation and warm-up; returns (gmud, runner, seconds taken)."""
    gc.collect()
    t0 = time.perf_counter()
    gmud = import_gmud()
    if workload == "factorize":
        runner = wls.FactorizeRunner(gmud, seed)
    else:
        runner = wls.McRunner(gmud, wls.MC_WORKLOADS[workload], seed)
    runner.warm_up()
    return gmud, runner, time.perf_counter() - t0


def timings(blocks: np.ndarray) -> dict:
    """Rate, CPU time and latency percentiles over all the given timed blocks."""
    ops, wall, cpu = blocks.sum(axis=0)
    lat_ms = 1e3 * blocks[:, 1] / blocks[:, 0]
    return {
        "ops_per_s": float(ops / wall),
        "op_ms.p50": float(np.percentile(lat_ms, 50)),
        "op_ms.p90": float(np.percentile(lat_ms, 90)),
        "cpu_ms_per_op": float(1e3 * cpu / ops),
    }


def yard_speed(samples: list[float]) -> np.ndarray:
    """Yardstick seconds for each stretch between two samples: the median of the samples around it."""
    half = YARD_WINDOW // 2
    padded = np.pad(np.array(samples), (half - 1, half), mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, YARD_WINDOW), axis=1)


def end_to_end(tally: wls.Tally, scaled_blocks: np.ndarray, setup_s: float) -> dict:
    values = timings(scaled_blocks)
    values.update(
        setup_s=setup_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ok_ratio=tally.ok / tally.attempted,
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_pass(gmud, runner, seconds: float):
    """Run each unit untraced, then again traced, until ``seconds`` pass.

    Returns (tracer, untraced tally, traced tally).  Pairing the two runs
    of each unit keeps the overhead ratio free of the machine's drift.
    """
    tracer = Tracer(gmud)
    untraced, traced = wls.Tally(seconds, keep_outputs=True), wls.Tally(seconds, keep_outputs=True)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        unit = next(runner.units)
        runner.run(unit, untraced)
        tracer.install()
        try:
            runner.run(unit, traced, trace=tracer)
        finally:
            tracer.uninstall()
    return tracer, untraced, traced


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gmud").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "jobs": 1,
        **extra,
    }


def tally_record(t: wls.Tally) -> dict:
    return {
        "attempted": t.attempted,
        "failed": t.failed,
        "known_defect_inputs": t.known_defect_inputs,
        "known_defect_failed": t.known_defect,
        "failed_are_exactly_known_defect_inputs": (
            t.failed == 0 and t.known_defect == t.known_defect_inputs
        ),
        "latency_samples": t.n,
        "points_checked": t.points_checked,
        "points_bit_exact": t.points_bit_exact,
        "first_failures": t.errors,
    }


def timed_run(args):
    """The untraced run: whole rounds until ``seconds`` pass, with set-ups spread over it.

    A round (``runner.round_units`` calls or blocks) holds every combo once,
    or every factorize input once, so runs of any length time the same mix.
    Each set-up imports ``gmud`` afresh; the run goes on with the new
    runner, on the same input stream, so every call is to the latest import.
    """
    tally = wls.Tally(args.seconds)
    yards, marks = [], []  # yardstick seconds, and the number of blocks timed before each

    def yard() -> None:
        yards.append(yardstick())
        marks.append(tally.n)

    setups = []  # (set-up seconds, index of the stretch it lies in)
    yard()
    _, runner, setup_s = setup(args.workload, args.seed)
    setups.append((setup_s, len(yards) - 1))
    yard()
    start = last_yard = time.perf_counter()
    rounds = 0
    while (now := time.perf_counter()) < start + args.seconds:
        if now >= start + len(setups) * args.seconds / SETUP_REPS:
            yard()
            _, fresh, setup_s = setup(args.workload, args.seed)
            setups.append((setup_s, len(yards) - 1))
            yard()
            fresh.units = runner.units
            runner = fresh
        for _ in range(runner.round_units):
            runner.run(next(runner.units), tally)
            if time.perf_counter() - last_yard >= YARD_EVERY_S:
                yard()
                last_yard = time.perf_counter()
        rounds += 1
    yard()
    factor = YARD_REF_S / yard_speed(yards)
    scale = np.repeat(factor, np.diff(marks))
    scaled = tally.blocks * np.column_stack([np.ones_like(scale), scale, scale])
    setup_times = [t for t, _ in setups]
    metrics = end_to_end(tally, scaled, statistics.median(t * factor[k] for t, k in setups))
    extra = {
        "setup_times_s": setup_times,
        "run": tally_record(tally),
        "rounds": rounds,
        "round_units": runner.round_units,
        "measured_s": float(tally.blocks[:, 1].sum()),
        "unscaled": {**timings(tally.blocks), "setup_s": statistics.median(setup_times)},
        "yardstick_s": {"samples": len(yards), "median": float(np.median(yards)),
                        "min": min(yards), "max": max(yards), "ref": YARD_REF_S},
    }
    return tally.failed == 0, tally.attempted, tally.failed, metrics, extra


def traced_run(args, stem: str):
    """The traced run: per-layer metrics, with the traced outputs checked against untraced ones."""
    gmud, runner, setup_s = setup(args.workload, args.seed)
    tracer, untraced, traced = traced_pass(gmud, runner, args.seconds / 2)
    ops = traced.attempted
    layer = tracer.metrics(ops)
    layer["trace_overhead_ratio"] = (
        float(traced.blocks[:, 1].sum() / untraced.blocks[:, 1].sum()), "ratio")
    layer["simulation.points_checked"] = (traced.points_checked, "count")
    layer["simulation.points_bit_exact"] = (traced.points_bit_exact, "count")
    layer["failed_ratio"] = ((traced.failed + traced.known_defect) / ops, "ratio")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}

    same = traced.outputs == untraced.outputs
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"{stem}.spans.npz", names=np.array(tracer.names), **tracer.arrays())
    extra = {
        "untraced": tally_record(untraced),
        "traced": tally_record(traced),
        "setup_s": setup_s,
        "traced_outputs_equal_untraced": same,
        "traced_run_ber_s": tracer.run_ber_seconds(),
        "spans": len(tracer.cols["start"]),
        "span_file": f"{stem}.spans.npz",
    }
    correct = untraced.failed == 0 and traced.failed == 0 and same
    return correct, untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wls.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # extreme-scale factorize inputs overflow inside the program; the check reports them
    warnings.simplefilter("ignore", RuntimeWarning)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        result = timed_run(args)
    else:
        result = traced_run(args, stem)
    correct, attempted, failed, metrics, extra = result
    record = run_record(args, extra)

    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
