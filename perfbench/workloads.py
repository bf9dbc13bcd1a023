"""Inputs, op loops and correctness checks of the benchmark workloads.

An op is one channel realization in the two Monte Carlo workloads
(``gmud-search``, ``inverse-mix``) and one factorization in ``factorize``.
Every call goes through the ``gmud`` module objects handed in by the
caller and looks its function up at call time, so the tracer's wrappers
(installed on those module objects) see it.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

SNRS_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
SYMBOLS = 125


@dataclass(frozen=True)
class McWorkload:
    """A Monte Carlo workload: single-SNR-point ``run_ber`` calls over a case pool.

    Case ``i`` of the pool lies in cell ``i % cells``; the cell fixes the
    (scheme, modulation, feedback) combo and the SNR, and ``seed_base + i``
    is the simulation seed, so every case has its own channels.  The pool
    holds ``cases_per_cell`` recorded cases per cell, more than a run at
    today's speed uses; a faster program cycles through them again.
    """

    name: str
    combos: tuple[tuple[str, str, str | int], ...]
    realizations: int
    cases_per_cell: int
    seed_base: int

    @property
    def cells(self) -> int:
        return len(self.combos) * len(SNRS_DB)

    @property
    def pool(self) -> int:
        return self.cells * self.cases_per_cell

    def case(self, i: int) -> dict:
        cell = i % self.cells
        scheme, modulation, feedback = self.combos[cell % len(self.combos)]
        return {
            "scheme": scheme,
            "modulation": modulation,
            "snr_db": (SNRS_DB[cell // len(self.combos)],),
            "feedback": feedback,
            "realizations": self.realizations,
            "symbols": SYMBOLS,
            "seed": self.seed_base + i,
        }


MC_WORKLOADS = {
    "gmud-search": McWorkload(
        "gmud-search",
        combos=(("gmud", "16qam", "perfect"), ("gmud", "16qam", 4)),
        # 400 (the CLI default) would take about 3 s a call and leave a run
        # about 13 latency samples; 32 leaves more than 100.
        realizations=32,
        cases_per_cell=24,
        seed_base=100_000,
    ),
    "inverse-mix": McWorkload(
        "inverse-mix",
        combos=tuple(
            itertools.product(("reg-inv", "reg-inv-sel"), ("qpsk", "16qam"), ("perfect", 4))
        ),
        realizations=400,  # the CLI default
        cases_per_cell=6,
        seed_base=200_000,
    ),
}

WORKLOADS = (*MC_WORKLOADS, "factorize")


def case_stream(wl: McWorkload, seed: int):
    """Endless, seed-determined sequence of pool case indices.

    Round ``t`` runs one case of every combo, in a seeded order, so whole
    rounds hold every combo in equal shares.  Each combo walks the SNRs in
    its own seeded order, one per round, and each (combo, SNR) cell walks
    its own seeded permutation of its recorded cases.
    """
    rng = np.random.default_rng(seed)
    n, n_snr = len(wl.combos), len(SNRS_DB)
    snr_orders = [rng.permutation(n_snr) for _ in range(n)]
    walks = [rng.permutation(wl.cases_per_cell) for _ in range(wl.cells)]
    for t in itertools.count():
        for combo in rng.permutation(n):
            cell = int(combo) + n * int(snr_orders[combo][t % n_snr])
            yield cell + wl.cells * int(walks[cell][(t // n_snr) % wl.cases_per_cell])


def load_reference(wl: McWorkload) -> list[tuple[int, float]]:
    """Recorded (errors, standard error in bit errors) per pool case."""
    data = json.loads(REFERENCE_FILE.read_text())[wl.name]
    expected = {"pool": wl.pool, "realizations": wl.realizations, "symbols": SYMBOLS,
                "seed_base": wl.seed_base}
    got = {k: data[k] for k in expected}
    if got != expected:
        raise RuntimeError(f"{REFERENCE_FILE.name} was recorded for {got}, not {expected}")
    return [(int(e), float(s)) for e, s in data["points"]]


MIN_BLOCK_S = 2.5e-4  # shortest mean block time a timing array has room for


class Tally:
    """What one pass measured: timed blocks and check outcomes.

    A block is one ``run_ber`` call or one block of factorizations; its
    wall time over its ops is one latency sample.  Block timings go into
    an array allocated and touched up front, with room for ``seconds`` of
    blocks of ``MIN_BLOCK_S`` each and one more round, so the benchmark's
    own memory does not grow with the program's speed and leaves
    ``peak_rss_mib`` to the program.  ``outputs`` is kept only when passes
    are compared.
    """

    def __init__(self, seconds: float, keep_outputs: bool = False):
        capacity = math.ceil(seconds / MIN_BLOCK_S) + 256  # and the round in progress at the end
        self.timing = np.ones((capacity, 3))  # ops, wall_s, cpu_s per block
        self.n = 0
        self.attempted = 0
        self.failed = 0  # ops that raised or failed the check, known defect excluded
        self.known_defect = 0  # extreme-scale factorize ops that raised or failed the check
        self.known_defect_inputs = 0
        self.points_checked = 0
        self.points_bit_exact = 0
        self.errors: list[str] = []  # first few failure descriptions
        self.outputs: list | None = [] if keep_outputs else None

    @property
    def blocks(self) -> np.ndarray:
        return self.timing[: self.n]

    def add_block(self, ops: int, wall: float, cpu: float) -> None:
        if self.n == len(self.timing):
            raise RuntimeError(
                f"more than {self.n} timed blocks: blocks average under {MIN_BLOCK_S} s, "
                "so make them longer (FACTORIZE_BLOCK, realizations) or MIN_BLOCK_S smaller"
            )
        self.timing[self.n] = (ops, wall, cpu)
        self.n += 1
        self.attempted += ops

    def output(self, key, value) -> None:
        if self.outputs is not None:
            self.outputs.append((key, value))

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(why)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed - self.known_defect


class McRunner:
    """Runs single-SNR-point ``run_ber`` calls and checks them against the reference."""

    def __init__(self, gmud, wl: McWorkload, seed: int):
        self.sim = gmud.simulation
        self.wl = wl
        self.reference = load_reference(wl)
        self.round_units = len(wl.combos)  # calls with the same mix of combos
        self.units = ([i] for i in case_stream(wl, seed))  # one case per call

    def warm_up(self) -> None:
        """One single-realization call per combo, unchecked, so lazy imports are done."""
        for scheme, modulation, feedback in self.wl.combos:
            cfg = self.sim.SimConfig(
                scheme=scheme, modulation=modulation, snr_db=(SNRS_DB[0],), feedback=feedback,
                realizations=1, symbols=SYMBOLS, seed=self.wl.seed_base - 1,
            )
            self.sim.run_ber(cfg, jobs=1)

    def run(self, cases, tally: Tally, trace=None) -> None:
        """One ``run_ber`` call per case; a traced run numbers ops by ``gen_channels`` calls."""
        r = self.wl.realizations
        for i in cases:
            cfg = self.sim.SimConfig(**self.wl.case(i))
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                curve = self.sim.run_ber(cfg, jobs=1)
            except Exception as exc:  # a raising call is a failed op, never an abort
                t1 = time.perf_counter()
                c1 = time.process_time()
                tally.fail(r, f"case {i}: {type(exc).__name__}: {exc}")
                tally.output(i, None)
            else:
                t1 = time.perf_counter()
                c1 = time.process_time()
                self._check(i, cfg, curve.points[0], tally)
            tally.add_block(r, t1 - t0, c1 - c0)

    def _check(self, i, cfg, point, tally: Tally) -> None:
        ref_errors, ref_se = self.reference[i]
        bps = self.sim.MODULATIONS[cfg.modulation]
        bits = 2 * cfg.symbols * bps * cfg.realizations
        tally.output(i, point.errors)
        tally.points_checked += 1
        if point.errors == ref_errors and point.bits == bits:
            tally.points_bit_exact += 1
        elif point.bits != bits or abs(point.errors - ref_errors) > ref_se:
            tally.fail(
                cfg.realizations,
                f"case {i}: {point.errors} errors in {point.bits} bits, "
                f"reference {ref_errors} +- {ref_se} in {bits}",
            )


# ---------------------------------------------------------------- factorize

FACTORIZE_INPUTS = 4096
FACTORIZE_BLOCK = 64  # ops per timed block, one latency sample
EXTREME_EVERY = 8  # every 8th input is scaled by 2^e, 300 <= |e| <= 1000
TOL = 1e-10


def _random_unitaries(rng, n):
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def factorize_inputs(seed: int, n: int = FACTORIZE_INPUTS):
    """h = U diag(s1, s2) V^H with known singular values, r in [s2, s1], random phases.

    Returns arrays (h, s, r, theta, extreme).  s1 = 2^u with u uniform in
    [-4, 4] and s2/s1 = 10^w with w uniform in [-3, 0].  Every
    ``EXTREME_EVERY``-th input is scaled by an exact power of two 2^e
    with 300 <= |e| <= 1000, a known defect of the closed-form SVD.
    """
    rng = np.random.default_rng(seed)
    u = _random_unitaries(rng, n)
    v = _random_unitaries(rng, n)
    s1 = np.exp2(rng.uniform(-4.0, 4.0, n))
    s2 = s1 * 10.0 ** rng.uniform(-3.0, 0.0, n)
    frac = rng.uniform(0.0, 1.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, (n, 2))
    exps = rng.integers(300, 1001, n) * rng.choice((-1, 1), n)
    extreme = (np.arange(n) % EXTREME_EVERY) == EXTREME_EVERY - 1
    scale = np.where(extreme, np.ldexp(1.0, np.where(extreme, exps, 0)), 1.0)
    s = np.stack([s1, s2], axis=1) * scale[:, None]
    r = s[:, 1] + frac * (s[:, 0] - s[:, 1])
    h = (u * s[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    return h, s, r, theta, extreme


def _scaled(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """a divided by the power of two nearest max|ref_ij|, so norms cannot overflow."""
    return a * np.ldexp(1.0, -int(np.frexp(np.max(np.abs(ref)))[1]))


def check_factorization(h, s, r, f, rec) -> str | None:
    """None when the factorization is right, else what is wrong."""
    hs = _scaled(h, h)
    err = np.linalg.norm(hs - _scaled(rec, h)) / np.linalg.norm(hs)
    if not err <= TOL:
        return f"reconstruction error {err:.3g}"
    eye = np.eye(2)
    for name, m in (("P", f.p), ("Q", f.q)):
        dev = np.max(np.abs(m.conj().T @ m - eye))
        if not dev <= TOL:
            return f"{name} not unitary ({dev:.3g})"
    lam = (f.source_svd.lambda1, f.source_svd.lambda2)
    if not (abs(lam[0] - s[0]) <= TOL * s[0] and abs(lam[1] - s[1]) <= TOL * s[0]):
        return f"singular values {lam}, expected {tuple(s)}"
    if not abs(f.r - r) <= TOL * s[0]:
        return f"r {f.r}, expected {r}"
    return None


def factorize_blocks():
    """Endless blocks of input indices, cycling through the inputs."""
    for start in itertools.cycle(range(0, FACTORIZE_INPUTS, FACTORIZE_BLOCK)):
        yield list(range(start, start + FACTORIZE_BLOCK))


class FactorizeRunner:
    """Runs ``gmud(h, r, PhasePair)`` plus ``reconstruct()`` over seeded inputs."""

    def __init__(self, gmud, seed: int):
        self.dec = gmud.decomposition
        self.h, self.s, self.r, theta, self.extreme = factorize_inputs(seed)
        self.hs = list(self.h)
        self.rs = [float(x) for x in self.r]
        self.pps = [self.dec.PhasePair(t1, t2) for t1, t2 in theta]
        self.round_units = FACTORIZE_INPUTS // FACTORIZE_BLOCK  # one pass over the inputs
        self.units = factorize_blocks()

    def run(self, idx, tally: Tally, trace=None) -> None:
        """One block of ops; the check runs after the block's timed region."""
        hs, rs, pps = self.hs, self.rs, self.pps
        results = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        for i in idx:
            if trace is not None:
                trace.op = i
            try:
                f = self.dec.gmud(hs[i], rs[i], pps[i])
                results.append((i, f, f.reconstruct(), None))
            except Exception as exc:  # a raising op is a failed op, never an abort
                results.append((i, None, None, exc))
        t1 = time.perf_counter()
        c1 = time.process_time()
        tally.add_block(len(idx), t1 - t0, c1 - c0)
        for i, f, rec, exc in results:
            if exc is not None:
                why = f"input {i}: {type(exc).__name__}: {exc}"
                tally.output(i, None)
            else:
                try:
                    why = check_factorization(self.h[i], self.s[i], self.r[i], f, rec)
                except Exception as exc:  # malformed output fails the op
                    why = f"input {i}: check raised {type(exc).__name__}: {exc}"
                tally.output(i, rec.tobytes())
            if self.extreme[i]:
                tally.known_defect_inputs += 1
                tally.known_defect += why is not None
            elif why is not None:
                tally.fail(1, why)

    def warm_up(self) -> None:
        """Factorize the inputs before the first extreme-scale one, unchecked."""
        for i in range(EXTREME_EVERY - 1):
            self.dec.gmud(self.hs[i], self.rs[i], self.pps[i]).reconstruct()
