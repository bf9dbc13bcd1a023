"""Timing wrappers for the traced run: spans, self time, counters, stage split.

Wrappers replace module attributes that the program looks up at call time
(``simulation.encode``, ``precoding.reg_inv``, ``linalg.svd2x2`` for the
lazy import in ``ChannelSet.svds`` ...), so nested calls such as
``antenna_selection`` -> ``reg_inv`` -> ``mat_inv`` nest as spans.  Spans
stay in memory as (name, start, end, parent, op) and are written out
once the run ends.  Counters are derived from the wrapped calls'
arguments and return values, after the span has closed.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  A function the program reaches through
# several module namespaces is wrapped in each under one span name.
WRAPS = (
    ("linalg", "svd2x2", "linalg.svd2x2"),
    ("decomposition", "svd2x2", "linalg.svd2x2"),
    ("precoding", "mat_inv", "linalg.mat_inv"),
    ("decomposition", "gmud", "decomposition.gmud"),
    ("decomposition", "solve_rotations", "decomposition.solve_rotations"),
    ("decomposition", "steered_beams", "decomposition.steered_beams"),
    ("precoding", "steered_beams", "decomposition.steered_beams"),
    ("precoding", "beam_from_feedback", "decomposition.beam_from_feedback"),
    ("simulation", "encode", "feedback.encode"),
    ("simulation", "decode", "feedback.decode"),
    ("simulation", "reg_inv", "precoding.reg_inv"),
    ("precoding", "reg_inv", "precoding.reg_inv"),
    ("simulation", "antenna_selection", "precoding.antenna_selection"),
    ("simulation", "optimize_gmud", "precoding.optimize_gmud"),
    ("simulation", "gen_channels", "simulation.gen_channels"),
    ("simulation", "modulate", "simulation.modulate"),
    ("simulation", "demodulate", "simulation.demodulate"),
    ("simulation", "transmit", "simulation.transmit"),
    ("simulation", "receive_detect", "simulation.receive_detect"),
    ("simulation", "run_ber", "simulation.run_ber"),
)

# The wrapped public functions, in WRAPS order; run_ber only frames the stage split.
FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in WRAPS if name != "simulation.run_ber"))

# Stage of each span called directly by run_ber; run_ber time not covered
# by these spans is the stage "other".
STAGE_OF = {
    "simulation.gen_channels": "channel",
    "linalg.svd2x2": "feedback",
    "feedback.encode": "feedback",
    "feedback.decode": "feedback",
    "precoding.reg_inv": "precoder",
    "precoding.antenna_selection": "precoder",
    "precoding.optimize_gmud": "precoder",
    "decomposition.solve_rotations": "precoder",
    "simulation.modulate": "transmit",
    "simulation.transmit": "transmit",
    "simulation.receive_detect": "detect",
    "simulation.demodulate": "detect",
}
STAGES = ("channel", "feedback", "precoder", "transmit", "detect", "other")

COMBOS = ("00", "01", "10", "11")

# The first two are per optimize_gmud call; the rest are totals of the traced pass.
PER_SEARCH = ("precoding.optimize_gmud.grid_points", "precoding.optimize_gmud.grid_bytes_computed")
COUNTERS = (
    ("precoding.optimize_gmud.grid_points", "count"),
    ("precoding.optimize_gmud.grid_bytes_computed", "B"),
    ("precoding.optimize_gmud.edge_alpha_picks", "count"),
    ("precoding.sinr_cap_hits", "count"),
    *((f"precoding.antenna_selection.combo_picks.{c}", "count") for c in COMBOS),
    ("feedback.encode.clamped_fields", "count"),
)


class Tracer:
    """Installs span-recording wrappers on gmud's module objects."""

    def __init__(self, gmud):
        self.gmud = gmud
        self.names: list[str] = []
        # span columns: name id, start, end, parent index (-1 at top level), op
        self.cols = {"name": array("h"), "start": array("d"), "end": array("d"),
                     "parent": array("q"), "op": array("q")}
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self._saved: list = []

    def install(self) -> None:
        after = {
            "precoding.optimize_gmud": self._after_optimize,
            "precoding.antenna_selection": self._after_selection,
            "feedback.encode": self._after_encode,
        }
        for module_name, attr, name in WRAPS:
            module = getattr(self.gmud, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, after.get(name),
                                             name == "simulation.gen_channels"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, after, new_op):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        c = self.cols
        names, starts, ends, parents, ops = c["name"], c["start"], c["end"], c["parent"], c["op"]
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if new_op:  # each realization draws its channels first
                self.op += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # Counters, computed from arguments and return values.

    def _cap_hits(self, report) -> None:
        cap = self.gmud.precoding.SINR_CAP
        self.counts["precoding.sinr_cap_hits"] += sum(s == cap for s in report.per_user)

    def _after_optimize(self, args, kwargs, result) -> None:
        grid = args[3] if len(args) > 3 else kwargs.get("grid")
        if grid is None:
            grid = self.gmud.precoding.GridSpec()
        # (i_rk, i_rl, i_theta_k, i_theta_l, i_alpha) with alpha^2 in [0.1, 0.9] plus {0, 1}
        points = grid.n_r**2 * grid.n_theta**2 * (grid.n_p + 2)
        self.counts["precoding.optimize_gmud.calls"] += 1
        self.counts["precoding.optimize_gmud.grid_points"] += points
        # computed: the float64 grids sk, sl and min_sinr, one value per point each
        self.counts["precoding.optimize_gmud.grid_bytes_computed"] += 3 * 8 * points
        _, params, report = result
        self.counts["precoding.optimize_gmud.edge_alpha_picks"] += (
            params.alpha == 0.0 or params.beta == 0.0
        )
        self._cap_hits(report)

    def _after_selection(self, args, kwargs, result) -> None:
        combo, _, report = result
        self.counts["precoding.antenna_selection.combo_picks." + "".join(map(str, combo))] += 1
        self._cap_hits(report)

    def _after_encode(self, args, kwargs, result) -> None:
        source, scheme = args[0], args[1]
        row = args[3] if len(args) > 3 else kwargs.get("row", 0)
        hi = self.gmud.feedback.MAGNITUDE_RANGE[1]
        if scheme == "gmud":
            mags = (source.lambda1, source.lambda2)
        else:
            h = np.asarray(source)
            rows = (h[0], h[1]) if scheme == "reg-inv-sel" else (h[row],)
            mags = tuple(float(np.sqrt((r.real**2 + r.imag**2).sum())) for r in rows)
        self.counts["feedback.encode.clamped_fields"] += sum(m >= hi for m in mags)

    # Reduction.

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns: name id, start, end, parent index, op.

        ``op`` is the realization (Monte Carlo) or input index (factorize)
        current when the span began; a run_ber span carries the id of the
        realization before its first one.
        """
        return {k: np.array(v) for k, v in self.cols.items()}

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-function calls, time per call and self time, the stage split and counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out: dict[str, tuple[float, str]] = {}
        for fn in FUNCTIONS:
            sel = a["name"] == self.names.index(fn) if fn in self.names else np.zeros(len(dur), bool)
            calls = int(sel.sum())
            out[f"{fn}.calls"] = (calls / ops, "count/op")
            out[f"{fn}.us_per_call"] = (float(dur[sel].sum()) * 1e6 / calls if calls else 0.0, "us")
            out[f"{fn}.self_ms_per_op"] = (float(self_time[sel].sum()) * 1e3 / ops, "ms")

        stage = dict.fromkeys(STAGES, 0.0)
        if "simulation.run_ber" in self.names:
            top = np.flatnonzero(a["name"] == self.names.index("simulation.run_ber"))
            stage["other"] = float(dur[top].sum())
            under_top = np.isin(a["parent"], top)
            for nid in np.unique(a["name"][under_top]):
                s = STAGE_OF.get(self.names[nid])
                if s is not None:
                    t = float(dur[under_top & (a["name"] == nid)].sum())
                    stage[s] += t
                    stage["other"] -= t
        for s in STAGES:
            out[f"simulation.stage.{s}_ms_per_op"] = (stage[s] * 1e3 / ops, "ms")
        searches = self.counts["precoding.optimize_gmud.calls"]
        for name, unit in COUNTERS:
            value = self.counts[name]
            if name in PER_SEARCH:
                value = value / searches if searches else 0.0
            out[name] = (value, unit)
        return out

    def run_ber_seconds(self) -> float:
        """Total traced run_ber time; the stage split sums to it."""
        if "simulation.run_ber" not in self.names:
            return 0.0
        a = self.arrays()
        sel = a["name"] == self.names.index("simulation.run_ber")
        return float((a["end"][sel] - a["start"][sel]).sum())
