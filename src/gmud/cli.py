"""Command-line front end: decompositions, BER sweeps, scheme comparisons.

Results are written atomically (temp file + rename): a CSV with the
fixed header ``scheme,modulation,feedback_bits,snr_db,ber,bits,errors``,
an SVG line chart with log-scale BER axis, an optional gnuplot ``.dat``,
and a JSON manifest recording the resolved configuration, so any output
can be reproduced byte-for-byte, and the standard error of each point.
``GMUD_SEED`` provides the default seed; the ``--seed`` flag wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .decomposition import PhasePair, gmud, solve_rotations
from .errors import DomainError, FormatError
from .feedback import SCHEMES, decode, encode
from .precoding import GridSpec
from .simulation import MODULATIONS, SimConfig, run_ber
from .svgplot import line_chart

CSV_HEADER = "scheme,modulation,feedback_bits,snr_db,ber,bits,errors"

_SCHEME_ALIASES = {**{s: s for s in SCHEMES}, "reg-inv-selection": "reg-inv-sel"}


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gmud-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_matrix(args) -> np.ndarray:
    if args.matrix is not None:
        text = args.matrix
    elif args.file is not None:
        with open(args.file) as fh:
            text = fh.read()
    else:
        raise FormatError("provide --matrix or --file")
    parts = text.split()
    if len(parts) != 8:
        raise FormatError(
            f"expected 8 whitespace-separated reals (row-major re/im pairs), got {len(parts)}"
        )
    return np.array([float(p) for p in parts]).view(np.complex128).reshape(2, 2)


def _parse_snr(spec: str) -> tuple[float, ...]:
    try:
        start, step, stop = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise FormatError(f"bad --snr {spec!r}; expected start:step:stop") from exc
    if not all(map(math.isfinite, (start, step, stop))):
        raise FormatError(f"bad --snr {spec!r}; start, step and stop must be finite")
    if step == 0.0:
        if start != stop:
            raise FormatError("--snr step 0 requires start == stop")
        return (start,)
    if step < 0.0 or stop < start:
        raise FormatError("--snr requires step > 0 and stop >= start")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_feedback(values) -> list:
    modes = []
    for v in values:
        mode = "perfect" if v == "perfect" else int(v)
        if mode != "perfect" and mode < 1:
            raise FormatError("--feedback must be 'perfect' or a positive integer N")
        if mode not in modes:
            modes.append(mode)
    return modes


def _parse_grid(spec: str) -> GridSpec:
    try:
        n_r, n_theta, n_p = (int(p) for p in spec.split(","))
    except ValueError as exc:
        raise FormatError(f"bad --grid {spec!r}; expected NR,NTHETA,NP") from exc
    return GridSpec(n_r=n_r, n_theta=n_theta, n_p=n_p)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GMUD_SEED")
    if env is not None:
        return int(env)
    return 12345


def cmd_decompose(args) -> int:
    h = _parse_matrix(args)
    pp = PhasePair(args.theta1, args.theta2)
    fact = gmud(h, args.r, pp)
    svd = fact.source_svd
    rot = solve_rotations(svd.lambda1, svd.lambda2, fact.r)
    residual = float(np.linalg.norm(fact.reconstruct() - h))
    out = {
        "singular_values": [svd.lambda1, svd.lambda2],
        "r": fact.r,
        "theta1": fact.phases.theta1,
        "theta2": fact.phases.theta2,
        "p": fact.p.view(np.float64).reshape(2, 2, 2).tolist(),
        "r_matrix": [[fact.rmat.r, 0.0], [fact.rmat.z1, fact.rmat.z2]],
        "q": fact.q.view(np.float64).reshape(2, 2, 2).tolist(),
        "residual": residual,
        "beam_alignment": rot.c,
        "cone_angle": float(np.arccos(min(rot.c, 1.0))),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_quantize(args) -> int:
    h = _parse_matrix(args)
    scheme = _SCHEME_ALIASES[args.scheme]
    bits = encode(h, scheme, args.n)
    out = {"scheme": scheme, "n": args.n, "total_bits": len(bits), "bits": bits}
    out["decoded"] = decode(bits, scheme, args.n).as_dict()
    print(json.dumps(out, indent=2))
    return 0


def _csv_rows(curves) -> str:
    lines = [CSV_HEADER]
    for curve in curves:
        for p in curve.points:
            lines.append(
                f"{curve.scheme},{curve.modulation},{curve.feedback_bits},"
                f"{float(p.snr_db)!r},{float(p.ber)!r},{p.bits},{p.errors}"
            )
    return "\n".join(lines) + "\n"


def _dat_rows(curves) -> str:
    blocks = []
    for curve in curves:
        lines = [f"# {curve.scheme} {curve.modulation} feedback={curve.feedback_bits}"]
        lines += [f"{float(p.snr_db)!r} {float(p.ber)!r}" for p in curve.points]
        blocks.append("\n".join(lines))
    return "\n\n\n".join(blocks) + "\n"


def _curve_label(curve) -> str:
    fb = curve.feedback_bits
    return f"{curve.scheme} ({fb})" if fb == "perfect" else f"{curve.scheme} ({fb} bits)"


def _emit(curves, args, seed, grid, started) -> None:
    """Write the CSV, SVG, optional .dat and manifest, all texts built before the first write."""
    texts = {
        "csv": _csv_rows(curves),
        "svg": line_chart(
            [(_curve_label(c), [(p.snr_db, p.ber) for p in c.points]) for c in curves],
            title=f"{args.mod.upper()} bit error rate",
            xlabel="SNR (dB)",
            ylabel="BER",
        ),
    }
    if args.dat:
        texts["dat"] = _dat_rows(curves)
    outputs = {kind: f"{args.out}.{kind}" for kind in texts}
    manifest = {
        "tool": "gmud",
        "version": __version__,
        "command": args.command,
        "schemes": sorted({c.scheme for c in curves}, key=SCHEMES.index),
        "modulation": args.mod,
        "feedback": [c.feedback for c in curves],
        # the standard error of each point's BER, from per-realization clustering
        "se": [{"scheme": c.scheme, "feedback": c.feedback, "se": [p.se for p in c.points]} for c in curves],
        "snr": args.snr,
        "realizations": args.realizations,
        "symbols": args.symbols,
        "seed": seed,
        "grid": [grid.n_r, grid.n_theta, grid.n_p],
        "jobs": args.jobs,
        "outputs": outputs,
        "duration_s": round(time.monotonic() - started, 3),
    }
    texts["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    for kind, text in texts.items():
        _atomic_write(f"{args.out}.{kind}", text)


def cmd_simulate(args) -> int:
    """``sweep`` (one scheme) and ``compare`` (every scheme), one curve per feedback mode."""
    started = time.monotonic()
    seed = _resolve_seed(args)
    grid = _parse_grid(args.grid)
    modes = _parse_feedback(args.feedback or ["perfect"])
    schemes = [_SCHEME_ALIASES[args.scheme]] if args.command == "sweep" else SCHEMES
    curves = [
        run_ber(
            SimConfig(
                scheme=scheme,
                modulation=args.mod,
                snr_db=_parse_snr(args.snr),
                feedback=mode,
                realizations=args.realizations,
                symbols=args.symbols,
                seed=seed,
                grid=grid,
            ),
            jobs=args.jobs,
        )
        for scheme in schemes
        for mode in modes
    ]
    _emit(curves, args, seed, grid, started)
    return 0


def _add_matrix_args(p) -> None:
    p.add_argument("--matrix", help="8 whitespace-separated reals, row-major re/im pairs")
    p.add_argument("--file", help="file containing the same 8 reals")


def _add_sim_args(p) -> None:
    p.add_argument("--mod", choices=tuple(MODULATIONS), default="qpsk")
    p.add_argument("--snr", default="0:2:20", help="start:step:stop in dB, inclusive")
    p.add_argument(
        "--feedback",
        action="append",
        help="'perfect' or the bit-budget parameter N (repeatable)",
    )
    p.add_argument("--realizations", type=int, default=400)
    p.add_argument("--symbols", type=int, default=125, help="transmit vectors per realization")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default="8,16,9", help="beam search grid NR,NTHETA,NP")
    p.add_argument("--jobs", type=int, default=1, help="worker processes across SNR points")
    p.add_argument("--dat", action="store_true", help="also emit a gnuplot .dat file")
    p.add_argument("--out", required=True, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmud",
        description="2x2 multi-unitary decomposition and limited-feedback precoding simulator",
    )
    parser.add_argument("--version", action="version", version=f"gmud {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a 2x2 matrix as P R Q^H")
    _add_matrix_args(p)
    p.add_argument("--r", type=float, required=True, help="prescribed R[0,0] entry")
    p.add_argument("--theta1", type=float, default=0.0)
    p.add_argument("--theta2", type=float, default=0.0)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("quantize", help="encode/decode one feedback message")
    _add_matrix_args(p)
    p.add_argument("--scheme", choices=sorted(_SCHEME_ALIASES), default="gmud")
    p.add_argument("--n", type=int, default=4, help="bit-budget parameter N")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("sweep", help="BER sweep for one scheme")
    p.add_argument("--scheme", choices=sorted(_SCHEME_ALIASES), required=True)
    _add_sim_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="BER curves for all three schemes at equal budget")
    _add_sim_args(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, FormatError, ValueError, OSError) as exc:
        print(f"gmud: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
