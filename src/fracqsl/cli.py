"""Command line front end.

Subcommands map onto the library layers: ``ml`` evaluates the special
function, ``evolve`` reports amplitudes and populations at one time,
``verify`` measures the residual of a sampled trajectory under the
fractional equation of motion, ``qsl`` prints the bound summary at one
point, ``sweep`` runs a single-axis scan, and ``figure`` runs a preset
batch of scans into a directory.

Exit status: 0 on success, 1 when any requested point fails or a
residual exceeds its tolerance, 2 on invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from ._version import VERSION
from .caputo import SampledSignal, tfse_residual
from .errors import FracQslError, InvalidParams
from .jcmodel import JCParams, QubitDynamics, interaction_hamiltonian
from .mlfun import MLOrder, ml_global
from .qsl import qsl_mlmt, qsl_point
from .sweep import SweepSpec, run_figure, run_sweep, records_to_csv, records_to_json

__all__ = ["main", "run", "build_parser"]


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec: 'start:stop:count' (inclusive) or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParams(f"grid range must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise InvalidParams(f"could not parse grid range {text!r}")
        if count < 1:
            raise InvalidParams("grid count must be at least 1")
        return np.linspace(start, stop, count)
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise InvalidParams(f"could not parse grid values {text!r}")


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("FRACQSL_THREADS", "").strip()
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        raise InvalidParams(f"FRACQSL_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise InvalidParams(f"FRACQSL_THREADS must be positive, got {threads}")
    return threads


def _add_model_args(sp) -> None:
    sp.add_argument("--beta", type=float, required=True, help="fractional order in (0, 1]")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5, help="coupling in [0, 1]")
    sp.add_argument("--n", type=int, default=0, help="photon number (non-negative)")
    sp.add_argument("--a", type=float, default=math.sqrt(0.5), help="ground-branch weight")
    sp.add_argument("--b", type=float, default=math.sqrt(0.5), help="excited-branch weight")


def _params_from(args) -> JCParams:
    return JCParams(beta=args.beta, lam=args.lam, n=args.n, a=args.a, b=args.b)


def _cmd_ml(args) -> int:
    order = MLOrder(args.beta, args.gamma)
    value = ml_global(order, args.z)
    print(f"E[beta={args.beta!r}, gamma={args.gamma!r}]({args.z!r}) = {value!r}")
    return 0


def _cmd_evolve(args) -> int:
    engine = QubitDynamics(_params_from(args))
    ts = np.array([args.tau])
    amps = engine.amplitudes(ts)
    rho_ee, rho_gg = engine.populations(ts)
    print(f"c_g = {complex(amps[0, 0])!r}")
    print(f"c_e = {complex(amps[0, 1])!r}")
    print(f"rho_ee = {float(rho_ee[0])!r}")
    print(f"rho_gg = {float(rho_gg[0])!r}")
    return 0


def _cmd_verify(args) -> int:
    params = _params_from(args)
    if args.grid < 16:
        raise InvalidParams(f"grid must have at least 16 nodes, got {args.grid}")
    engine = QubitDynamics(params)
    times = np.linspace(0.0, args.tau, args.grid)
    states = engine.amplitudes(times)
    ham = interaction_hamiltonian(params.lam, params.n)
    defect = tfse_residual(params.beta, ham, SampledSignal(times, states))
    status = "ok" if defect <= args.tol else "FAIL"
    print(f"residual = {defect!r} (tol {args.tol!r}) {status}")
    if not params.is_eigenweighted():
        print("note: weights differ from the balanced split; the sampled "
              "amplitudes are a formal superposition, not a propagated state")
    return 0 if defect <= args.tol else 1


def _cmd_qsl(args) -> int:
    params = _params_from(args)
    doc = asdict(qsl_point(params, args.tau))
    if args.tau_d is not None:
        doc["window"] = asdict(qsl_mlmt(params, args.tau, args.tau_d))
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    # A value given for the swept axis goes into ``fixed`` too, so that
    # SweepSpec rejects it instead of the sweep silently ignoring it.
    fixed = {"a": args.a, "b": args.b}
    varied = {"tau": "tau", "lambda": "lam", "n": "n", "beta": "beta"}[args.axis]
    for key in ("beta", "lam", "n", "tau"):
        value = getattr(args, key)
        if value is not None:
            fixed[key] = value
        elif key != varied:
            raise InvalidParams(f"--{'lambda' if key == 'lam' else key} is required "
                                f"when sweeping {args.axis}")
    spec = SweepSpec(axis=args.axis, grid=_parse_grid(args.grid), fixed=fixed)
    records = run_sweep(spec, _resolve_threads(args.threads))
    text = records_to_csv(spec, records) if args.format == "csv" else records_to_json(spec, records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = sum(1 for r in records if r.error is not None)
    if failures:
        print(f"{failures} of {len(records)} points failed", file=sys.stderr)
        return 1
    return 0


def _cmd_figure(args) -> int:
    out_dir = args.out or args.figure
    paths, failures = run_figure(
        args.figure, out_dir, threads=_resolve_threads(args.threads), fmt=args.format
    )
    print(f"wrote {len(paths)} files to {out_dir}")
    if failures:
        print(f"{failures} points failed; see the error column", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracqsl",
        description="Fractional-order qubit dynamics and quantum speed limits.",
    )
    parser.add_argument("--version", action="version", version=f"fracqsl {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ml", help="evaluate the two-parameter special function")
    sp.add_argument("z", type=_complex_arg, help="argument, e.g. '-1.5' or '1+2j'")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.set_defaults(func=_cmd_ml)

    sp = sub.add_parser("evolve", help="amplitudes and populations at one time")
    _add_model_args(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("verify", help="equation-of-motion residual of a trajectory")
    _add_model_args(sp)
    sp.add_argument("--tau", type=float, default=1.0, help="end of the sampled window")
    sp.add_argument("--grid", type=int, default=2001, help="number of sample nodes")
    sp.add_argument("--tol", type=float, default=1e-3, help="pass threshold")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("qsl", help="speed-limit bounds at one point")
    _add_model_args(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--tau-d", dest="tau_d", type=float, default=None,
                    help="window length for the relative-purity bound")
    sp.set_defaults(func=_cmd_qsl)

    sp = sub.add_parser("sweep", help="scan one axis, fixing the rest")
    sp.add_argument("--axis", choices=("tau", "lambda", "n", "beta"), required=True)
    sp.add_argument("--grid", type=str, required=True,
                    help="'start:stop:count' or comma-separated values")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--a", type=float, default=math.sqrt(0.5))
    sp.add_argument("--b", type=float, default=math.sqrt(0.5))
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", type=str, default=None, help="output file (stdout if omitted)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("figure", help="run a preset batch of sweeps")
    sp.add_argument("figure", choices=("fig2", "fig3", "fig4", "fig5"))
    sp.add_argument("--out", type=str, default=None, help="output directory")
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FracQslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
