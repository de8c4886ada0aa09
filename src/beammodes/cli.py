"""Command-line interface.

One subcommand family per module:

    beammodes mode period|orbit|homoclinic ...
    beammodes hill classify|criteria ...
    beammodes twomode simulate ...
    beammodes regime table|gamma|resonance|cazenave ...
    beammodes scan quartic ...
    beammodes stationary ...
    beammodes atlas sweep|thresholds ...

Results go to stdout as JSON (or CSV where tabular); --out redirects to a
file.  A --config file holds key=value lines mirroring the long flags of
the chosen subcommand, with explicit flags taking precedence.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 numerical-quality failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import atlas as atlas_mod
from . import duffing, hill, regime, stationary, twomode
from .errors import (
    BeamModesError,
    ConsistencyError,
    DomainError,
    IntegrationError,
    NumericalQualityError,
)
from .integrate import IntegratorConfig

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_QUALITY = 3


def _integrator(args) -> IntegratorConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        return IntegratorConfig()
    return IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2)


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    with (open(out, "w") if out else nullcontext(sys.stdout)) as stream:
        stream.write(text)
        if not text.endswith("\n"):
            stream.write("\n")


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2))


def _sample_count(args) -> int:
    if args.samples < 0:
        raise DomainError(f"--samples must be non-negative, got {args.samples}")
    return args.samples


def _add_tol(parser) -> None:
    parser.add_argument("--tol", type=float, default=None,
                        help="integrator relative tolerance (absolute = tol/100)")


def _add_out(parser) -> None:
    parser.add_argument("--out", type=str, default=None,
                        help="write output to this file instead of stdout")


# ---------------------------------------------------------------- mode ----

def _cmd_mode_period(args) -> int:
    params = duffing.ModeParams(k=args.k, P=args.P)
    T = duffing.period_of(params, args.E)
    _emit_json(args, {"k": args.k, "P": args.P, "E": args.E, "period": T})
    return EXIT_OK


def _cmd_mode_orbit(args) -> int:
    if not 0.0 < args.periods < math.inf:
        raise DomainError(f"--periods must be positive and finite, got {args.periods!r}")
    params = duffing.ModeParams(k=args.k, P=args.P)
    orbit = duffing.orbit_from_energy(params, args.E, sign=args.sign)
    if _sample_count(args):
        ts = np.linspace(0.0, args.periods * orbit.period, args.samples)
        lines = ["t,theta,theta_dot"]
        lines += [f"{t!r},{th!r},{v!r}"
                  for t, (th, v) in zip(ts.tolist(), orbit.states(ts).tolist())]
        _emit(args, "\n".join(lines))
        return EXIT_OK
    _emit_json(args, {
        "k": args.k, "P": args.P, "E": args.E,
        "regime": orbit.energy.regime.value,
        "amplitude": orbit.amplitude,
        "turning_sq": {"lo": orbit.sq_lo, "hi": orbit.sq_hi},
        "modulus": orbit.modulus,
        "period": orbit.period,
        "coefficient_period": orbit.coefficient_period,
        "initial_state": list(orbit.initial_state),
    })
    return EXIT_OK


def _cmd_mode_homoclinic(args) -> int:
    params = duffing.ModeParams(k=args.k, P=args.P)
    if _sample_count(args):
        ts = np.linspace(args.t_min, args.t_max, args.samples)
        values = duffing.homoclinic(params, ts)
        lines = ["t,theta"]
        lines += [f"{t!r},{v!r}" for t, v in zip(ts.tolist(), values.tolist())]
        _emit(args, "\n".join(lines))
    else:
        _emit_json(args, {"k": args.k, "P": args.P, "t": args.t,
                          "theta": duffing.homoclinic(params, args.t)})
    return EXIT_OK


# ---------------------------------------------------------------- hill ----

def _cmd_hill_classify(args) -> int:
    report = hill.classify_stability(args.m, args.n, args.P, args.E,
                                     config=_integrator(args),
                                     tol_margin=args.margin)
    _emit_json(args, {"m": args.m, "n": args.n, "P": args.P, "E": args.E,
                      **report.to_dict()})
    return EXIT_OK


def _cmd_hill_criteria(args) -> int:
    problem = hill.build_hill(args.m, args.n, args.P, args.E)
    result = hill.monodromy(problem, config=_integrator(args))
    report = hill.criteria_report(problem, result)
    _emit_json(args, {"m": args.m, "n": args.n, "P": args.P, "E": args.E,
                      "coeff_period": problem.coeff_period,
                      **report.to_dict()})
    return EXIT_OK


# ------------------------------------------------------------- twomode ----

def _cmd_twomode_simulate(args) -> int:
    config = twomode.TwoModeConfig(m=args.m, n=args.n, P=args.P,
                                   w0=args.w0, w1=args.w1,
                                   z0=args.z0, z1=args.z1)
    result = twomode.simulate(config, args.t_end, integrator=_integrator(args))
    if args.format == "csv":
        import io

        buffer = io.StringIO()
        twomode.write_channels_csv(buffer, result)
        _emit(args, buffer.getvalue())
        return EXIT_OK
    payload = {
        "m": args.m, "n": args.n, "P": args.P, "t_end": args.t_end,
        "total_energy": result.channels.total,
        "energy_drift": result.channels.drift,
        "samples": len(result.trajectory.times),
    }
    if result.channels.e_z[0] > 0.0:
        payload["transfer"] = twomode.transfer_report(
            result.channels, threshold=args.threshold).to_dict()
    _emit_json(args, payload)
    return EXIT_OK


# -------------------------------------------------------------- regime ----

def _cmd_regime_table(args) -> int:
    _emit_json(args, regime.table_regime(args.m, args.n, args.P).to_dict())
    return EXIT_OK


def _cmd_regime_gamma(args) -> int:
    if args.m is not None and args.n is not None:
        result = regime.classify_gamma(args.m, args.n)
    elif args.gamma is not None:
        result = regime.classify_gamma_value(args.gamma)
    else:
        raise DomainError("give either --m and --n, or --gamma")
    _emit_json(args, result.to_dict())
    return EXIT_OK


def _cmd_regime_resonance(args) -> int:
    _emit_json(args, regime.resonance_diagnostics(args.m, args.n, args.P).to_dict())
    return EXIT_OK


def _cmd_regime_cazenave(args) -> int:
    result = regime.cazenave_limit_classify(args.gamma, tol_margin=args.margin)
    _emit_json(args, {"gamma": args.gamma, **result.to_dict()})
    return EXIT_OK


# ---------------------------------------------------------------- scan ----

def _cmd_scan_quartic(args) -> int:
    hits = regime.resonance_quartic_scan(args.n_max)
    if args.format == "csv":
        lines = ["m,n,L"] + [f"{m},{n},{L}" for (m, n, L) in hits]
        _emit(args, "\n".join(lines))
    else:
        _emit_json(args, {"n_max": args.n_max, "hits":
                          [{"m": m, "n": n, "L": L} for (m, n, L) in hits]})
    return EXIT_OK


# ---------------------------------------------------------- stationary ----

def _cmd_stationary(args) -> int:
    catalog = stationary.stationary_catalog(args.P)
    if args.format == "csv":
        lines = ["j,sign,amplitude,energy,morse_index"]
        lines += [f"{s.j},{s.sign},{s.amplitude!r},{s.energy!r},{s.morse_index}"
                  for s in catalog]
        _emit(args, "\n".join(lines))
    else:
        _emit_json(args, {"P": args.P, "count": len(catalog),
                          "solutions": [s.to_dict() for s in catalog]})
    return EXIT_OK


# --------------------------------------------------------------- atlas ----

def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        m_str, _, n_str = chunk.partition(":")
        try:
            pairs.append((int(m_str), int(n_str)))
        except ValueError:
            raise DomainError(f"cannot parse mode pair {chunk!r}; use m:n")
    return pairs


def _grid(lo: float, hi: float, points: int, spacing: str) -> list[float]:
    if points < 1:
        raise DomainError("points must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid endpoints must be finite, got {lo!r}, {hi!r}")
    if spacing == "log":
        if lo <= 0.0:
            raise DomainError("log spacing needs positive endpoints")
        return list(np.geomspace(lo, hi, points))
    return list(np.linspace(lo, hi, points))


def _cmd_atlas_sweep(args) -> int:
    pairs = _parse_pairs(args.pairs) if args.pairs else [(args.m, args.n)]
    if any(v is None for pair in pairs for v in pair):
        raise DomainError("give --m and --n, or --pairs m:n,...")
    if args.adaptive:
        if len(pairs) != 1 or args.axis != "theta0" or args.source != "monodromy":
            raise DomainError("--adaptive needs a single m:n pair, the theta0 "
                              "axis and the monodromy source")
        (m, n), = pairs
        cells = atlas_mod.adaptive_amplitude_sweep(
            m, n, args.P, args.grid_max, args.points,
            theta0_min=args.grid_min if args.grid_min > 0.0 else None,
            integrator=_integrator(args), tol_margin=args.margin,
            jobs=args.jobs,
        )
    else:
        grid = _grid(args.grid_min, args.grid_max, args.points, args.spacing)
        kwargs = {"theta0_grid": grid} if args.axis == "theta0" else {"energy_grid": grid}
        spec = atlas_mod.SweepSpec(
            P=args.P, modes=pairs,
            verdict_source=(atlas_mod.VerdictSource.CAZENAVE_LIMIT
                            if args.source == "cazenave" else
                            atlas_mod.VerdictSource.MONODROMY),
            integrator=_integrator(args), tol_margin=args.margin, **kwargs,
        )
        cells = atlas_mod.sweep(spec, jobs=args.jobs)
    import io

    buffer = io.StringIO()
    atlas_mod.write_cells_csv(buffer, cells)
    _emit(args, buffer.getvalue())
    bad = sum(not c.ok for c in cells)
    if bad == len(cells):
        raise NumericalQualityError("every sweep cell failed")
    return EXIT_OK


def _cmd_atlas_thresholds(args) -> int:
    grid = _grid(args.e_min, args.e_max, args.points, args.spacing)
    found = atlas_mod.find_thresholds(args.m, args.n, args.P, grid,
                                      refinement_tol=args.refine_tol,
                                      integrator=_integrator(args),
                                      tol_margin=args.margin)
    _emit_json(args, {"m": args.m, "n": args.n, "P": args.P,
                      "grid": [grid[0], grid[-1], args.points],
                      "thresholds": found})
    return EXIT_OK


# ------------------------------------------------------------- parsing ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beammodes",
        description="Nonlinear beam modes: periods, stability, energy transfer.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file mirroring the long flags; "
                             "explicit flags override it")
    top = parser.add_subparsers(dest="command", required=True)

    # mode
    mode = top.add_parser("mode", help="single-mode orbits and periods")
    mode_sub = mode.add_subparsers(dest="subcommand", required=True)

    p = mode_sub.add_parser("period", help="orbit period at energy E")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--E", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_mode_period)

    p = mode_sub.add_parser("orbit", help="orbit summary or closed-form samples")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--periods", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=0,
                   help="emit a CSV trajectory with this many samples")
    _add_out(p)
    p.set_defaults(func=_cmd_mode_orbit)

    p = mode_sub.add_parser("homoclinic", help="separatrix orbit values")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--t-min", dest="t_min", type=float, default=-5.0)
    p.add_argument("--t-max", dest="t_max", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=_cmd_mode_homoclinic)

    # hill
    hill_p = top.add_parser("hill", help="Floquet stability of a mode pair")
    hill_sub = hill_p.add_subparsers(dest="subcommand", required=True)

    p = hill_sub.add_parser("classify", help="criteria + monodromy verdict")
    for flag in ("--m", "--n"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--margin", type=float, default=hill.DEFAULT_TOL_MARGIN)
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_hill_classify)

    p = hill_sub.add_parser("criteria", help="analytic criteria, read off the "
                            "monodromy pass (its determinant gate applies)")
    for flag in ("--m", "--n"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--E", type=float, required=True)
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_hill_criteria)

    # twomode
    tm = top.add_parser("twomode", help="coupled two-mode simulation")
    tm_sub = tm.add_subparsers(dest="subcommand", required=True)
    p = tm_sub.add_parser("simulate", help="integrate and report energy channels")
    for flag in ("--m", "--n"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--w0", type=float, default=0.0)
    p.add_argument("--w1", type=float, default=0.0)
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--z1", type=float, default=0.0)
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--threshold", type=float,
                   default=twomode.DEFAULT_TRANSFER_THRESHOLD)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_twomode_simulate)

    # regime
    rg = top.add_parser("regime", help="parameter-regime classification")
    rg_sub = rg.add_subparsers(dest="subcommand", required=True)

    p = rg_sub.add_parser("table", help="prediction-table row for (m, n, P)")
    for flag in ("--m", "--n"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_regime_table)

    p = rg_sub.add_parser("gamma", help="interval membership of n^2/m^2")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_out(p)
    p.set_defaults(func=_cmd_regime_gamma)

    p = rg_sub.add_parser("resonance", help="resonance diagnostics at (m, n, P)")
    for flag in ("--m", "--n"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_regime_resonance)

    p = rg_sub.add_parser("cazenave", help="large-energy limit verdict for gamma")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--margin", type=float, default=hill.DEFAULT_TOL_MARGIN)
    _add_out(p)
    p.set_defaults(func=_cmd_regime_cazenave)

    # scan
    sc = top.add_parser("scan", help="exact integer scans")
    sc_sub = sc.add_subparsers(dest="subcommand", required=True)
    p = sc_sub.add_parser("quartic", help="integer roots of the resonance quartic")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_scan_quartic)

    # stationary
    p = top.add_parser("stationary", help="stationary profiles at load P")
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_stationary)

    # atlas
    at = top.add_parser("atlas", help="stability sweeps and thresholds")
    at_sub = at.add_subparsers(dest="subcommand", required=True)

    p = at_sub.add_parser("sweep", help="verdict grid as CSV")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--pairs", type=str, default=None,
                   help="comma-separated mode pairs m:n overriding --m/--n")
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--axis", choices=("theta0", "energy"), default="theta0")
    p.add_argument("--grid-min", dest="grid_min", type=float, required=True)
    p.add_argument("--grid-max", dest="grid_max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--source", choices=("monodromy", "cazenave"),
                   default="monodromy")
    p.add_argument("--adaptive", action="store_true",
                   help="spend --points as an adaptive budget concentrated "
                        "near the stability boundary (theta0 axis, one pair)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--margin", type=float, default=hill.DEFAULT_TOL_MARGIN)
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_atlas_sweep)

    p = at_sub.add_parser("thresholds", help="stability transitions, where |trace| = 2")
    for flag in ("--m", "--n"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--e-min", dest="e_min", type=float, required=True)
    p.add_argument("--e-max", dest="e_max", type=float, required=True)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--refine-tol", dest="refine_tol", type=float, default=1e-4)
    p.add_argument("--margin", type=float, default=hill.DEFAULT_TOL_MARGIN)
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_atlas_thresholds)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice key=value pairs from --config FILE in as flags.

    File entries are inserted right after the subcommand words so that
    explicit flags, parsed later, win.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise DomainError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    flags: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"config line {line!r} is not key=value")
            flags += [f"--{key.strip()}", value.strip()]
    # leading non-flag words select the (sub)command
    head = 0
    while head < len(rest) and not rest[head].startswith("-"):
        head += 1
    return rest[:head] + flags + rest[head:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (NumericalQualityError, ConsistencyError) as exc:
        print(f"numerical-quality failure: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    except (DomainError, IntegrationError, BeamModesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
