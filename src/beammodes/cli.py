"""Command-line interface.

One subcommand family per module:

    beammodes mode period|orbit|homoclinic ...
    beammodes hill classify|criteria ...
    beammodes twomode simulate ...
    beammodes regime table|gamma|resonance|cazenave ...
    beammodes scan quartic ...
    beammodes stationary ...
    beammodes atlas sweep|thresholds ...

Each command handler returns its result, a dict (written as indented
JSON) or CSV text, and main writes it to stdout or to the --out file.
Flags shared between subcommands are declared once, as argparse parent
groups.  A --config file holds key=value lines mirroring the long flags of
the chosen subcommand, with explicit flags taking precedence.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 numerical-quality failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from operator import attrgetter

import numpy as np

from . import atlas as atlas_mod
from . import duffing, hill, regime, stationary, twomode
from .errors import (
    BeamModesError,
    ConsistencyError,
    DomainError,
    NumericalQualityError,
    csv_text,
    require_count,
    require_finite,
    require_positive_finite,
)
from .integrate import IntegratorConfig

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_QUALITY = 3


def _integrator(args) -> IntegratorConfig:
    if args.tol is None:
        return IntegratorConfig()
    return IntegratorConfig(rel_tol=args.tol, abs_tol=args.tol * 1e-2)


def _emit(args, result: dict | str) -> None:
    """Write a command's result, a JSON-ready dict or CSV text, to --out or
    stdout."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2)
    with (open(args.out, "w") if args.out else nullcontext(sys.stdout)) as stream:
        stream.write(text)
        if not text.endswith("\n"):
            stream.write("\n")


# ---------------------------------------------------------------- mode ----

def _cmd_mode_period(args) -> dict:
    params = duffing.ModeParams(k=args.k, P=args.P)
    T = duffing.period_of(params, args.E)
    return {"k": args.k, "P": args.P, "E": args.E, "period": T}


def _cmd_mode_orbit(args) -> dict | str:
    require_positive_finite("--periods", args.periods)
    params = duffing.ModeParams(k=args.k, P=args.P)
    orbit = duffing.orbit_from_energy(params, args.E, sign=args.sign)
    require_count("--samples", args.samples, 0)
    if args.samples:
        ts = np.linspace(0.0, args.periods * orbit.period, args.samples)
        return csv_text(("t", "theta", "theta_dot"),
                        np.column_stack((ts, orbit.states(ts))).tolist())
    return {
        "k": args.k, "P": args.P, "E": args.E,
        "regime": orbit.energy.regime.value,
        "amplitude": orbit.amplitude,
        "turning_sq": {"lo": orbit.sq_lo, "hi": orbit.sq_hi},
        "modulus": orbit.modulus,
        "period": orbit.period,
        "coefficient_period": orbit.coefficient_period,
        "initial_state": list(orbit.initial_state),
    }


def _cmd_mode_homoclinic(args) -> dict | str:
    params = duffing.ModeParams(k=args.k, P=args.P)
    require_count("--samples", args.samples, 0)
    if args.samples:
        ts = _grid(args.t_min, args.t_max, args.samples, "linear")
        return csv_text(("t", "theta"),
                        np.column_stack((ts, duffing.homoclinic(params, ts))).tolist())
    return {"k": args.k, "P": args.P, "t": args.t,
            "theta": duffing.homoclinic(params, args.t)}


# ---------------------------------------------------------------- hill ----

def _cmd_hill_classify(args) -> dict:
    report = hill.classify_stability(args.m, args.n, args.P, args.E,
                                     config=_integrator(args),
                                     tol_margin=args.margin)
    return {"m": args.m, "n": args.n, "P": args.P, "E": args.E,
            **report.to_dict()}


def _cmd_hill_criteria(args) -> dict:
    problem = hill.build_hill(args.m, args.n, args.P, args.E)
    result = hill.monodromy(problem, config=_integrator(args))
    report = hill.criteria_report(problem, result)
    return {"m": args.m, "n": args.n, "P": args.P, "E": args.E,
            "coeff_period": problem.coeff_period, **report.to_dict()}


# ------------------------------------------------------------- twomode ----

def _cmd_twomode_simulate(args) -> dict | str:
    config = twomode.TwoModeConfig(m=args.m, n=args.n, P=args.P,
                                   w0=args.w0, w1=args.w1,
                                   z0=args.z0, z1=args.z1)
    result = twomode.simulate(config, args.t_end, integrator=_integrator(args))
    if args.format == "csv":
        return twomode.channels_csv(result)
    payload = {
        "m": args.m, "n": args.n, "P": args.P, "t_end": args.t_end,
        "total_energy": result.channels.total,
        "energy_drift": result.channels.drift,
        "samples": len(result.trajectory.times),
    }
    if result.channels.e_z[0] > 0.0:
        payload["transfer"] = twomode.transfer_report(
            result.channels, threshold=args.threshold).to_dict()
    return payload


# -------------------------------------------------------------- regime ----

def _cmd_regime_table(args) -> dict:
    return regime.table_regime(args.m, args.n, args.P).to_dict()


def _cmd_regime_gamma(args) -> dict:
    if args.m is not None and args.n is not None:
        result = regime.classify_gamma(args.m, args.n)
    elif args.gamma is not None:
        result = regime.classify_gamma_value(args.gamma)
    else:
        raise DomainError("give either --m and --n, or --gamma")
    return result.to_dict()


def _cmd_regime_resonance(args) -> dict:
    return regime.resonance_diagnostics(args.m, args.n, args.P).to_dict()


def _cmd_regime_cazenave(args) -> dict:
    result = regime.cazenave_limit_classify(args.gamma, tol_margin=args.margin)
    return {"gamma": args.gamma, **result.to_dict()}


# ---------------------------------------------------------------- scan ----

def _cmd_scan_quartic(args) -> dict | str:
    hits = regime.resonance_quartic_scan(args.n_max)
    if args.format == "csv":
        return csv_text(("m", "n", "L"), hits)
    return {"n_max": args.n_max,
            "hits": [{"m": m, "n": n, "L": L} for (m, n, L) in hits]}


# ---------------------------------------------------------- stationary ----

def _cmd_stationary(args) -> dict | str:
    catalog = stationary.stationary_catalog(args.P)
    if args.format == "csv":
        header = ("j", "sign", "amplitude", "energy", "morse_index")
        return csv_text(header, map(attrgetter(*header), catalog))
    return {"P": args.P, "count": len(catalog),
            "solutions": [s.to_dict() for s in catalog]}


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
    require_count("points", points, 1)
    log = spacing == "log"
    # geomspace fails on a zero end and gives NaN past one
    check = require_positive_finite if log else require_finite
    check("grid start", lo)
    check("grid end", hi)
    return list(np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points))


def _cmd_atlas_sweep(args) -> str:
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
            theta0_min=None if args.grid_min == 0.0 else args.grid_min,
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
    text = atlas_mod.cells_csv(cells)
    if not any(c.ok for c in cells):
        # the CSV still records why each cell failed
        _emit(args, text)
        raise NumericalQualityError("every sweep cell failed")
    return text


def _cmd_atlas_thresholds(args) -> dict:
    grid = _grid(args.e_min, args.e_max, args.points, args.spacing)
    found = atlas_mod.find_thresholds(args.m, args.n, args.P, grid,
                                      refinement_tol=args.refine_tol,
                                      integrator=_integrator(args),
                                      tol_margin=args.margin)
    return {"m": args.m, "n": args.n, "P": args.P,
            "grid": [grid[0], grid[-1], args.points], "thresholds": found}


# ------------------------------------------------------------- parsing ----

def _flags(*names: str, **options) -> argparse.ArgumentParser:
    """A flag group to pass as parents=, holding the flags names, each
    declared with options; add_argument adds more."""
    group = argparse.ArgumentParser(add_help=False)
    for name in names:
        group.add_argument(name, **options)
    return group


def _leaf(sub, name: str, help: str, func, *groups) -> None:
    """Subcommand name whose flags are the given groups, in order; its own
    flags form a group too, so that shared groups can follow them."""
    sub.add_parser(name, help=help, parents=groups).set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beammodes",
        description="Nonlinear beam modes: periods, stability, energy transfer.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file mirroring the long flags; "
                             "explicit flags override it")
    top = parser.add_subparsers(dest="command", required=True)

    # flag groups shared between subcommands, each declared once
    out = _flags("--out", type=str, default=None,
                 help="write output to this file instead of stdout")
    tol = _flags("--tol", type=float, default=None,
                 help="integrator relative tolerance (absolute = tol/100)")
    margin = _flags("--margin", type=float, default=hill.DEFAULT_TOL_MARGIN)
    fmt = _flags("--format", choices=("json", "csv"), default="json")
    energy = _flags("--E", type=float, required=True)
    mode_load = _flags("--k", type=int, required=True)
    mode_load.add_argument("--P", type=float, required=True)
    pair_load = _flags("--m", "--n", type=int, required=True)
    pair_load.add_argument("--P", type=float, required=True)

    # mode
    mode = top.add_parser("mode", help="single-mode orbits and periods")
    mode_sub = mode.add_subparsers(dest="subcommand", required=True)

    _leaf(mode_sub, "period", "orbit period at energy E", _cmd_mode_period,
          mode_load, energy, out)

    own = _flags()
    own.add_argument("--sign", type=int, default=1, choices=(1, -1))
    own.add_argument("--periods", type=float, default=1.0)
    own.add_argument("--samples", type=int, default=0,
                     help="emit a CSV trajectory with this many samples")
    _leaf(mode_sub, "orbit", "orbit summary or closed-form samples",
          _cmd_mode_orbit, mode_load, energy, own, out)

    own = _flags()
    own.add_argument("--t", type=float, default=0.0)
    own.add_argument("--t-min", dest="t_min", type=float, default=-5.0)
    own.add_argument("--t-max", dest="t_max", type=float, default=5.0)
    own.add_argument("--samples", type=int, default=0)
    _leaf(mode_sub, "homoclinic", "separatrix orbit values",
          _cmd_mode_homoclinic, mode_load, own, out)

    # hill
    hill_p = top.add_parser("hill", help="Floquet stability of a mode pair")
    hill_sub = hill_p.add_subparsers(dest="subcommand", required=True)

    _leaf(hill_sub, "classify", "criteria + monodromy verdict",
          _cmd_hill_classify, pair_load, energy, margin, tol, out)
    _leaf(hill_sub, "criteria", "analytic criteria, read off the monodromy "
          "pass (its determinant gate applies)",
          _cmd_hill_criteria, pair_load, energy, tol, out)

    # twomode
    tm = top.add_parser("twomode", help="coupled two-mode simulation")
    tm_sub = tm.add_subparsers(dest="subcommand", required=True)
    own = _flags()
    own.add_argument("--w0", type=float, default=0.0)
    own.add_argument("--w1", type=float, default=0.0)
    own.add_argument("--z0", type=float, default=0.0)
    own.add_argument("--z1", type=float, default=0.0)
    own.add_argument("--t-end", dest="t_end", type=float, required=True)
    own.add_argument("--threshold", type=float,
                     default=twomode.DEFAULT_TRANSFER_THRESHOLD)
    _leaf(tm_sub, "simulate", "integrate and report energy channels",
          _cmd_twomode_simulate, pair_load, own, fmt, tol, out)

    # regime
    rg = top.add_parser("regime", help="parameter-regime classification")
    rg_sub = rg.add_subparsers(dest="subcommand", required=True)

    _leaf(rg_sub, "table", "prediction-table row for (m, n, P)",
          _cmd_regime_table, pair_load, out)

    own = _flags("--m", "--n", type=int, default=None)
    own.add_argument("--gamma", type=float, default=None)
    _leaf(rg_sub, "gamma", "interval membership of n^2/m^2",
          _cmd_regime_gamma, own, out)

    _leaf(rg_sub, "resonance", "resonance diagnostics at (m, n, P)",
          _cmd_regime_resonance, pair_load, out)

    own = _flags("--gamma", type=float, required=True)
    _leaf(rg_sub, "cazenave", "large-energy limit verdict for gamma",
          _cmd_regime_cazenave, own, margin, out)

    # scan
    sc = top.add_parser("scan", help="exact integer scans")
    sc_sub = sc.add_subparsers(dest="subcommand", required=True)
    own = _flags("--n-max", dest="n_max", type=int, required=True)
    _leaf(sc_sub, "quartic", "integer roots of the resonance quartic",
          _cmd_scan_quartic, own, fmt, out)

    # stationary
    own = _flags("--P", type=float, required=True)
    _leaf(top, "stationary", "stationary profiles at load P",
          _cmd_stationary, own, fmt, out)

    # atlas
    at = top.add_parser("atlas", help="stability sweeps and thresholds")
    at_sub = at.add_subparsers(dest="subcommand", required=True)

    own = _flags("--m", "--n", type=int, default=None)
    own.add_argument("--pairs", type=str, default=None,
                     help="comma-separated mode pairs m:n overriding --m/--n")
    own.add_argument("--P", type=float, required=True)
    own.add_argument("--axis", choices=("theta0", "energy"), default="theta0")
    own.add_argument("--grid-min", dest="grid_min", type=float, required=True)
    own.add_argument("--grid-max", dest="grid_max", type=float, required=True)
    own.add_argument("--points", type=int, required=True)
    own.add_argument("--spacing", choices=("linear", "log"), default="linear")
    own.add_argument("--source", choices=("monodromy", "cazenave"),
                     default="monodromy")
    own.add_argument("--adaptive", action="store_true",
                     help="spend --points as an adaptive budget concentrated "
                          "near the stability boundary (theta0 axis, one pair)")
    own.add_argument("--jobs", type=int, default=1)
    _leaf(at_sub, "sweep", "verdict grid as CSV", _cmd_atlas_sweep,
          own, margin, tol, out)

    own = _flags()
    own.add_argument("--e-min", dest="e_min", type=float, required=True)
    own.add_argument("--e-max", dest="e_max", type=float, required=True)
    own.add_argument("--points", type=int, default=32)
    own.add_argument("--spacing", choices=("linear", "log"), default="linear")
    own.add_argument("--refine-tol", dest="refine_tol", type=float, default=1e-4)
    _leaf(at_sub, "thresholds", "stability transitions, where |trace| = 2",
          _cmd_atlas_thresholds, pair_load, own, margin, tol, out)

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
        _emit(args, args.func(args))
        return EXIT_OK
    except (NumericalQualityError, ConsistencyError) as exc:
        print(f"numerical-quality failure: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    except (BeamModesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
