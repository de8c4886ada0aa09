"""Benchmark for beammodes: period curves, atlas rows, two-mode transfer.

    python3 perfbench/run.py --workload periods|atlas|transfer \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones of the chosen workload; with --trace 1 they are the
per-layer ones (see README.md).

The launcher starts the measuring process, and in an untraced run a few
processes that only set up, before and after it; it reports the median
set-up time: interpreter start to the end of the warm-up, as seen from the
launcher.
The workload runs in the measuring process alone, at jobs=1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("periods", "atlas", "transfer")
# Set-up is sampled at least SETUP_MIN times, and until the samples add up
# to SETUP_SECONDS (at most SETUP_MAX times); the median is reported.  About
# half of the samples are taken before the measuring process, the rest after.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 8.0
# The timed phase repeats whole rounds for --seconds, and at least until
# ten operations lie beyond the 90th percentile.
MIN_OPS = 100
READY = "setup-done"
# A run must end within --seconds plus this margin for set-up, probes and
# checks.
RUN_MARGIN_S = 150.0

# One BLAS thread: the workloads are single-threaded, and on a small
# shared machine a BLAS pool only adds noise to the Gauss-Legendre table
# build that periods pays in set-up.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import beammodes.cli; "
                "print(time.perf_counter() - t)")
GAMMA_COMMAND = ("import sys; sys.path.insert(0, 'src'); "
                 "from beammodes.cli import main; "
                 "sys.exit(main(['regime', 'gamma', '--gamma', '2.25']))")
# First call on the well branch's edge in a fresh interpreter: it builds
# the Gauss-Legendre tables up to the largest node count.
COLD_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
              "from beammodes.duffing import ModeParams, period_of; "
              "t = time.perf_counter(); period_of(ModeParams(k=1, P=2.0), -1e-12); "
              "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    return {**os.environ, **CHILD_ENV}


# ---------------------------------------------------------------- launcher --
def spawn(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run one measuring process; return (set-up seconds, its last line)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != READY:
        raise RuntimeError(f"measuring process failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def launch(args) -> int:
    deadline = perf_counter() + args.seconds + RUN_MARGIN_S
    setups = []

    def sample_setup(share: float) -> None:
        while not args.trace and len(setups) < share * SETUP_MAX and (
                len(setups) < share * SETUP_MIN
                or sum(setups) < share * SETUP_SECONDS):
            setups.append(spawn(args, True, deadline)[0])

    sample_setup(0.5)
    setup, line = spawn(args, False, deadline)
    setups.append(setup)
    sample_setup(1.0)
    result = json.loads(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ worker --
def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(work, seconds: float, min_ops: int, tracer=None) -> dict:
    """Repeat whole rounds of the workload for `seconds` (and `min_ops`)."""
    ops = work.ops
    min_rounds = math.ceil(min_ops / len(ops))
    op_ms, round_s = [], []
    first, last = [None] * len(ops), [None] * len(ops)
    errors = [set() for _ in ops]
    begin = perf_counter()
    while len(round_s) < min_rounds or perf_counter() - begin < seconds:
        start = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{work.name}:{len(round_s)}:{i}"
                span = tracer.open(f"op.{op.kind}")
            t0 = perf_counter()
            try:
                out = op.run()
                err = None
            except Exception as exc:        # a failed operation, not a failed run
                out, err = None, f"{type(exc).__name__}: {exc}"
            op_ms.append(1e3 * (perf_counter() - t0))
            if tracer is not None:
                tracer.close(span)
            errors[i].add(err)
            if not round_s:
                first[i] = (out, err)
            last[i] = (out, err)
        round_s.append(perf_counter() - start)
    return {"op_ms": op_ms, "round_s": round_s, "first": first, "last": last,
            "errors": errors}


def fault_departures(op, out, err) -> list[str]:
    """How a failed operation differs from its known fault's signature."""
    if op.known_fault is None:
        return ["not a known fault"]
    if err is not None:             # the known faults return an output
        return [err]
    try:
        return op.departures(out)
    except Exception as exc:
        return [f"signature check raised {type(exc).__name__}: {exc}"]


def check_rounds(work, timed: dict) -> tuple[bool, int]:
    """Check every operation's output; return (correct, failed per round).

    An operation fails when it raised, or when its output fails its check.
    The run is correct when only the known faults fail, each exactly as
    its signature says, and every round gave the same outputs as the first.
    """
    correct, failed = True, 0
    for i, op in enumerate(work.ops):
        out, err = timed["first"][i]
        same = len(timed["errors"][i]) == 1 and (
            err is not None
            or op.fingerprint(out) == op.fingerprint(timed["last"][i][0]))
        if err is not None:
            problems = [err]
        else:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if not same:
            problems.append("outputs differ between rounds")
            correct = False
        if problems:
            failed += 1
            departures = fault_departures(op, out, err)
            expected = same and not departures
            correct = correct and expected
            label = (f"known fault {op.known_fault}" if expected else
                     f"UNEXPECTED, {departures[0] if departures else problems[-1]}")
            print(f"[{work.name}] failed ({label}): {op.name}: {problems[0]}"
                  + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""),
                  file=sys.stderr)
    return correct, failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(timed: dict, rss: float) -> dict:
    op_ms = timed["op_ms"]
    return {
        "wall_s": metric(statistics.median(timed["round_s"]), "s"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(op_ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def subprocess_seconds(code: str, check=None, reported: bool = False) -> float:
    """Wall time of `python3 -c code` from the checkout root, or the time
    the snippet prints when `reported`."""
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    wall = perf_counter() - start
    if done.returncode != 0 or (check is not None and not check(done.stdout)):
        raise RuntimeError(f"probe failed: {code}\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) if reported else wall


def pool_seconds(bm, rows, jobs: int) -> float:
    start = perf_counter()
    for op in rows:
        bm.atlas.sweep(op.spec, jobs=jobs)
    return perf_counter() - start


def traced_run(args, bm, works) -> tuple[dict, bool, int, int]:
    import tracing

    work = works[args.workload]
    untraced = run_rounds(work, 0.5 * args.seconds, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = {name: run_rounds(w, 0.0, 1, tracer) for name, w in works.items()}
    finally:
        tracer.uninstall()
    rounds = untraced["round_s"] + traced[args.workload]["round_s"]
    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.overhead_frac"] = (
        traced[args.workload]["round_s"][0] / statistics.median(untraced["round_s"])
        - 1.0, "1")

    rows = [op for op in works["atlas"].ops if op.kind == "row"][:6]
    layers["atlas.pool.jobs1_s"] = (pool_seconds(bm, rows, 1), "s")
    layers["atlas.pool.jobs2_s"] = (pool_seconds(bm, rows, 2), "s")
    layers["duffing.period_of.cold_s"] = (
        subprocess_seconds(COLD_PROBE, reported=True), "s")
    layers["cli.import_s"] = (statistics.median(
        subprocess_seconds(IMPORT_PROBE, reported=True) for _ in range(3)), "s")
    def gamma_ok(out):
        return json.loads(out)["membership"] == "I_U"

    layers["cli.regime_gamma_s"] = (statistics.median(
        subprocess_seconds(GAMMA_COMMAND, gamma_ok) for _ in range(3)), "s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    correct, failed = check_rounds(work, untraced)
    for name, w in works.items():
        correct = check_rounds(w, traced[name])[0] and correct
    # the wrappers must not change what the program computes
    correct = correct and all(
        op.fingerprint(a[0]) == op.fingerprint(b[0]) for op, a, b in
        zip(work.ops, untraced["first"], traced[args.workload]["first"]))
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    return metrics, correct, len(rounds) * len(work.ops), len(rounds) * failed


def worker(args) -> int:
    import importlib
    import types

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    bm = types.SimpleNamespace(**{
        name: importlib.import_module(f"beammodes.{name}")
        for name in ("duffing", "integrate", "hill", "regime", "atlas", "twomode")})
    import workloads

    names = WORKLOADS if args.trace else (args.workload,)
    works = {name: workloads.BUILDERS[name](bm, args.seed) for name in names}
    for work in works.values():
        work.warm_up()
    print(READY, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        metrics, correct, attempted, failed = traced_run(args, bm, works)
    else:
        work = works[args.workload]
        timed = run_rounds(work, args.seconds, MIN_OPS)
        metrics = end_to_end(timed, peak_rss_mb())
        correct, failed_per_round = check_rounds(work, timed)
        rounds = len(timed["round_s"])
        attempted, failed = rounds * len(work.ops), rounds * failed_per_round
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False),
          flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "beammodes" / "__init__.py").is_file():
        print(f"no beammodes sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    try:
        return launch(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
