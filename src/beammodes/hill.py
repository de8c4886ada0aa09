"""Linear stability of one beam mode against another.

Perturbing a periodic mode-m orbit theta(t) in the direction of mode n
(n != m) decouples, and the perturbation xi obeys the Hill equation

    xi'' + a(t) xi = 0,    a(t) = n^2 (n^2 - P) + m^2 n^2 theta(t)^2.

The coefficient period is half the orbit period for sign-changing orbits
(theta^2 there has half the period of theta) and the full period for
one-signed well orbits.  Stability is read off the monodromy matrix M of
the coefficient period: det M = 1, so |trace M| < 2 means bounded
solutions (multipliers on the unit circle) and |trace M| > 2 exponential
growth.  Two sufficient stability criteria and one sufficient instability
criterion cross-check that verdict; whenever one of them applies, the
monodromy verdict must agree.  The one pass that yields the monodromy
also carries the coefficient integrals the Li-Zhang criterion needs, so a
classified cell makes one pass over its orbit.  All of it reads a
HillProblem, the row (orbit, linear term, coupling) that build_hill alone
computes from (m, n, P); the large-energy limit is the row along
u'' + u^3 = 0 with linear term 0 and coupling gamma.

Every orbit starts at a turning point, so a(t) is even, and the monodromy
needs only half a coefficient period (Magnus & Winkler, Hill's Equation,
1966): with Phi = Phi(T/2) = [[a, b], [c, d]] the fundamental matrix at
T/2, M = S Phi^-1 S Phi with S = diag(1, -1).  The unfolding keeps the
factor det Phi, det Phi M = [[ad + bc, 2bd], [2ac, ad + bc]], so the
determinant the quality gate reads is (det Phi)^2 and nothing is divided
by it; the coefficient integrals are twice their half-period values.

The pass over (0, T/2) is a 6th-order Magnus integrator with three Gauss
nodes per step and exact 2x2 exponentials, run on a(t) sampled from the
closed-form orbit (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999;
Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  Its step count doubles
from 64 until two successive finite traces agree to the integrator's
rel_tol, the relative accuracy asked of the trace; a pass that overflows
doubles on.  Each step has unit determinant, so the determinant gate
cannot see a bad kernel result; the step doubling is its check.  The
accepted pass's samples give the coefficient integrals, with the kink of
(a^+)^2 at the root of a in closed form.  Only the step cap falls back:
past MAX_MAGNUS_STEPS, to the DOP853 pass, which integrates the orbit,
both Hill columns and the integrals together and is also the one pass of
the large-energy limit cell.

The kernel runs over a batch of cells (classify_batch; classify_stability
is a batch of one), one table (_Batch) of each cell's half period, linear
term, coupling, kink (the root of a, NaN where a keeps its sign) and orbit
frame (A, w, kp, cn or dn form), with no sign, as a(t) reads theta^2 alone,
and its orbits' Landen ladders, built once; past _Batch.of the kernel reads
no HillProblem.  Each pass evaluates every cell that has not converged
on one (cells, 3 steps) node array, each cell with its own step and row.
A pass holds at most 3 MAX_MAGNUS_STEPS nodes, what one cell at the cap
holds; a larger batch is passed in chunks.  A cell leaves the batch when
its own doubling test passes and takes its own fallback, so its result is
bit for bit that of the cell alone.  Both entries share the per-cell steps
after the kernel: classify_matrix, criteria_report and the cross-check.

A cell is a point (gamma = n^2/m^2, P/m^2, E/m^4): the mode equation and
a(t) are invariant under (m, n, P, E, t) -> (cm, cn, c^2 P, c^4 E, t/c^2).
The kernel's rules hold no absolute scale (the DOP853 fallback's abs_tol
is one), so for c a power of two it gives the same bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Sequence

from ._lazy import np
from .duffing import DuffingOrbit, ModeParams, orbit_from_energy
from .errors import (BeamModesError, ConsistencyError, DomainError, NumericalQualityError,
                     Serializable, attempt, require_mode_pair)
from .integrate import IntegratorConfig, integrate
from .special import jacobi_on_ladders, landen_ladders, sigma_constant

# |trace| within this margin of 2 is reported Marginal rather than forced
# into a side: Floquet boundaries are codimension one and grid sweeps must
# not flip verdicts on roundoff.
DEFAULT_TOL_MARGIN = 1e-6

# Monodromy determinant drift beyond this, relative to max(1, max|M_ij|^2),
# is a failed computation: det is a difference of products of entries, so
# its rounding error grows with their square.
_DET_QUALITY_TOL = 1e-6


class Verdict(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class HillProblem:
    """The Hill equation xi'' + a(t) xi = 0 with a(t) = linear_term +
    coupling theta(t)^2 along the orbit theta: one mode pair at one load
    (build_hill), or the large-energy limit."""

    orbit: DuffingOrbit
    linear_term: float
    coupling: float

    @property
    def coeff_period(self) -> float:
        return self.orbit.coefficient_period

    def coefficient(self, theta_sq: float) -> float:
        return self.linear_term + self.coupling * theta_sq

    @property
    def coeff_min(self) -> float:
        """Analytic minimum of a(t), from the orbit's theta^2 range."""
        return self.coefficient(self.orbit.sq_min)

    @property
    def coeff_max(self) -> float:
        """Analytic maximum of a(t)."""
        return self.coefficient(self.orbit.sq_hi)


def build_hill(m: int, n: int, P: float, E: float) -> HillProblem:
    """Hill problem for the mode pair (m, n) at energy E of mode m: linear
    term n^2 (n^2 - P) and coupling m^2 n^2 along the mode-m orbit.

    E must be admissible for mode m; the exact well bottom yields the
    constant-coefficient problem around the constant solution, with the
    limiting period as coefficient period.
    """
    require_mode_pair(m, n, P)
    return HillProblem(orbit_from_energy(ModeParams(k=m, P=P), E),
                       float(n**2) * (float(n**2) - P), float(m**2 * n**2))


@dataclass(frozen=True)
class MonodromyResult(Serializable):
    """Monodromy matrix of the Hill equation over one coefficient period.

    multipliers are the two Floquet multipliers, the roots of
    lambda^2 - trace lambda + det; their product is det, which equals 1 up
    to integration error (from monodromy the matrix is det Phi(T/2) M and
    det is (det Phi(T/2))^2).  coefficient_integrals holds (int_0^T a,
    int_0^T (a^+)^2) from the same integration when the matrix comes from
    monodromy, and None for a limit row or a bare matrix.  step_doubling
    holds the Magnus kernel's final step count over T/2 and the gap between
    its last two traces, and None when the matrix came from DOP853, so the
    nulls in to_dict tell which pass made the matrix.
    """

    matrix: np.ndarray
    det: float
    trace: float
    multipliers: tuple[complex, complex]
    verdict: Verdict
    coefficient_integrals: tuple[float, float] | None = None
    step_doubling: tuple[int, float] | None = None


def require_tol_margin(tol_margin: float) -> None:
    """Raise DomainError unless 0 <= tol_margin < 2: outside that range the
    marginal band is undefined or lets the Stable and Unstable bands meet."""
    if not 0.0 <= tol_margin < 2.0:
        raise DomainError(
            f"tol_margin must satisfy 0 <= tol_margin < 2, got {tol_margin!r}"
        )


def classify_matrix(matrix: np.ndarray, tol_margin: float = DEFAULT_TOL_MARGIN) -> MonodromyResult:
    """Verdict and multipliers of a 2x2 unit-determinant map.

    |trace| < 2 - tol_margin: Stable; |trace| > 2 + tol_margin: Unstable;
    the band in between (including |trace| = 2 exactly) is Marginal.
    Raises DomainError unless 0 <= tol_margin < 2, and
    NumericalQualityError when |det - 1| exceeds the quality tolerance
    scaled by max(1, max|M_ij|^2), or when an entry is NaN or infinite.
    """
    require_tol_margin(tol_margin)
    matrix = np.asarray(matrix, dtype=float)
    (a, b), (c, d) = matrix.tolist()   # Python floats: inf - inf is NaN, no warning
    det = a * d - b * c
    trace = a + d
    bound = _DET_QUALITY_TOL * max(1.0, float(np.max(np.abs(matrix))) ** 2)
    if not abs(det - 1.0) <= bound < math.inf:
        raise NumericalQualityError(
            f"monodromy determinant drifted to {det}; result not trustworthy"
        )
    r = cmath.sqrt(trace * trace - 4.0 * det)
    multipliers = ((trace + r) / 2.0, (trace - r) / 2.0)
    if abs(trace) < 2.0 - tol_margin:
        verdict = Verdict.STABLE
    elif abs(trace) > 2.0 + tol_margin:
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL
    return MonodromyResult(matrix=matrix, det=det, trace=trace,
                           multipliers=multipliers, verdict=verdict)


def _coupled_rhs(params: ModeParams, linear: float,
                 coupling: float) -> Callable[[float, list], list]:
    # One pass integrates the orbit, both fundamental Hill solutions and the
    # two coefficient quadratures of the Li-Zhang criterion:
    # y = (theta, theta', xi1, xi1', xi2, xi2', int a, int (a^+)^2).
    # Driving the Hill columns with the integrated orbit keeps coefficient
    # and solutions in phase to the integrator tolerance.  The orbit row is
    # duffing_rhs's expression, written out to save a call, slice and array.
    # Like it, this computes on Python floats and checks each derivative;
    # with a finite, a^2 is finite or raises OverflowError.
    stiffness = params.stiffness
    quartic = float(params.k) ** 4
    isfinite = math.isfinite

    def coupled(t: float, y: list[float]) -> list[float]:
        theta, v, x1, v1, x2, v2, _, _ = y
        a = linear + coupling * theta * theta
        dy = [v, -(stiffness + quartic * theta * theta) * theta,
              v1, -a * x1, v2, -a * x2, a, max(a, 0.0) ** 2]
        if not (isfinite(dy[1]) and isfinite(dy[3]) and isfinite(dy[5]) and isfinite(a)):
            raise FloatingPointError("overflow encountered in _coupled_rhs")
        return dy

    return coupled


def _unfold(a, b, c, d) -> np.ndarray:
    """det Phi M from Phi = Phi(T/2) = [[a, b], [c, d]], as in the module
    docstring; from numbers, or from arrays with one entry per cell, shape
    (cells, 2, 2)."""
    diagonal = a * d + b * c
    return np.array([diagonal, 2.0 * b * d, 2.0 * a * c, diagonal]).T.reshape(
        np.shape(diagonal) + (2, 2))


def _half_period_pass(params: ModeParams, state, linear: float, coupling: float,
                      half: float, config: IntegratorConfig) -> tuple[np.ndarray, tuple]:
    """det Phi M and the full-period coefficient integrals of mode params from
    state = (theta, theta') with a = linear + coupling theta^2, from one DOP853
    pass over (0, half) as in the module docstring; a must be even about t = 0."""
    y = integrate(_coupled_rhs(params, linear, coupling),
                  [*state, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (0.0, half), config).final_state
    a, c, b, d, mean, square = y[2:].tolist()   # Phi = [[a, b], [c, d]]
    return _unfold(a, b, c, d), (2.0 * mean, 2.0 * square)


# Step counts of the Magnus kernel over (0, T/2): the first pass, and the
# largest one before a cell falls back to the DOP853 pass.  Two coarse
# passes can agree by accident: a first pass at 16 or 32 steps stops
# (3, 7) at P = 49, E = 1.0494525233259504 with its trace 1.3e-10 off.
_MAGNUS_FIRST_STEPS = 64
MAX_MAGNUS_STEPS = 2**16

# Offset of the outer Gauss nodes from a step's midpoint, in steps, and the
# Gauss weights of the outer and middle nodes.
_GAUSS_OFFSET = math.sqrt(15.0) / 10.0
_OUTER_WEIGHT, _MIDDLE_WEIGHT = 5.0 / 18.0, 8.0 / 18.0


# A batched pass holds at most this many Gauss nodes, what one cell at the
# step cap holds; a batch with more is passed in chunks.
_PASS_NODES = 3 * MAX_MAGNUS_STEPS


@dataclass(frozen=True)
class _Batch:
    """The Hill problems of one kernel batch, one row each, as columns: half
    the coefficient period, the linear term, the coupling, the kink (the t* in
    (0, T/2) where a changes sign, NaN where a keeps its sign) and the orbit's
    closed-form frame (A, w, kp, dn form), each shaped (rows, 1) against a
    row of times per problem (0-d for one row, numpy's fast path); and the
    kp column's Landen ladders (special.landen_ladders)."""

    half: np.ndarray
    linear: np.ndarray
    coupling: np.ndarray
    kink: np.ndarray
    amplitude: np.ndarray
    omega: np.ndarray
    kp: np.ndarray
    dn_orbit: np.ndarray
    levels: np.ndarray
    means: np.ndarray

    @classmethod
    def of(cls, problems: Sequence[HillProblem]) -> _Batch:
        table = np.array([(0.5 * p.coeff_period, p.linear_term, p.coupling,
                           p.orbit.time_at_square(-p.linear_term / p.coupling)
                           if p.coeff_min < 0.0 < p.coeff_max else math.nan,
                           p.orbit.amplitude, *p.orbit.jacobi_scaling, not p.orbit.sign_changing)
                          for p in problems], dtype=float)
        *columns, kp, dn_orbit = table.T.reshape(
            table.shape[1:] + ((-1, 1) if len(table) > 1 else ()))
        return cls(*columns, kp, dn_orbit > 0.0, *landen_ladders(kp.reshape(kp.shape[:1])))

    def __len__(self) -> int:
        return self.half.size

    def __getitem__(self, rows) -> _Batch:
        """The batch of the problems at `rows` (a slice or an index array) of
        a batch of several: those rows of every field, the last axis of levels."""
        return _Batch(*(getattr(self, f.name)[(..., rows) if f.name == "levels" else rows]
                        for f in fields(self)))

    def coefficient(self, ts) -> np.ndarray:
        """a(t) = linear + coupling theta^2 at the times ts, a row per problem;
        theta is that of DuffingOrbit.states but for its sign."""
        _, cn, dn = jacobi_on_ladders(self.omega * ts, self.levels, self.means)
        A = self.amplitude
        theta = np.where(self.dn_orbit, A * self.kp / dn, A * cn)
        return self.linear + self.coupling * theta * theta


def _gauss_times(start, h) -> np.ndarray:
    """The three Gauss nodes of the steps (start, start + h), outer nodes
    first, along the last axis: a row of 3 steps nodes per row of starts."""
    mid = start + 0.5 * h
    return np.concatenate((mid - _GAUSS_OFFSET * h, mid, mid + _GAUSS_OFFSET * h), axis=-1)


def _gauss_sum(samples: np.ndarray) -> np.ndarray:
    """Per-step Gauss sums of values taken at _gauss_times's nodes and
    reshaped (..., 3, steps): times the step, the integral over each step."""
    return (_OUTER_WEIGHT * (samples[..., 0, :] + samples[..., 2, :])
            + _MIDDLE_WEIGHT * samples[..., 1, :])


def _magnus_pass(batch: _Batch, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """det Phi M of every problem of the batch, shape (cells, 2, 2), from
    `steps` (a power of two) 6th-order Magnus steps over (0, T/2), and the
    a(t) samples it took, shape (cells, 3, steps): a1, a2, a3 at the three
    Gauss nodes of each step h, on the closed-form orbit.  Each cell's h, a
    and every other number are its own; the rows share only the array.  For
    A = [[0, 1], [-a, 0]] every commutator in the step (Blanes, Casas, Oteo &
    Ros 2009) is traceless, so Omega = [[x, y], [z, -x]] in closed form: with
    Z1 = -h a2, Z2 = -(sqrt(15) h/3)(a3 - a1) and Z3 = -(10 h/3)(a3 - 2 a2 + a1),
        x = Z2 (-h/12 + h^2 Z1/180 + h^2 Z3/7200),
        y = h + h^3 Z2^2/3600 - h^2 Z3/180,
        z = Z1 + Z3/12 + ((4/3) h Z1 Z3 + h Z3^2/15 - 2 h Z2^2
                          + h^2 Z1 Z2^2/15)/240.
    A step with h^2 max|a_i| > 1 keeps only the 4th-order part,
    x = -h Z2/12, y = h, z = Z1 + Z3/12: there the higher terms grow like
    powers of h^2 a and overflow the exponential before the step count
    resolves a.  Omega^2 = q^2 I with q^2 = x^2 + y z, so exp(Omega) =
    cosh q I + (sinh q / q) Omega, cos and sin for q^2 < 0.  The steps
    are multiplied as a pairwise tree, later factors on the left."""
    h = batch.half / steps
    coefficient = batch.coefficient(_gauss_times(h * np.arange(steps), h))
    coefficient = coefficient.reshape(len(batch), 3, steps)
    a1, a2, a3 = coefficient.transpose(1, 0, 2)
    z1 = -h * a2
    z2 = -(math.sqrt(15.0) / 3.0) * h * (a3 - a1)
    z3 = -(10.0 / 3.0) * h * (a3 - 2.0 * a2 + a1)
    # h where the step takes the 6th-order terms, 0 where it keeps the 4th
    sixth = np.where(h * h * np.max(np.abs(coefficient), axis=1) <= 1.0, h, 0.0)
    x = z2 * (-h / 12.0 + sixth * h * (z1 / 180.0 + z3 / 7200.0))
    y = h + sixth * h * (h * z2 * z2 / 3600.0 - z3 / 180.0)
    z = z1 + z3 / 12.0 + sixth * ((4.0 / 3.0) * z1 * z3 + z3 * z3 / 15.0 - 2.0 * z2 * z2
                                  + h * z1 * z2 * z2 / 15.0) / 240.0
    q2 = x * x + y * z
    q = np.sqrt(np.abs(q2))
    cos_part, sin_part = np.cos(q), np.sinc(q / math.pi)   # sinc: sin(q) / q
    growing = q2 > 0.0
    cos_part[growing] = np.cosh(q[growing])
    sin_part[growing] = np.sinh(q[growing]) / q[growing]
    factors = np.empty((len(batch), steps, 2, 2))
    factors[..., 0, 0] = cos_part + sin_part * x
    factors[..., 0, 1] = sin_part * y
    factors[..., 1, 0] = sin_part * z
    factors[..., 1, 1] = cos_part - sin_part * x
    while factors.shape[1] > 1:
        factors = factors[:, 1::2] @ factors[:, 0::2]
    (a, b), (c, d) = factors[:, 0].transpose(1, 2, 0)
    return _unfold(a, b, c, d), coefficient


def _coefficient_integrals(batch: _Batch, coefficient: np.ndarray) -> list[tuple]:
    """(int_0^T a, int_0^T (a^+)^2) of each problem of the batch from a pass's
    samples a(t) at the Gauss nodes, shape (cells, 3, steps): the Gauss sums
    over (0, T/2), doubled.  a is monotone on (0, T/2), as theta^2 is, so it
    changes sign at most once, at the batch's kink t*; on the step that holds
    t*, (a^+)^2 is integrated by Gauss over its positive side alone, past the
    kink that the plain Gauss sum misses."""
    steps = coefficient.shape[2]
    hs = (batch.half / steps).reshape(-1)
    positive = np.maximum(coefficient, 0.0)
    shares = _gauss_sum(positive * positive)
    roots = batch.kink.reshape(-1)
    kinks = np.flatnonzero(~np.isnan(roots))
    if kinks.size:
        root, h = roots[kinks], hs[kinks]
        kink = np.minimum((root / h).astype(int), steps - 1)
        # a > 0 before t* on a cn orbit, after it on a dn one
        dn_orbit = batch.dn_orbit.reshape(-1)[kinks]
        start = np.where(dn_orbit, root, kink * h)
        width = (np.where(dn_orbit, (kink + 1) * h, root) - start)[:, None]
        kinked = batch if kinks.size == len(batch) else batch[kinks]
        side = kinked.coefficient(_gauss_times(start[:, None], width)).reshape(-1, 3, 1)
        shares[kinks, kink] = width[:, 0] / h * _gauss_sum(side * side)[:, 0]
    means = _gauss_sum(coefficient)
    return [(2.0 * h * float(np.sum(mean)), 2.0 * h * float(np.sum(share)))
            for h, mean, share in zip(hs.tolist(), means, shares)]


def _magnus_kernel(problems: Sequence[HillProblem], rel_tol: float) -> list:
    """(det Phi M, integrals, (steps, delta)) of each problem from Magnus
    passes at 64, 128, ... steps, up to the first pass whose trace is within
    rel_tol max(1, |trace|) of the last one's, delta being that gap, the
    integrals from its samples; None past MAX_MAGNUS_STEPS.  A first trace
    (last = nan) or a non-finite one never passes that test: the doubling
    runs on.  Each pass evaluates all unconverged cells at once, in chunks of
    at most _PASS_NODES nodes, and a cell leaves when its own test passes;
    its result does not depend on the rest of the batch."""
    results: list = [None] * len(problems)
    if not problems:
        return results
    batch, active = _Batch.of(problems), list(range(len(problems)))
    last = [math.nan] * len(problems)
    steps = _MAGNUS_FIRST_STEPS
    with np.errstate(over="ignore", invalid="ignore"):
        while steps <= MAX_MAGNUS_STEPS and active:
            size = max(1, _PASS_NODES // (3 * steps))
            left = []
            for begin in range(0, len(active), size):
                chunk = batch if size >= len(active) else batch[begin:begin + size]
                matrices, coefficient = _magnus_pass(chunk, steps)
                passed = []
                for row, trace in enumerate((2.0 * matrices[:, 0, 0]).tolist()):
                    i = active[begin + row]
                    if abs(trace - last[i]) <= rel_tol * max(1.0, abs(trace)) < math.inf:
                        passed.append((row, i, abs(trace - last[i])))
                    else:
                        left.append(begin + row)
                    last[i] = trace
                if passed:
                    rows = [row for row, _, _ in passed]
                    whole = len(rows) == len(chunk)
                    integrals = _coefficient_integrals(chunk if whole else chunk[rows],
                                                       coefficient if whole else coefficient[rows])
                    for (row, i, gap), pair in zip(passed, integrals):
                        results[i] = (matrices[row].copy(), pair, (steps, gap))
            if left and len(left) < len(active):
                batch = batch[left]
            active, steps = [active[row] for row in left], 2 * steps
    return results


def _classified(problem: HillProblem, kernel: tuple | None, config: IntegratorConfig,
                tol_margin: float) -> MonodromyResult:
    """The problem's MonodromyResult from its Magnus kernel result, or from
    the DOP853 pass at config when the kernel reached its cap (None)."""
    if kernel is None:
        kernel = (*_half_period_pass(
            problem.orbit.params, problem.orbit.initial_state, problem.linear_term,
            problem.coupling, 0.5 * problem.coeff_period, config), None)
    matrix, integrals, doubling = kernel
    return replace(classify_matrix(matrix, tol_margin), coefficient_integrals=integrals,
                   step_doubling=doubling)


def monodromy(
    problem: HillProblem,
    config: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
) -> MonodromyResult:
    """Monodromy matrix over one coefficient period of the Hill problem,
    with the coefficient integrals of the same pass attached.

    The pass runs over half the coefficient period and unfolds the matrix
    det Phi(T/2) M from there, whose determinant is (det Phi(T/2))^2.  That
    needs a(t) even, which holds because the orbit starts at a turning
    point: initial_state[1] == 0.

    The pass is the Magnus kernel on the closed-form orbit, with step
    doubling until two traces agree within config.rel_tol max(1, |trace|);
    the result records the final step count and that gap in step_doubling.
    A cell whose traces do not converge by MAX_MAGNUS_STEPS takes the
    DOP853 pass at config instead, and step_doubling is None.
    """
    return _classified(problem, _magnus_kernel([problem], config.rel_tol)[0],
                       config, tol_margin)


@dataclass(frozen=True)
class ZhukovskiiResult(Serializable):
    """Sandwich test: a(t) >= 0 and [a_min, a_max] inside one Floquet gap.

    Applies when some integer ell satisfies
    ell^2 pi^2 / T^2 <= a(t) <= (ell+1)^2 pi^2 / T^2 for all t,
    with T the coefficient period; then the equation is stable.
    """

    applies: bool
    ell: int | None = None


@dataclass(frozen=True)
class LiZhangResult(Serializable):
    """Mean-square test: positive mean and small positive part.

    Applies when int_0^T a > 0 and T^3 int_0^T (a^+)^2 < (64/3) sigma^4,
    with T the coefficient period; then the equation is stable.  lhs and
    rhs report the two sides of the strict inequality.
    """

    applies: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class NegativeCoefficientResult(Serializable):
    """a(t) <= 0 throughout forces instability of a nontrivial coefficient."""

    applies: bool


@dataclass(frozen=True)
class CriterionReport(Serializable):
    zhukovskii: ZhukovskiiResult
    li_zhang: LiZhangResult
    negative_coefficient: NegativeCoefficientResult


def zhukovskii_criterion(problem: HillProblem) -> ZhukovskiiResult:
    """Stability when [a_min, a_max] fits between consecutive squared
    half-harmonics of the coefficient period."""
    a_min = problem.coeff_min
    a_max = problem.coeff_max
    if a_min < 0.0:
        return ZhukovskiiResult(applies=False)
    T = problem.coeff_period
    base = (math.pi / T) ** 2
    ell = int(math.floor(math.sqrt(a_min / base)))
    if a_max <= (ell + 1) ** 2 * base:
        return ZhukovskiiResult(applies=True, ell=ell)
    return ZhukovskiiResult(applies=False)


def li_zhang_criterion(problem: HillProblem, result: MonodromyResult) -> LiZhangResult:
    """Stability from a positive coefficient mean and a small mean square,
    read off the coefficient integrals of the problem's monodromy pass."""
    if result.coefficient_integrals is None:
        raise DomainError("the monodromy result carries no coefficient integrals")
    mean, square = result.coefficient_integrals
    lhs = problem.coeff_period**3 * square
    rhs_bound = (64.0 / 3.0) * sigma_constant() ** 4
    return LiZhangResult(applies=mean > 0.0 and lhs < rhs_bound,
                         lhs=lhs, rhs=rhs_bound)


def negative_coefficient_criterion(problem: HillProblem) -> NegativeCoefficientResult:
    """Instability when the coefficient never becomes positive.

    Equivalent to the amplitude bound max theta^2 <= (P - n^2) / m^2; for a
    well orbit of mode m this happens up to the threshold energy
    E1 = (P - n^2)(2 m^2 - n^2 - P) / 4.
    """
    return NegativeCoefficientResult(applies=problem.coeff_max <= 0.0)


@dataclass(frozen=True)
class StabilityReport(Serializable):
    verdict: Verdict
    criteria: CriterionReport
    monodromy: MonodromyResult


def criteria_report(problem: HillProblem, result: MonodromyResult) -> CriterionReport:
    return CriterionReport(
        zhukovskii=zhukovskii_criterion(problem),
        li_zhang=li_zhang_criterion(problem, result),
        negative_coefficient=negative_coefficient_criterion(problem),
    )


def _checked(cell: tuple, problem: HillProblem, result: MonodromyResult) -> StabilityReport:
    """classify_stability's report of the cell (m, n, P, E) from its
    monodromy result: the criteria, cross-checked against its verdict."""
    m, n, P, E = cell
    criteria = criteria_report(problem, result)
    stable_claim = criteria.zhukovskii.applies or criteria.li_zhang.applies
    unstable_claim = criteria.negative_coefficient.applies
    if stable_claim and result.verdict is Verdict.UNSTABLE:
        raise ConsistencyError(
            f"stability criterion applies but monodromy is unstable "
            f"(m={m}, n={n}, P={P}, E={E}, trace={result.trace})"
        )
    if unstable_claim and result.verdict is Verdict.STABLE:
        raise ConsistencyError(
            f"instability criterion applies but monodromy is stable "
            f"(m={m}, n={n}, P={P}, E={E}, trace={result.trace})"
        )
    return StabilityReport(verdict=result.verdict, criteria=criteria,
                           monodromy=result)


def classify_stability(
    m: int,
    n: int,
    P: float,
    E: float,
    config: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
) -> StabilityReport:
    """Full stability classification of the (m, n) pair at energy E.

    One integration gives the monodromy verdict and the coefficient
    integrals that the analytic criteria read; the two are cross-checked:
    a stability criterion that applies alongside an Unstable monodromy
    verdict (or the instability criterion alongside Stable) raises
    ConsistencyError.  Marginal monodromy agrees with either side.
    """
    problem = build_hill(m, n, P, E)
    return _checked((m, n, P, E), problem, monodromy(problem, config, tol_margin))


def classify_batch(
    cells: Sequence[tuple[int, int, float, float]],
    config: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
) -> list[StabilityReport | BeamModesError]:
    """classify_stability of every cell (m, n, P, E), with one Magnus kernel
    run over all of them; a cell that raises gives its BeamModesError in
    place of the report.  Each report equals classify_stability's for its
    cell, bit for bit."""
    reports = [attempt(build_hill, *cell) for cell in cells]
    built = [i for i, problem in enumerate(reports) if isinstance(problem, HillProblem)]
    kernels = _magnus_kernel([reports[i] for i in built], config.rel_tol)
    for i, kernel in zip(built, kernels):
        problem = reports[i]
        reports[i] = attempt(lambda: _checked(
            cells[i], problem, _classified(problem, kernel, config, tol_margin)))
    return reports
