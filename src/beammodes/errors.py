"""Exception hierarchy and result serialisation shared by all modules.

DomainError marks inputs outside an operation's mathematical domain,
IntegrationError marks ODE driver failures, and NumericalQualityError marks
results whose internal checks (determinant drift, residuals) failed even
though the computation ran to completion.  Five helpers are the one check
per kind of input: require_positive_int (mode numbers), require_finite
(loads, energies), require_positive_finite (horizons, tolerances, ratios),
require_mode_pair (distinct modes under a finite load) and require_count.
Serializable is the one rule by which result dataclasses become JSON-ready
dicts, and csv_text the one rule by which tables of results become CSV.
"""

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import fields
from enum import Enum
from numbers import Integral
from types import SimpleNamespace

# Largest sample, grid-point or cell-budget count: `mode orbit --samples
# 1000000` takes 7.4 s and peaks at 402 MB RSS, `mode homoclinic` 5.3 s and
# 352 MB, on 2 vCPUs; larger counts fail fast instead of exhausting memory.
MAX_COUNT = 1_000_000


class BeamModesError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BeamModesError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class IntegrationError(BeamModesError, RuntimeError):
    """The ODE driver could not finish (step failure, step underflow)."""

    def __init__(self, message: str, time: float | None = None):
        if time is not None:
            message = f"{message} (at t = {time})"
        super().__init__(message)
        self.time = time


class StepLimitError(IntegrationError):
    """The configured step budget was exhausted."""


class NoCrossingError(IntegrationError):
    """No zero crossing of the requested kind was found in the window."""


class NumericalQualityError(BeamModesError, RuntimeError):
    """A computed result failed its internal accuracy check."""


class ConsistencyError(BeamModesError, RuntimeError):
    """An analytic criterion and a direct computation disagree."""


def require_positive_int(label: str, value) -> None:
    """Raise DomainError unless value is an integer (Python or numpy) >= 1."""
    if not isinstance(value, Integral) or value < 1:
        raise DomainError(f"{label} must be a positive integer, got {value!r}")


def require_finite(label: str, x) -> None:
    """Raise DomainError unless x is a finite number (not NaN, not +-inf)."""
    if not math.isfinite(x):
        raise DomainError(f"{label} must be finite, got {x!r}")


def require_positive_finite(label: str, x) -> None:
    """Raise DomainError unless 0 < x < inf; NaN fails too."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{label} must be positive and finite, got {x!r}")


def require_count(label: str, n, minimum: int) -> None:
    """Raise DomainError unless n is an integer with minimum <= n <= MAX_COUNT."""
    if not isinstance(n, Integral) or not minimum <= n <= MAX_COUNT:
        raise DomainError(f"{label} must be an integer from {minimum} to "
                          f"{MAX_COUNT}, got {n!r}")


def require_mode_pair(m, n, P) -> None:
    """Raise DomainError unless m and n are distinct positive integers and
    the load P is finite: the domain of every mode-pair quantity."""
    require_positive_int("m", m)
    require_positive_int("n", n)
    if m == n:
        raise DomainError(f"modes m and n must be distinct, got m = n = {m!r}")
    require_finite("load P", P)


class Serializable:
    """Base of the result dataclasses: to_dict() gives the fields in
    declaration order, ready for json.dumps.

    Nested results become dicts, enums their .value, complex numbers
    [re, im], and arrays, numpy scalars and tuples lists or plain numbers.
    A field declared with metadata={"to_dict": False} is left out.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)
                if f.metadata.get("to_dict", True)}


def _plain(value):
    if isinstance(value, Serializable):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "tolist"):    # numpy arrays and scalars
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of a header row and one row per record, each line ended by
    a bare newline.  Floats, numpy float64 included, are repr(float(v)),
    the shortest form that reads back to the same value, so identical
    inputs give byte-identical text; a field is quoted only where csv
    needs it (a comma, a quote or a line break inside it)."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    # float() first: a numpy float64's own repr names its type
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return "".join(lines)
