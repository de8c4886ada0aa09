"""A Hill cell is a point (gamma, P/m^2, E/m^4).  The mode equation and the
Hill coefficient are invariant under (m, n, P, E, t) -> (cm, cn, c^2 P,
c^4 E, t/c^2), so the trace of a cell depends on gamma = n^2/m^2, P/m^2 and
E/m^4 alone.  For c a power of two every scaled input is exact, and the
kernel's rules are scale-free, so the batch gives the same bits; at c = 3,
9P and 81E round."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from beammodes.errors import BeamModesError  # noqa: E402
from beammodes.hill import classify_batch  # noqa: E402

modes = st.integers(min_value=1, max_value=8)
exponents = st.floats(min_value=-6.0, max_value=6.0)
# where a well orbit lies between its floor (0) and the separatrix (1), and
# 10^-gap: how close to one of them
fractions = st.floats(min_value=0.0, max_value=1.0)
gaps = st.floats(min_value=1.0, max_value=10.0)

# Derandomized and without an example database, so every run draws the
# same examples.
PROPERTY_SETTINGS = settings(max_examples=75, deadline=None, derandomize=True,
                             database=None)


@st.composite
def cells(draw):
    """(m, n, P, E): P = 0, P = m^2 or P in [-20, 80]; E from a well's floor
    through the separatrix, where there is a well, and 10^-6 to 10^6 times
    max(depth, 1) above it."""
    m = draw(modes)
    n = draw(modes.filter(lambda n: n != m))
    P = draw(st.one_of(st.just(0.0), st.just(float(m * m)), st.floats(-20.0, 80.0)))
    depth = max(P - m * m, 0.0) ** 2 / 4.0     # the well's floor is E = -depth
    above = st.builds(lambda e: max(depth, 1.0) * 10.0 ** e, exponents)
    if depth == 0.0:
        return m, n, P, draw(above)
    inside = st.one_of(
        st.builds(lambda f: -f * depth, fractions.filter(lambda f: 0.0 < f < 1.0)),
        st.builds(lambda g: -(1.0 - 10.0 ** -g) * depth, gaps),   # near the floor
        st.builds(lambda g: -(10.0 ** -g) * depth, gaps))         # near the separatrix
    return m, n, P, draw(st.one_of(inside, above))


def scaled(cell, c):
    m, n, P, E = cell
    return c * m, c * n, c * c * P, c ** 4 * E


def record(report):
    if isinstance(report, BeamModesError):
        return type(report).__name__
    return report.monodromy.trace, report.verdict, report.monodromy.step_doubling


@PROPERTY_SETTINGS
@given(st.lists(cells(), min_size=1, max_size=8))
def test_a_cell_is_a_point_in_gamma_p_e(batch):
    base = classify_batch(batch)
    for c in (2, 4):
        assert [record(r) for r in classify_batch([scaled(cell, c) for cell in batch])] == \
            [record(r) for r in base]
    for ours, theirs in zip(base, classify_batch([scaled(cell, 3) for cell in batch])):
        if isinstance(ours, BeamModesError):
            assert type(theirs) is type(ours)
        else:
            assert theirs.verdict is ours.verdict
            assert theirs.monodromy.trace == pytest.approx(ours.monodromy.trace,
                                                           rel=1e-12, abs=0.0)
