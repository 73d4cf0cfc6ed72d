"""The closed forms of `decoq.states` against the numpy forms they replaced.

Each reference, in `references.py`, is the earlier implementation written
out: the record checks on np.abs, np.trace and np.linalg.eigvalsh, the
influence sum as its literal 64-term index loop, and the Bloch scan on a
meshgrid.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decoq.states import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    QubitState,
    bloch_supremum_scan,
    evolve_real,
    evolve_real_influence_sum,
    pure_state,
    random_density_matrix,
)
from references import bloch_scan_reference, influence_sum_reference, reference_verdict

# eigvalsh and the closed-form eigenvalue each round at the scale of the
# trace, 1, so near POSITIVITY_TOL they may disagree by a few ulp of 1
POSITIVITY_SLACK = 4 * math.ulp(1.0)
# numpy's abs of a complex number may be 2 ulp from the libm hypot of
# Python's abs, which the records use, so near HERMITICITY_TOL they may too
SKEW_SLACK = 2 * math.ulp(HERMITICITY_TOL)


# ---------------------------------------------------------------- validator

MESSAGES = {
    "hermitian": "hermitian within tolerance",
    "trace": "trace",
    "positive": "negative eigenvalue",
}


def verdict(m: np.ndarray):
    """The check that rejects m now, or None if QubitState accepts it."""
    try:
        QubitState(m)
    except ValueError as exc:
        return next(check for check, text in MESSAGES.items() if text in str(exc))
    return None


def rotation(angle: float, phase: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    e = cmath.exp(1j * phase)
    return np.array([[c, -s * e.conjugate()], [s * e, c]])


def density(weight: float, angle: float, phase: float) -> np.ndarray:
    """rotation diag(1 - weight, weight) rotation^dagger."""
    v = rotation(angle, phase)
    return v @ np.diag([1.0 - weight, weight]) @ v.conj().T


unit = st.floats(0.0, 1.0)
angles = st.floats(0.0, 2.0 * math.pi)
ulps = st.integers(-8, 8)


@st.composite
def matrices(draw):
    """2x2 complex matrices, many of them a few ulp from one tolerance."""
    kind = draw(st.sampled_from(["any", "state", "hermitian", "trace", "positive"]))
    if kind == "any":
        entries = st.complex_numbers(allow_nan=False, allow_infinity=False)
        return np.array([[draw(entries), draw(entries)], [draw(entries), draw(entries)]])
    m = density(draw(unit), draw(angles), draw(angles))
    k = draw(ulps)
    if kind == "hermitian":
        # the skew on the diagonal or off it at the tolerance
        skew = HERMITICITY_TOL + k * math.ulp(HERMITICITY_TOL)
        i = draw(st.integers(0, 2))
        if i < 2:
            m[i, i] += 0.5j * skew
        else:
            m[0, 1] += skew * cmath.exp(1j * draw(angles))
    elif kind == "trace":
        m[1, 1] += TRACE_TOL + k * math.ulp(1.0)
    elif kind == "positive":
        m = density(POSITIVITY_TOL + k * math.ulp(0.5), draw(angles), draw(angles))
    return m


class TestValidator:
    @settings(max_examples=1500, deadline=None)
    @given(m=matrices())
    @example(m=np.array([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]]))  # |m - m^dagger| overflows
    @example(m=np.array([[1.2, 0.0], [0.0, -0.2]]))
    # numpy's skew is 1.0000000000000002e-12, and abs() gives 1e-12
    @example(m=np.array([[5.0401400294400245e-01, 4.970117553715663e-12 - 1.5682198361023225e-12j],
                         [4.6473909472258521e-12 + 2.514712063996229e-12j,
                          4.9598599705599755e-01]]))
    def test_accepts_and_rejects_as_numpy_did(self, m):
        want, got = reference_verdict(m), verdict(m)
        if "hermitian" in {got, want} and got != want:
            # the skew is not computed as numpy computes it either
            skew = float(np.max(np.abs(m - m.conj().T)))
            assert abs(skew - HERMITICITY_TOL) <= SKEW_SLACK, m
        elif got != want:
            # only the eigenvalue is not computed as before, and only
            # within rounding of the tolerance may its verdict differ
            assert {got, want} == {"positive", None}
            lowest = float(np.min(np.linalg.eigvalsh(m)))
            assert abs(lowest - POSITIVITY_TOL) <= POSITIVITY_SLACK, m

    # two of the states a grid search over `density` found where eigvalsh
    # and the closed form fall on opposite sides of POSITIVITY_TOL: weight,
    # angle, phase, and whether the record now accepts it.  eigvalsh puts
    # the first 1.3e-18 below the tolerance and the second 1.9e-17 above
    DISAGREEMENTS = [
        (POSITIVITY_TOL, 0.1, 0.0, True),
        (POSITIVITY_TOL - math.ulp(0.5), 0.4, 0.3, False),
    ]

    @pytest.mark.parametrize("weight,angle,phase,accepted", DISAGREEMENTS)
    def test_listed_disagreements_lie_at_the_tolerance(self, weight, angle, phase, accepted):
        m = density(weight, angle, phase)
        lowest = float(np.min(np.linalg.eigvalsh(m)))
        assert (lowest >= POSITIVITY_TOL) != accepted
        assert abs(lowest - POSITIVITY_TOL) <= POSITIVITY_SLACK
        assert (verdict(m) is None) == accepted

    def test_states_are_built_without_lapack(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        state = random_density_matrix(rng)
        evolve_real(state, 0.4, 0.3, 51.8)
        evolve_real_influence_sum(state, 0.4, 0.3, 51.8)
        QubitState(np.diag([0.3, 0.7]))
        pure_state(1.0, 0.5)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QubitState(np.diag([1.2, -0.2]))


# ---------------------------------------------------------------- influence sum

class TestInfluenceSum:
    @settings(max_examples=300, deadline=None)
    @given(
        weight=unit, angle=angles, phase=angles,
        b2=st.floats(0.0, 5.0),
        shift=st.floats(-5.0, 5.0),
        t=st.floats(0.0, 1000.0),
        e_j=st.floats(0.0, 200.0),
    )
    def test_matches_the_index_sum(self, weight, angle, phase, b2, shift, t, e_j):
        # the reference keeps the shift term -i C (chi^2 - chi'^2), which the map
        # leaves out because it is 0: so C drawn here must not move the result
        state = QubitState(density(weight, angle, phase))
        got = evolve_real_influence_sum(state, b2, t, e_j).rho
        want = influence_sum_reference(state, b2, shift, t, e_j)
        assert np.max(np.abs(got - want)) <= 1e-15


# ---------------------------------------------------------------- Bloch scan

class TestBlochScan:
    @settings(max_examples=100, deadline=None)
    @given(b2=st.floats(0.0, 50.0), t=st.floats(0.0, 100.0), e_j=st.floats(0.0, 200.0))
    @example(b2=0.0, t=0.0, e_j=0.0)  # every grid point ties at 0
    def test_bit_identical_to_the_meshgrid(self, b2, t, e_j):
        assert bloch_supremum_scan(b2, t, e_j) == bloch_scan_reference(b2, t, e_j)

    # the scan takes lift = sin^2(phi + t E_J/2) once on the phi axis, then
    # theta at lift's first maximum: lift peaks twice at phase 0, and
    # cos^2 + sin^2 rounds above 1 on six theta rows where lift is 1
    @settings(max_examples=300, deadline=None)
    @given(
        b2=st.one_of(st.just(math.inf), st.floats(0.0, 1e3)),
        t=st.floats(-1e6, 1e6),
        e_j=st.floats(0.0, 1e6),
    )
    @example(b2=1.0, t=0.0, e_j=51.8)
    @example(b2=math.inf, t=1e6, e_j=1e6)
    @example(b2=1e-310, t=1.0, e_j=1.0)  # a subnormal norm
    def test_axis_scans_give_the_grids_first_maximum(self, b2, t, e_j):
        assert bloch_supremum_scan(b2, t, e_j) == bloch_scan_reference(b2, t, e_j)
