"""The closed forms of `decoq.states` against the numpy forms they replaced.

Each reference below is the earlier implementation, written out: the
record checks on np.abs, np.trace and np.linalg.eigvalsh, the influence
sum as its literal 64-term index loop, and the Bloch scan on a meshgrid.
"""

import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decoq.bath import influence_exponent
from decoq.states import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    BLOCH_GRID,
    DeviationOperator,
    QubitState,
    bloch_supremum_scan,
    evolve_real,
    evolve_real_influence_sum,
    pure_state,
    random_density_matrix,
)

# eigvalsh and the closed-form eigenvalue each round at the scale of the
# trace, 1, so near POSITIVITY_TOL they may disagree by a few ulp of 1
POSITIVITY_SLACK = 4 * math.ulp(1.0)


# ---------------------------------------------------------------- validator

def reference_verdict(m: np.ndarray, density: bool):
    """The check that rejects m as the numpy records did, or None if they accepted it."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            return "hermitian"
        if density:
            if abs(np.trace(m) - 1.0) > TRACE_TOL:
                return "trace"
            if np.min(np.linalg.eigvalsh(m)) < POSITIVITY_TOL:
                return "positive"
        elif abs(np.trace(m)) > TRACE_TOL:
            return "trace"
    return None


MESSAGES = {
    "hermitian": "hermitian within tolerance",
    "trace": "trace",
    "positive": "negative eigenvalue",
}


def verdict(m: np.ndarray, density: bool):
    """The check that rejects m now, or None if the record accepts it."""
    try:
        (QubitState if density else DeviationOperator)(m)
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
    kind = draw(st.sampled_from(["any", "state", "hermitian", "trace", "positive", "deviation"]))
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
    elif kind == "deviation":
        m = m - density(draw(unit), draw(angles), draw(angles))
        m[0, 0] += draw(st.sampled_from([0.0, TRACE_TOL, -TRACE_TOL])) + k * math.ulp(1.0)
    return m


class TestValidator:
    @settings(max_examples=1500, deadline=None)
    @given(m=matrices())
    @example(m=np.array([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]]))  # |m - m^dagger| overflows
    @example(m=np.array([[1.2, 0.0], [0.0, -0.2]]))
    def test_accepts_and_rejects_as_numpy_did(self, m):
        for is_density in (True, False):
            want, got = reference_verdict(m, is_density), verdict(m, is_density)
            if got != want:
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
        assert (verdict(m, True) is None) == accepted

    def test_states_are_built_without_lapack(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        state = random_density_matrix(rng)
        evolve_real(state, 0.4, 0.3, 51.8)
        evolve_real_influence_sum(state, 0.4, 0.2, 0.3, 51.8)
        QubitState(np.diag([0.3, 0.7]))
        pure_state(1.0, 0.5)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QubitState(np.diag([1.2, -0.2]))


# ---------------------------------------------------------------- influence sum

CHI = (1, -1)


def influence_sum_reference(state, dephasing, shift, t, e_j) -> np.ndarray:
    """The influence-functional sum enumerated over its 64 index tuples."""
    rho = state.rho
    # overlap[j, xi] = <phi_j | xi> between eigenstates and sigma_z eigenstates
    overlap = np.array(((1.0, 1.0), (-1.0, 1.0))).T / math.sqrt(2.0)
    lam = (0.5 * e_j, -0.5 * e_j)
    F = [
        [np.exp(influence_exponent(CHI[xi], CHI[sg], dephasing, shift)) for sg in range(2)]
        for xi in range(2)
    ]
    out = np.zeros((2, 2), dtype=complex)
    # the deltas of the free factors set alpha = m, beta = p, mu = q, nu = n
    for m, n, xi, p, q, sg in product(range(2), repeat=6):
        ph = cmath.exp(0.5j * t * (lam[q] + lam[n] - lam[m] - lam[p]))
        out[m, n] += (
            ph
            * overlap[m, xi]
            * overlap[p, xi]
            * rho[p, q]
            * overlap[q, sg]
            * overlap[n, sg]
            * F[xi][sg]
        )
    return 0.5 * (out + out.conj().T)


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
        state = QubitState(density(weight, angle, phase))
        got = evolve_real_influence_sum(state, b2, shift, t, e_j).rho
        want = influence_sum_reference(state, b2, shift, t, e_j)
        assert np.max(np.abs(got - want)) <= 1e-15


# ---------------------------------------------------------------- Bloch scan

def bloch_scan_reference(dephasing, t, e_j):
    """The grid search on a meshgrid of theta and phi."""
    theta = np.linspace(0.0, math.pi, BLOCH_GRID)
    phi = np.linspace(0.0, 2.0 * math.pi, BLOCH_GRID, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    decay = -np.expm1(-dephasing)
    val = 0.5 * decay * np.sqrt(
        np.cos(th) ** 2 + np.sin(th) ** 2 * np.sin(ph + 0.5 * t * e_j) ** 2
    )
    i, j = divmod(int(np.argmax(val)), BLOCH_GRID)
    return float(val[i, j]), float(theta[i]), float(phi[j])


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
