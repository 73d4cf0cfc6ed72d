import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoq.discrete import dephasing_exponent_modes
from decoq.evolution import COMPUTATIONAL
from decoq.states import QubitState, evolve_ideal, pure_state, random_density_matrix
from decoq import basis_change, gate_unitary
from decoq.oracle import (
    BathTruncationWarning,
    CompositeSystem,
    DimensionCapError,
    TruncatedBathMode,
    discrete_bath_from_modes,
    error_scaling,
    evolve_exact,
    evolve_split,
    split_vs_closed_form,
)
from decoq import oracle
from decoq.units import temperature_to_beta

BETA_30MK = temperature_to_beta(30.0)


def one_mode_system(e_j=51.8, omega=8.0, g=0.5, n_fock=14):
    return CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(omega, g, n_fock),))


def build_hamiltonians(system):
    """(H_sys, H_ib) on the full composite space, the dense reference of the maps.

    H_sys = -E_J/2 sigma_x x 1, and H_ib = sigma_z x C + 1 x E with the
    Kronecker sums C and E of the modes' couplings and energies; its
    sigma_z = -1 block comes from -C and not from the parity the maps rest on.
    """
    energies, couplings = zip(*map(oracle._mode_operators, system.modes))
    sigma_x, sigma_z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    h_sys = np.kron(-0.5 * system.e_j * sigma_x, np.eye(system.bath_dim))
    h_ib = (np.kron(sigma_z, oracle._kron_sum(couplings))
            + np.kron(np.eye(2), oracle._kron_sum(energies)))
    return h_sys, h_ib


def thermal_bath_state(modes, beta):
    """Truncated thermal state of the bath: the Kronecker product of the mode weights, diagonal."""
    return np.diag(functools.reduce(np.kron, oracle._mode_weights(modes, beta)))


def _expm_herm(h, t):
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def dense_reference(system, state, beta, t, split):
    """Reduced state by full-space propagation and partial trace.

    split=False propagates with H_sys + H_ib, split=True with
    A(t/2) exp(-i H_ib t) A(t/2); the result is in the input basis.
    """
    h_sys, h_ib = build_hamiltonians(system)
    if split:
        a_half = np.kron(gate_unitary(system.e_j, 0.5 * t), np.eye(system.bath_dim))
        u = a_half @ _expm_herm(h_ib, t) @ a_half
    else:
        u = _expm_herm(h_sys + h_ib, t)
    comp = state if state.basis == COMPUTATIONAL else basis_change(state)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BathTruncationWarning)
        rho0 = np.kron(comp.rho, thermal_bath_state(system.modes, beta))
    nb = system.bath_dim
    full = (u @ rho0 @ u.conj().T).reshape(2, nb, 2, nb)
    out = QubitState(np.einsum("aibi->ab", full), COMPUTATIONAL)
    return (out if state.basis == COMPUTATIONAL else basis_change(out)).rho


@st.composite
def composite_systems(draw, max_bath_dim=256, couplings=st.floats(0.0, 1.0)):
    """1-3 modes whose Fock levels keep the composite dimension <= 2 * max_bath_dim."""
    n_modes = draw(st.integers(1, 3))
    budget, modes = max_bath_dim, []
    for k in range(n_modes):
        # leave at least two levels for every mode still to come
        cap = min(16, budget // 2 ** (n_modes - k - 1))
        n_fock = draw(st.integers(2, cap))
        budget //= n_fock
        omega = draw(st.floats(2.0, 40.0))
        g = draw(couplings)
        modes.append(TruncatedBathMode(omega, g, n_fock))
    return tuple(modes)


# d = 8192, past MAX_DIM: no dense array of it may be formed
CAPPED_MODES = tuple(
    TruncatedBathMode(w, g, 16) for w, g in ((15.0, 0.3), (20.0, 0.2), (24.0, 0.25))
)
CAP_MESSAGE = (
    r"^composite dimension 8192 exceeds the cap 4096; reduce n_fock or the number of modes$"
)


class TestConstruction:
    @pytest.mark.parametrize(
        "entry",
        [
            oracle._dense_eigensystem,
            lambda system: evolve_exact(system, pure_state(0.5), BETA_30MK, 0.1),
            lambda system: error_scaling(system, pure_state(0.5), BETA_30MK,
                                         np.geomspace(1e-4, 1e-3, 4)),
        ],
        ids=["_dense_eigensystem", "evolve_exact-dense", "error_scaling"],
    )
    def test_dimension_cap(self, monkeypatch, entry):
        # the cap guards the dense (d/2)-square arrays, not the system
        def refuse(*args, **kwargs):
            raise AssertionError("diagonalised past the cap")

        system = CompositeSystem(e_j=51.8, modes=CAPPED_MODES)
        assert system.dim == 8192 > oracle.MAX_DIM == 4096
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        with pytest.raises(DimensionCapError, match=CAP_MESSAGE):
            entry(system)

    def test_dimension_at_the_cap_is_allowed(self):
        # the cap is inclusive: d = MAX_DIM passes and the next even d does not
        oracle._check_dim((TruncatedBathMode(8.0, 0.1, oracle.MAX_DIM // 2),))
        with pytest.raises(DimensionCapError, match=r"^composite dimension 4098 exceeds"):
            oracle._check_dim((TruncatedBathMode(8.0, 0.1, oracle.MAX_DIM // 2 + 1),))

    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_maps_without_dense_arrays_run_past_the_cap(self, t):
        bath = discrete_bath_from_modes(CAPPED_MODES)
        b2 = dephasing_exponent_modes(t, bath, BETA_30MK)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        pure = CompositeSystem(e_j=0.0, modes=CAPPED_MODES)
        for evolve in (evolve_exact, evolve_split):
            assert evolve(pure, rho0, BETA_30MK, t).rho[0, 1] == pytest.approx(
                0.5 * math.exp(-b2), abs=1e-12)
        driven = CompositeSystem(e_j=51.8, modes=CAPPED_MODES)
        cmp = split_vs_closed_form(driven, pure_state(0.7, 0.2), BETA_30MK, t)
        assert cmp.b_squared == b2 and cmp.max_abs_diff < 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            TruncatedBathMode(-1.0, 0.1, 8)
        with pytest.raises(ValueError):
            TruncatedBathMode(8.0, 0.1, 1)

    def test_needs_modes(self):
        with pytest.raises(ValueError):
            CompositeSystem(e_j=51.8, modes=())

    def test_rejects_non_finite_coupling(self):
        with pytest.raises(ValueError, match="mode coupling must be finite, got nan"):
            TruncatedBathMode(8.0, math.nan, 4)

    def test_rejects_a_non_mode_entry(self):
        with pytest.raises(TypeError, match="modes must be TruncatedBathMode instances"):
            CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(8.0, 0.1, 4), (8.0, 0.1, 4)))

    @pytest.mark.parametrize("e_j", [-1.0, math.nan, math.inf])
    def test_e_j_has_the_message_of_the_maps(self, e_j):
        # one rule for E_J: the system, the gate and the closed-form map agree
        with pytest.raises(ValueError) as system:
            CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(8.0, 0.1, 4),))
        with pytest.raises(ValueError) as gate:
            gate_unitary(e_j, 0.3)
        with pytest.raises(ValueError) as closed:
            evolve_ideal(pure_state(0.3), 0.3, e_j)
        assert str(system.value) == str(gate.value) == str(closed.value) == (
            f"E_J must be finite and >= 0, got {e_j}")

    @pytest.mark.parametrize("n_fock", [8.5, 8.0])
    def test_float_fock_levels_rejected(self, n_fock):
        with pytest.raises(TypeError):
            TruncatedBathMode(8.0, 0.3, n_fock)

    def test_numpy_integer_fock_levels_stored_as_int(self):
        mode = TruncatedBathMode(8.0, 0.3, np.int64(8))
        assert type(mode.n_fock) is int
        dim = CompositeSystem(e_j=51.8, modes=(mode,)).dim
        assert type(dim) is int and dim == 16

    def test_list_of_modes_behaves_as_tuple(self):
        modes = [TruncatedBathMode(15.0, 0.3, 8), TruncatedBathMode(24.0, 0.2, 6)]
        state = pure_state(0.7, 0.2)
        for e_j in (0.0, 51.8):
            listed = CompositeSystem(e_j=e_j, modes=modes)
            tupled = CompositeSystem(e_j=e_j, modes=tuple(modes))
            assert hash(listed) == hash(tupled) and listed == tupled
            for evolve in (evolve_exact, evolve_split):
                np.testing.assert_array_equal(
                    evolve(listed, state, BETA_30MK, 0.4).rho,
                    evolve(tupled, state, BETA_30MK, 0.4).rho,
                )


class TestThermalBathState:
    def test_normalized_and_diagonal(self):
        modes = (TruncatedBathMode(8.0, 0.5, 12), TruncatedBathMode(16.0, 0.2, 6))
        rho = thermal_bath_state(modes, BETA_30MK)
        assert rho.shape == (72, 72)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_zero_temperature_is_ground_state(self):
        rho = thermal_bath_state((TruncatedBathMode(8.0, 0.5, 5),), math.inf)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0.0)

    def test_occupation_ratio_is_boltzmann(self):
        rho = thermal_bath_state((TruncatedBathMode(8.0, 0.5, 12),), BETA_30MK)
        p = np.diag(rho)
        assert p[1] / p[0] == pytest.approx(math.exp(-BETA_30MK * 8.0), rel=1e-12)

    def test_warns_when_truncation_is_too_tight(self):
        with pytest.warns(BathTruncationWarning):
            thermal_bath_state((TruncatedBathMode(1.0, 0.5, 3),), BETA_30MK)

    @pytest.mark.parametrize("e_j", [0.0, 51.8])
    def test_huge_finite_beta_is_the_ground_state(self, e_j):
        # beta omega overflows to inf at 1e308, and -inf * 0 used to give nan weights
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(8.0, 0.1, 6),))
        for evolve in (evolve_exact, evolve_split):
            at_inf = evolve(system, pure_state(0.5), math.inf, 0.4).rho
            np.testing.assert_array_equal(evolve(system, pure_state(0.5), 1e308, 0.4).rho, at_inf)
        np.testing.assert_array_equal(
            thermal_bath_state(system.modes, 1e308), thermal_bath_state(system.modes, math.inf)
        )

    @pytest.mark.parametrize("entry", [evolve_exact, evolve_split, split_vs_closed_form])
    @pytest.mark.parametrize("e_j", [0.0, 51.8])
    def test_upper_levels_past_the_largest_double_weigh_nothing(self, e_j, entry):
        # beta omega = 5e307 is finite but beta omega k is not for k >= 4;
        # numpy used to warn "overflow encountered in multiply" (an error here)
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(0.5, 0.3, 8),))
        state = pure_state(1.0, 0.2)
        at_huge, at_inf = (entry(system, state, beta, 0.3) for beta in (1e308, math.inf))
        # a QubitState and a SplitComparison are both records of arrays and scalars
        for got, expected in zip(at_huge, at_inf):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("e_j", [0.0, 51.8])
    def test_evolutions_warn_when_truncation_is_too_tight(self, e_j):
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(1.0, 0.5, 3),))
        state = pure_state(0.5)
        with pytest.warns(BathTruncationWarning):
            evolve_exact(system, state, BETA_30MK, 0.1)
        with pytest.warns(BathTruncationWarning):
            evolve_split(system, state, BETA_30MK, 0.1)


class TestDecoupledLimit:
    def test_zero_coupling_reduces_to_ideal(self, rng):
        system = one_mode_system(g=0.0, n_fock=12)
        for _ in range(5):
            st = random_density_matrix(rng)
            exact = evolve_exact(system, st, BETA_30MK, 0.7)
            ideal = evolve_ideal(st, 0.7, system.e_j)
            np.testing.assert_allclose(exact.rho, ideal.rho, atol=1e-12)


class TestPureDephasing:
    def test_coherence_decays_by_mode_exponent(self):
        # with no qubit Hamiltonian the bath only scrubs charge coherence
        system = one_mode_system(e_j=0.0, n_fock=16)
        bath = discrete_bath_from_modes(system.modes)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        for t in (0.01, 0.05, 0.1, 0.5):
            out = evolve_exact(system, rho0, BETA_30MK, t)
            b2 = dephasing_exponent_modes(t, bath, BETA_30MK)
            assert out.rho[0, 1] == pytest.approx(0.5 * math.exp(-b2), abs=1e-10)
            assert out.rho[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_truncation_error_falls_with_fock_levels(self):
        # soft mode at strong coupling: the truncated prediction homes in
        # on the closed form as levels are added
        beta = temperature_to_beta(300.0)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        t = 0.8
        diffs = []
        for n_fock in (4, 8, 16):
            system = CompositeSystem(e_j=0.0, modes=(TruncatedBathMode(2.0, 0.6, n_fock),))
            bath = discrete_bath_from_modes(system.modes)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BathTruncationWarning)
                out = evolve_exact(system, rho0, beta, t)
            b2 = dephasing_exponent_modes(t, bath, beta)
            diffs.append(abs(out.rho[0, 1] - 0.5 * math.exp(-b2)))
        assert diffs[0] > diffs[1] > diffs[2]


class TestSplitVsClosedForm:
    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0])
    def test_one_mode_machine_precision(self, rng, t):
        system = one_mode_system()
        st = random_density_matrix(rng)
        cmp = split_vs_closed_form(system, st, BETA_30MK, t)
        assert cmp.max_abs_diff < 1e-12
        assert cmp.b_squared > 0.0

    def test_two_modes_many_states(self, rng):
        system = CompositeSystem(
            e_j=51.8,
            modes=(TruncatedBathMode(16.0, 0.4, 6), TruncatedBathMode(23.0, 0.3, 6)),
        )
        worst = 0.0
        for _ in range(20):
            st = random_density_matrix(rng)
            t = float(rng.uniform(0.02, 1.0))
            worst = max(worst, split_vs_closed_form(system, st, BETA_30MK, t).max_abs_diff)
        assert worst < 1e-10

    def test_duplicate_frequencies_merge(self):
        modes = (TruncatedBathMode(8.0, 0.3, 4), TruncatedBathMode(8.0, 0.4, 4))
        bath = discrete_bath_from_modes(modes)
        assert bath.omegas.size == 1
        assert float(bath.g_sq[0]) == pytest.approx(0.25, rel=1e-12)

    def test_modes_may_be_any_iterable(self):
        # the merge reads the modes once, so a generator gives the tuple's bath
        modes = (TruncatedBathMode(16.0, 0.2, 6), TruncatedBathMode(8.0, 0.5, 12),
                 TruncatedBathMode(16.0, 0.1, 4))
        from_iter = discrete_bath_from_modes(iter(modes))
        from_tuple = discrete_bath_from_modes(modes)
        np.testing.assert_array_equal(from_iter.omegas, from_tuple.omegas)
        np.testing.assert_array_equal(from_iter.g_sq, from_tuple.g_sq)


class TestFactorisedAgainstDense:
    """The per-mode factorisation against full-space linear algebra."""

    @pytest.mark.parametrize("n_fock", [8, 16])
    def test_benchmark_dimensions(self, rng, n_fock):
        modes = (TruncatedBathMode(15.0, 0.3, n_fock), TruncatedBathMode(24.0, 0.2, n_fock))
        for basis in (COMPUTATIONAL, "eigenbasis"):
            state = random_density_matrix(rng, basis)
            for t in (0.01, 0.3, 1.7):
                for e_j in (0.0, 51.8):
                    system = CompositeSystem(e_j=e_j, modes=modes)
                    split = evolve_split(system, state, BETA_30MK, t)
                    assert split.basis == basis
                    np.testing.assert_allclose(
                        split.rho, dense_reference(system, state, BETA_30MK, t, True),
                        rtol=0, atol=1e-12,
                    )
                system = CompositeSystem(e_j=0.0, modes=modes)
                np.testing.assert_allclose(
                    evolve_exact(system, state, BETA_30MK, t).rho,
                    dense_reference(system, state, BETA_30MK, t, False),
                    rtol=0, atol=1e-12,
                )

    @settings(max_examples=40, deadline=None)
    @given(
        modes=composite_systems(),
        beta=st.one_of(st.just(math.inf), st.floats(1.0, 300.0).map(temperature_to_beta)),
        t=st.floats(1e-3, 3.0),
        e_j=st.sampled_from([0.0, 51.8]),
        basis=st.sampled_from([COMPUTATIONAL, "eigenbasis"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzz(self, modes, beta, t, e_j, basis, seed):
        state = random_density_matrix(np.random.default_rng(seed), basis)
        system = CompositeSystem(e_j=e_j, modes=modes)
        zero = CompositeSystem(e_j=0.0, modes=modes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BathTruncationWarning)
            split = evolve_split(system, state, beta, t).rho
            exact = evolve_exact(zero, state, beta, t).rho
        assert np.max(np.abs(split - dense_reference(system, state, beta, t, True))) <= 1e-12
        assert np.max(np.abs(exact - dense_reference(zero, state, beta, t, False))) <= 1e-12

    def test_large_system_never_builds_the_composite(self, monkeypatch):
        # d = 2048: no entry point forms a d x d array such as H, at E_J = 0
        # or at E_J != 0; the parity blocks are (d/2)-square
        kron = np.kron

        def refusing(a, b):
            out = kron(a, b)
            if out.ndim == 2 and max(out.shape) >= 2048:
                raise AssertionError("composite-dimension array formed")
            return out

        oracle._dense_eigensystem.cache_clear()
        monkeypatch.setattr(np, "kron", refusing)
        modes = (TruncatedBathMode(15.0, 0.3, 32), TruncatedBathMode(24.0, 0.2, 32))
        state = pure_state(0.7, 0.2)
        for e_j in (0.0, 51.8):
            system = CompositeSystem(e_j=e_j, modes=modes)
            assert system.dim == 2048
            for evolve in (evolve_exact, evolve_split):
                assert isinstance(evolve(system, state, BETA_30MK, 0.4), QubitState)
            assert split_vs_closed_form(system, state, BETA_30MK, 0.4).max_abs_diff < 1e-12
        # the largest |E| is about 1230, so these steps stay below the 1.5 warning
        driven = CompositeSystem(e_j=51.8, modes=modes)
        result = error_scaling(driven, state, BETA_30MK, np.geomspace(1e-4, 1e-3, 4))
        assert math.isfinite(result.slope)

    @pytest.mark.parametrize("n_fock", [(3,), (2, 5), (4, 3, 2)])
    def test_parity_commutes_with_the_composite_hamiltonian(self, n_fock):
        # the blocks rest on Pi H Pi = H, Pi = sigma_x x prod_k diag((-1)^n_k);
        # Pi only flips signs and swaps blocks, so equality is exact
        modes = tuple(
            TruncatedBathMode(9.0 + 4 * k, 0.3 + 0.1 * k, n) for k, n in enumerate(n_fock)
        )
        system = CompositeSystem(e_j=51.8, modes=modes)
        h = sum(build_hamiltonians(system))
        parity = np.diag(functools.reduce(np.kron, [(-1.0) ** np.arange(n) for n in n_fock]))
        big_pi = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), parity)
        np.testing.assert_array_equal(big_pi @ h @ big_pi, h)

    @settings(max_examples=40, deadline=None)
    @given(
        modes=composite_systems(couplings=st.just(0.0) | st.floats(0.0, 1.0)),
        beta=st.floats(1.0, 300.0).map(temperature_to_beta),
        t=st.floats(1e-3, 3.0),
        e_j=st.floats(0.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parity_blocks_fuzz(self, modes, beta, t, e_j, seed):
        system = CompositeSystem(e_j=e_j, modes=modes)
        _, blocks = oracle._dense_eigensystem(system)
        assert [evecs.shape for _, evecs in blocks] == [(system.bath_dim,) * 2] * 2
        union = np.sort(np.concatenate([evals for evals, _ in blocks]))
        composite = np.linalg.eigvalsh(sum(build_hamiltonians(system)))
        assert np.max(np.abs(union - composite)) <= 1e-12 * np.max(np.abs(composite))
        rng = np.random.default_rng(seed)
        for basis in (COMPUTATIONAL, "eigenbasis"):
            state = random_density_matrix(rng, basis)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BathTruncationWarning)
                exact = evolve_exact(system, state, beta, t)
            assert exact.basis == basis
            dense = dense_reference(system, state, beta, t, False)
            assert np.max(np.abs(exact.rho - dense)) <= 1e-12


class TestWorkDone:
    """The oracle computes only what the reduced 2x2 state needs."""

    def test_split_diagonalises_once_per_mode(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(h):
            calls.append(h.shape)
            return eigh(h)

        oracle._eigensystem.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting)
        modes = (TruncatedBathMode(15.0, 0.3, 9), TruncatedBathMode(24.0, 0.2, 7))
        system = CompositeSystem(e_j=51.8, modes=modes)
        evolve_split(system, pure_state(0.7, 0.2), BETA_30MK, 0.4)
        assert calls == [(9, 9), (7, 7)]

    def test_error_scaling_diagonalises_the_two_parity_blocks(self, monkeypatch):
        # per system: H_+ and H_- of size d/2 once each, then each mode's h_{+,k}
        calls = []
        eigh = np.linalg.eigh

        def counting(h):
            calls.append(h.shape)
            return eigh(h)

        oracle._eigensystem.cache_clear()
        oracle._dense_eigensystem.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting)
        uneven = CompositeSystem(
            e_j=51.8, modes=(TruncatedBathMode(16.0, 0.8, 7), TruncatedBathMode(23.0, 0.6, 5))
        )
        for system in (TestErrorScaling.SYSTEM, uneven):
            calls.clear()
            error_scaling(
                system, pure_state(math.pi / 3.0, 0.3), BETA_30MK, np.geomspace(4e-4, 3e-3, 6)
            )
            half = (system.bath_dim,) * 2
            assert calls == [half, half] + [(m.n_fock,) * 2 for m in system.modes]

    def test_dense_exact_forms_no_bath_density_matrix(self):
        # the bath state enters as the vector of its weights; no oracle
        # function forms the (d/2)-square density matrix of the tests' reference
        assert not hasattr(oracle, "thermal_bath_state")
        modes = (TruncatedBathMode(15.0, 0.3, 8), TruncatedBathMode(24.0, 0.2, 8))
        system = CompositeSystem(e_j=51.8, modes=modes)
        state = pure_state(0.7, 0.2)
        np.testing.assert_allclose(
            evolve_exact(system, state, BETA_30MK, 0.4).rho,
            dense_reference(system, state, BETA_30MK, 0.4, False),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize(
        "e_j,call",
        [
            (51.8, lambda system: thermal_bath_state(system.modes, BETA_30MK)),
            (51.8, lambda system: evolve_exact(system, pure_state(0.5), BETA_30MK, 0.1)),
            (0.0, lambda system: evolve_exact(system, pure_state(0.5), BETA_30MK, 0.1)),
            (51.8, lambda system: evolve_split(system, pure_state(0.5), BETA_30MK, 0.1)),
            (51.8, lambda system: split_vs_closed_form(system, pure_state(0.5), BETA_30MK, 0.1)),
            (51.8, lambda system: error_scaling(system, pure_state(0.5), BETA_30MK,
                                              np.geomspace(4e-4, 3e-3, 6))),
        ],
        ids=["thermal_bath_state", "evolve_exact-dense", "evolve_exact-e_j=0",
             "evolve_split", "split_vs_closed_form", "error_scaling"],
    )
    def test_dense_truncation_warning_points_at_the_caller(self, e_j, call):
        # each public entry point reaches the warning through its own depth
        # of private helpers; the warning must still name the caller's line
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(1.0, 0.5, 3),))
        with pytest.warns(BathTruncationWarning) as caught:
            call(system)
        assert {w.filename for w in caught if w.category is BathTruncationWarning} == {__file__}

    def test_error_scaling_warns_once(self):
        # the bath weights are computed once per call, not once per step size
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(1.0, 0.5, 3),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(4e-4, 3e-3, 6))
        truncation = [w for w in caught if w.category is BathTruncationWarning]
        assert len(truncation) == 1
        assert truncation[0].filename == __file__


class TestArguments:
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("e_j", [0.0, 51.8])
    def test_exact_rejects_non_finite_time(self, e_j, t):
        system = one_mode_system(e_j=e_j, n_fock=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="time must be finite"):
                evolve_exact(system, pure_state(0.5), BETA_30MK, t)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("entry", [evolve_exact, evolve_split, split_vs_closed_form])
    @pytest.mark.parametrize("e_j", [0.0, 1.0])
    def test_time_whose_phase_overflows_is_named(self, e_j, entry):
        # omega t of the propagator or the mode sums is past the largest
        # double while E_J t is not; the maps used to warn, then raise
        # "density matrix has a non-finite entry" or a nan dephasing exponent
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(67.6, 0.3, 8),))
        with pytest.raises(ValueError, match=r"^omega\*t is not finite in double precision "
                                             r"at omega=\S+, t=2\.66e\+307$"):
            entry(system, pure_state(1.0, 0.2), BETA_30MK, 2.66e307)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_rejects_bad_beta_with_the_bath_message(self, beta):
        with pytest.raises(ValueError, match=r"beta must be > 0 \(inf allowed\)"):
            evolve_exact(one_mode_system(), pure_state(0.5), beta, 0.4)


class TestBasisHandling:
    def test_exact_evolution_consistent_between_bases(self, rng):
        system = one_mode_system()
        st_eigen = random_density_matrix(rng)
        out_eigen = evolve_exact(system, st_eigen, BETA_30MK, 0.4)
        out_comp = evolve_exact(system, basis_change(st_eigen), BETA_30MK, 0.4)
        assert out_eigen.basis != out_comp.basis
        np.testing.assert_allclose(
            basis_change(out_comp).rho, out_eigen.rho, atol=1e-12
        )

    def test_split_returns_input_basis(self, rng):
        system = one_mode_system()
        st = random_density_matrix(rng, basis=COMPUTATIONAL)
        assert evolve_split(system, st, BETA_30MK, 0.2).basis == COMPUTATIONAL


class TestErrorScaling:
    SYSTEM = CompositeSystem(
        e_j=51.8,
        modes=(TruncatedBathMode(16.0, 0.8, 6), TruncatedBathMode(23.0, 0.6, 6)),
    )

    def test_third_order_slope(self):
        result = error_scaling(
            self.SYSTEM, pure_state(math.pi / 3.0, 0.3), BETA_30MK,
            np.geomspace(4e-4, 3e-3, 6),
        )
        assert 2.7 <= result.slope <= 3.3
        assert np.all(np.diff(result.errors) > 0.0)

    def test_commuting_case_rejected(self):
        system = one_mode_system(e_j=0.0, n_fock=6)
        with pytest.raises(RuntimeError, match="commute"):
            error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(1e-3, 1e-2, 6))

    def test_zero_coupling_rejected(self):
        system = one_mode_system(g=0.0, n_fock=4)
        with pytest.raises(RuntimeError, match="commute"):
            error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(1e-3, 1e-2, 6))

    def test_tiny_coupling_fits_and_hits_the_floor(self):
        # the commutator i E_J sigma_y x g (a + a^dag) is not zero, so the
        # fit runs, but every split-vs-exact error is round-off
        system = one_mode_system(g=1e-20, n_fock=12)
        with pytest.warns(UserWarning, match="floor"):
            with pytest.raises(RuntimeError, match="fewer than three"):
                error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(1e-3, 1e-2, 6))

    @pytest.mark.parametrize("e_j,g", [(0.0, 0.5), (51.8, 0.0)], ids=["e_j=0", "g=0"])
    def test_commuting_case_rejected_before_diagonalising(self, monkeypatch, e_j, g):
        def refuse(*args, **kwargs):
            raise AssertionError("diagonalised before the commutator check")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        system = one_mode_system(e_j=e_j, g=g, n_fock=7)
        with pytest.raises(RuntimeError, match="commute"):
            error_scaling(system, pure_state(0.5), BETA_30MK, np.geomspace(1e-3, 1e-2, 6))

    def test_floor_points_excluded(self):
        times = np.geomspace(1e-7, 1e-6, 4)
        with pytest.warns(UserWarning, match="floor"):
            with pytest.raises(RuntimeError, match="fewer than three"):
                error_scaling(self.SYSTEM, pure_state(math.pi / 3.0, 0.3), BETA_30MK, times)

    def test_grid_validation(self):
        st = pure_state(0.5)
        with pytest.raises(ValueError):
            error_scaling(self.SYSTEM, st, BETA_30MK, [1e-3, 2e-3])
        with pytest.raises(ValueError):
            error_scaling(self.SYSTEM, st, BETA_30MK, [1e-3, 2e-3, 2e-3, 3e-3])
        for times in ([1e-3, 2e-3, math.inf, 3e-3], [-1e-3, 1e-3, 2e-3, 3e-3]):
            with pytest.raises(ValueError, match="positive and finite"):
                error_scaling(self.SYSTEM, st, BETA_30MK, times)
        with pytest.raises(ValueError, match="strictly increasing"):
            error_scaling(self.SYSTEM, st, BETA_30MK, [4e-3, 3e-3, 2e-3, 1e-3])

    def test_large_step_warns(self):
        # the top step times the largest |eigenvalue| of H, about 221, is 2.2
        with pytest.warns(UserWarning, match="not small against"):
            result = error_scaling(
                self.SYSTEM, pure_state(math.pi / 3.0, 0.3), BETA_30MK,
                np.geomspace(1e-3, 1e-2, 6),
            )
        assert result.times.size == 6 and math.isfinite(result.slope)
