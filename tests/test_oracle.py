import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoq.discrete import dephasing_exponent_modes
from decoq.evolution import COMPUTATIONAL
from decoq.states import QubitState, evolve_ideal, evolve_real, pure_state, random_density_matrix
from decoq import basis_change, gate_unitary
from decoq.oracle import (
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
from references import build_hamiltonians, dense_reference, held_levels, thermal_bath_state

BETA_30MK = temperature_to_beta(30.0)


def one_mode_system(e_j=51.8, omega=8.0, g=0.5, n_fock=14):
    return CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(omega, g, n_fock),))


BETAS = st.one_of(st.just(math.inf), st.floats(1.0, 300.0).map(temperature_to_beta))


@st.composite
def held_systems(draw, betas=BETAS, couplings=st.floats(0.0, 1.0), max_bath_dim=256):
    """(beta, 1-3 modes) whose held levels keep the composite dimension <= 2 * max_bath_dim.

    A warm bath may leave room for fewer modes than drawn.
    """
    beta, n_modes = draw(betas), draw(st.integers(1, 3))
    budget, modes = max_bath_dim, []
    for k in range(n_modes):
        # leave at least two levels for every mode still to come
        cap = budget // 2 ** (n_modes - k - 1)
        # an omega at or above low is held in at most cap levels
        low = max(2.0, math.log(1.0 / oracle.TRUNCATION_WEIGHT_TOL) / (beta * (cap - 1)) * 1.01)
        if low > 40.0:
            break
        mode = TruncatedBathMode(draw(st.floats(low, 40.0)), draw(couplings),
                                 draw(st.integers(2, min(16, cap))))
        budget //= held_levels(mode, beta)
        modes.append(mode)
    return beta, tuple(modes)


# d = 8192, past MAX_DIM: no dense array of it may be formed
CAPPED_MODES = tuple(
    TruncatedBathMode(w, g, 16) for w, g in ((15.0, 0.3), (20.0, 0.2), (24.0, 0.25))
)
CAP_MESSAGE = (
    rf"^composite dimension 8192 of the held levels \(16, 16, 16\) at beta={BETA_30MK} "
    r"exceeds the cap 4096$"
)


class TestConstruction:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda system: evolve_exact(system, pure_state(0.5), BETA_30MK, 0.1),
            lambda system: error_scaling(system, pure_state(0.5), BETA_30MK,
                                         np.geomspace(1e-4, 1e-3, 4)),
        ],
        ids=["evolve_exact-dense", "error_scaling"],
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
        # both caps are inclusive: a mode of MAX_DIM // 2 levels, d = MAX_DIM, is
        # held, and one more level is refused; _held diagonalises nothing
        def system(*levels):
            modes = [TruncatedBathMode(8.0 + k, 0.1, n) for k, n in enumerate(levels)]
            return CompositeSystem(e_j=51.8, modes=modes)

        held, _ = oracle._held(system(oracle.MAX_DIM // 2), math.inf, dense=True)
        assert held == system(oracle.MAX_DIM // 2) and held.dim == oracle.MAX_DIM
        with pytest.raises(DimensionCapError, match=r"^mode at omega=8\.0 needs 2049 Fock levels "
                                                    r"at beta=inf, past the cap 2048$"):
            oracle._held(system(oracle.MAX_DIM // 2 + 1), math.inf)
        with pytest.raises(DimensionCapError, match=r"^composite dimension 4100 of the held "
                                                    r"levels \(1025, 2\) at beta=inf exceeds"):
            oracle._held(system(1025, 2), math.inf, dense=True)

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


class TestHeldBath:
    """_held: each mode at the levels its thermal state needs, and their weights."""

    def test_weights_are_the_thermal_state_of_the_held_levels(self):
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(8.0, 0.5, 12),
                                                   TruncatedBathMode(16.0, 0.2, 6)))
        held, weights = oracle._held(system, BETA_30MK)
        p = functools.reduce(np.kron, weights)
        assert p.shape == (72,) and p.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(np.diag(p), thermal_bath_state(held.modes, BETA_30MK),
                                   rtol=1e-14, atol=0.0)

    def test_zero_temperature_is_ground_state(self):
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(8.0, 0.5, 5),))
        held, (p,) = oracle._held(system, math.inf)
        assert held == system
        np.testing.assert_array_equal(p, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_occupation_ratio_is_boltzmann(self):
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(8.0, 0.5, 12),))
        _, (p,) = oracle._held(system, BETA_30MK)
        assert p[1] / p[0] == pytest.approx(math.exp(-BETA_30MK * 8.0), rel=1e-12)

    @pytest.mark.parametrize(
        "temp_mk, modes, levels",
        [
            # the benchmark's 8-level systems, once left truncated with a warning
            (218.5, ((12.0, 0.3), (20.0, 0.2)), (48, 30)),
            (115.9, ((12.0, 0.3), (16.0, 0.2)), (26, 20)),
            # verify's split-order system keeps its floor
            (30.0, ((16.0, 0.8), (23.0, 0.6)), (6, 6)),
            (300.0, ((2.0, 0.6),), (388,)),
        ],
        ids=["218.5mK", "115.9mK", "verify-30mK", "300mK-soft"],
    )
    def test_levels_hold_the_thermal_weight(self, temp_mk, modes, levels):
        beta = temperature_to_beta(temp_mk)
        floor = 6 if temp_mk == 30.0 else 8
        system = CompositeSystem(e_j=0.0, modes=[TruncatedBathMode(w, g, floor) for w, g in modes])
        held, weights = oracle._held(system, beta)
        assert tuple(m.n_fock for m in held.modes) == levels
        assert [m.n_fock for m in held.modes] == [held_levels(m, beta) for m in system.modes]
        for m, p in zip(held.modes, weights):
            # the top level is under the tolerance; one level fewer is not, unless at the floor
            assert p[-1] / p[0] <= oracle.TRUNCATION_WEIGHT_TOL
            assert m.n_fock == floor or p[-2] / p[0] > oracle.TRUNCATION_WEIGHT_TOL

    @pytest.mark.parametrize("e_j", [0.0, 51.8])
    def test_huge_finite_beta_is_the_ground_state(self, e_j):
        # beta omega overflows to inf at 1e308, and -inf * 0 used to give nan weights
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(8.0, 0.1, 6),))
        for evolve in (evolve_exact, evolve_split):
            at_inf = evolve(system, pure_state(0.5), math.inf, 0.4).rho
            np.testing.assert_array_equal(evolve(system, pure_state(0.5), 1e308, 0.4).rho, at_inf)
        for beta in (1e308, math.inf):
            held, (p,) = oracle._held(system, beta)
            assert held == system
            np.testing.assert_array_equal(p, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

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
    def test_tight_floor_is_held_without_a_warning(self, e_j):
        # two levels of a 1 ueV mode at 30 mK leave 46% of its thermal weight
        # out; the oracle holds it at 79 levels and warns nothing
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(1.0, 0.05, 2),))
        assert oracle._held(system, BETA_30MK)[0].modes[0].n_fock == 79
        state = pure_state(0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exact = evolve_exact(system, state, BETA_30MK, 0.1).rho
            split = evolve_split(system, state, BETA_30MK, 0.1).rho
        assert caught == []
        for got, is_split in ((exact, False), (split, True)):
            np.testing.assert_allclose(
                got, dense_reference(system, state, BETA_30MK, 0.1, is_split), rtol=0, atol=1e-12)


class TestDimensionCapError:
    """Where the oracle cannot hold the bath it raises, naming the levels and beta."""

    ENTRIES = [
        lambda system, beta: evolve_exact(system, pure_state(0.5), beta, 0.1),
        lambda system, beta: evolve_split(system, pure_state(0.5), beta, 0.1),
        lambda system, beta: split_vs_closed_form(system, pure_state(0.5), beta, 0.1),
        lambda system, beta: error_scaling(system, pure_state(0.5), beta,
                                           np.geomspace(1e-4, 1e-3, 4)),
    ]
    IDS = ["evolve_exact", "evolve_split", "split_vs_closed_form", "error_scaling"]

    @pytest.fixture(autouse=True)
    def no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("diagonalised a bath it cannot hold")

        monkeypatch.setattr(np.linalg, "eigh", refuse)

    @pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
    def test_mode_past_half_the_cap(self, entry):
        # at 1 K a 1 ueV mode needs 1 + ceil(ln(1e13)/(beta omega)) = 2581 levels
        beta = temperature_to_beta(1000.0)
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(1.0, 0.1, 4),))
        with pytest.raises(DimensionCapError, match=rf"^mode at omega=1\.0 needs 2581 Fock levels "
                                                    rf"at beta={beta}, past the cap 2048$"):
            entry(system, beta)

    @pytest.mark.parametrize("beta, omega", [(5e-324, 1.0), (5e-324, 0.1)],
                             ids=["subnormal", "underflow-to-zero"])
    @pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
    def test_level_count_past_the_largest_double(self, entry, beta, omega):
        # beta omega = 5e-324 makes the count inf, and 0 a division by zero;
        # neither may escape as OverflowError or ZeroDivisionError
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(omega, 0.1, 4),))
        with pytest.raises(DimensionCapError, match=rf"^mode at omega={omega} needs inf Fock "
                                                    r"levels at beta=5e-324, past the cap 2048$"):
            entry(system, beta)

    @pytest.mark.parametrize("entry", [ENTRIES[0], ENTRIES[3]],
                             ids=["evolve_exact", "error_scaling"])
    def test_dense_held_dimension_past_the_cap(self, entry):
        # floors of 8 give d = 128, but at 300 mK the modes are held at
        # 388 and 38 levels, d = 29488; the per-mode maps run at that d
        beta = temperature_to_beta(300.0)
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(2.0, 0.1, 8),
                                                  TruncatedBathMode(21.0, 0.1, 8)))
        with pytest.raises(DimensionCapError, match=rf"^composite dimension 29488 of the held "
                                                    rf"levels \(388, 38\) at beta={beta} exceeds "
                                                    r"the cap 4096$"):
            entry(system, beta)


class TestDecoupledLimit:
    def test_zero_coupling_reduces_to_ideal(self, rng):
        system = one_mode_system(g=0.0, n_fock=12)
        for _ in range(5):
            st = random_density_matrix(rng)
            exact = evolve_exact(system, st, BETA_30MK, 0.7)
            ideal = evolve_ideal(st, 0.7, system.e_j)
            np.testing.assert_allclose(exact.rho, ideal.rho, atol=1e-12)


SCAN128_BETA = temperature_to_beta(218.5261463943531)
SCAN128_MODES = [(12.0, 0.025, 12), (20.0, 0.01, 12)]


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

    def test_fock_levels_are_a_floor(self):
        # a soft mode at 300 mK is held at 388 levels whatever its floor, so
        # floors of 4, 8 and 16 give one answer, the closed form's
        beta = temperature_to_beta(300.0)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        t = 0.8
        outs = [
            evolve_exact(CompositeSystem(e_j=0.0, modes=(TruncatedBathMode(2.0, 0.1, n_fock),)),
                         rho0, beta, t).rho
            for n_fock in (4, 8, 16)
        ]
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])
        bath = discrete_bath_from_modes([TruncatedBathMode(2.0, 0.1, 4)])
        b2 = dephasing_exponent_modes(t, bath, beta)
        assert abs(outs[0][0, 1] - 0.5 * math.exp(-b2)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        beta=BETAS,
        modes=st.lists(
            st.tuples(st.floats(2.0, 40.0), st.floats(0.0, 0.1), st.integers(12, 40)),
            min_size=1, max_size=3,
        ),
        t=st.floats(1e-3, 30.0),
        e_j=st.sampled_from([0.0, 51.8]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the benchmark's scan128.2 system, held at 48 x 30 levels at 218.5 mK
    @example(beta=SCAN128_BETA, modes=SCAN128_MODES, t=1.2170500360858743, e_j=0.0, seed=0)
    @example(beta=SCAN128_BETA, modes=SCAN128_MODES, t=1.2170500360858743, e_j=51.8, seed=0)
    def test_maps_match_the_mode_sum(self, beta, modes, t, e_j, seed):
        # the region README claims: g <= 0.1 omega and a floor of at least 12
        # levels, at any temperature; the exact map is the split one at E_J = 0
        modes = [TruncatedBathMode(w, ratio * w, n) for w, ratio, n in modes]
        system = CompositeSystem(e_j=e_j, modes=modes)
        state = random_density_matrix(np.random.default_rng(seed))
        b2 = dephasing_exponent_modes(t, discrete_bath_from_modes(modes), beta)
        closed = evolve_real(state, b2, t, e_j).rho
        got = [evolve_split(system, state, beta, t).rho,
               split_vs_closed_form(system, state, beta, t).rho_split]
        if e_j == 0.0:
            got.append(evolve_exact(system, state, beta, t).rho)
        for rho in got:
            assert np.max(np.abs(rho - closed)) <= 1e-12

    @pytest.mark.parametrize("n_fock, low, high", [(2, 0.1, 0.5), (16, 0.0, 1e-12)],
                             ids=["floor-2", "floor-16"])
    def test_floor_holds_the_displacement(self, n_fock, low, high):
        # the held levels cover thermal weight only: at T = 0 and g = 0.3 omega
        # the displaced vacuum needs the floor's levels, and two levels are
        # off by up to about 0.26 of a coherence of 0.5
        system = CompositeSystem(e_j=0.0, modes=(TruncatedBathMode(10.0, 3.0, n_fock),))
        assert oracle._held(system, math.inf)[0] == system
        bath = discrete_bath_from_modes(system.modes)
        rho0 = QubitState(np.full((2, 2), 0.5, dtype=complex), COMPUTATIONAL)
        worst = max(
            abs(evolve_split(system, rho0, math.inf, t).rho[0, 1]
                - 0.5 * math.exp(-dephasing_exponent_modes(t, bath, math.inf)))
            for t in np.linspace(0.01, 3.0, 300)
        )
        assert low <= worst <= high


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
        beta_modes=held_systems(),
        t=st.floats(1e-3, 3.0),
        e_j=st.sampled_from([0.0, 51.8]),
        basis=st.sampled_from([COMPUTATIONAL, "eigenbasis"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzz(self, beta_modes, t, e_j, basis, seed):
        beta, modes = beta_modes
        state = random_density_matrix(np.random.default_rng(seed), basis)
        system = CompositeSystem(e_j=e_j, modes=modes)
        zero = CompositeSystem(e_j=0.0, modes=modes)
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
        beta_modes=held_systems(betas=st.floats(1.0, 300.0).map(temperature_to_beta),
                                couplings=st.just(0.0) | st.floats(0.0, 1.0)),
        t=st.floats(1e-3, 3.0),
        e_j=st.floats(0.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parity_blocks_fuzz(self, beta_modes, t, e_j, seed):
        beta, modes = beta_modes
        system = CompositeSystem(e_j=e_j, modes=modes)
        _, blocks = oracle._dense_eigensystem(system)
        assert [evecs.shape for _, evecs in blocks] == [(system.bath_dim,) * 2] * 2
        union = np.sort(np.concatenate([evals for evals, _ in blocks]))
        composite = np.linalg.eigvalsh(sum(build_hamiltonians(system)))
        assert np.max(np.abs(union - composite)) <= 1e-12 * np.max(np.abs(composite))
        rng = np.random.default_rng(seed)
        for basis in (COMPUTATIONAL, "eigenbasis"):
            state = random_density_matrix(rng, basis)
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
            (51.8, lambda system: evolve_exact(system, pure_state(0.5), BETA_30MK, 0.1)),
            (0.0, lambda system: evolve_exact(system, pure_state(0.5), BETA_30MK, 0.1)),
            (51.8, lambda system: evolve_split(system, pure_state(0.5), BETA_30MK, 0.1)),
            (51.8, lambda system: split_vs_closed_form(system, pure_state(0.5), BETA_30MK, 0.1)),
            (51.8, lambda system: error_scaling(system, pure_state(0.5), BETA_30MK,
                                              np.geomspace(4e-4, 3e-3, 6))),
        ],
        ids=["evolve_exact-dense", "evolve_exact-e_j=0", "evolve_split", "split_vs_closed_form",
             "error_scaling"],
    )
    def test_no_entry_point_warns_of_truncation(self, e_j, call):
        # three levels of a 1 ueV mode at 30 mK used to warn; now held at 79
        system = CompositeSystem(e_j=e_j, modes=(TruncatedBathMode(1.0, 0.5, 3),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(system)
        assert caught == []

    def test_error_scaling_gives_both_maps_one_held_system(self, monkeypatch):
        # floors of 2 are held at 6 and 5 levels at 30 mK; the exact and the
        # split map of every step see that one system and its weights
        seen = []

        def recording(name):
            mapped = getattr(oracle, name)

            def call(system, weights, state, t):
                seen.append((name, system, weights))
                return mapped(system, weights, state, t)

            monkeypatch.setattr(oracle, name, call)

        for name in ("_exact_map", "_split_map"):
            recording(name)
        system = CompositeSystem(e_j=51.8, modes=(TruncatedBathMode(16.0, 0.8, 2),
                                                   TruncatedBathMode(23.0, 0.6, 2)))
        state, times = pure_state(math.pi / 3.0, 0.3), np.geomspace(4e-4, 3e-3, 6)
        result = error_scaling(system, state, BETA_30MK, times)
        held = oracle._held(system, BETA_30MK)[0]
        assert [m.n_fock for m in held.modes] == [6, 5]
        assert [name for name, _, _ in seen] == ["_exact_map", "_split_map"] * 6
        assert all(s is seen[0][1] and w is seen[0][2] for _, s, w in seen)
        assert seen[0][1] == held
        # so the fit is the one of the held system given outright
        monkeypatch.undo()
        np.testing.assert_array_equal(error_scaling(held, state, BETA_30MK, times).errors,
                                      result.errors)


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
