"""Dynamics and entropy tests.

Key closed-form oracles:

*   Beam splitter: q = 1, chi = 0, omega = 1, gamma*t = -pi/4 maps the
    initial |5, 0> onto a binomial superposition with weights C(5, m)/32;
    the reduced state is diagonal with those weights, so
    S_2 = -sum p log2 p = 2.19819241047... (computed by hand below).

*   Detuned two-level block (N = 1): the only nontrivial dynamics is a 2x2
    Rabi problem.  With detuning delta = (q^2 - 1)/2 between the two basis
    levels, the excitation-transfer probability is
    P = gamma^2 sin^2(Omega t) / Omega^2, Omega = sqrt(gamma^2 + delta^2/4).
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkerr.blocks import SystemParams
from qkerr.dynamics import (
    DENSE_REFERENCE_N_CAP,
    DensityMatrix,
    TwoModeState,
    build_spectral_cache,
    dense_reference_evolve,
    entropy_series,
    evolve,
    prepare_coherent,
    prepare_fock,
    purity,
    reduced_atom,
    reduced_field,
    von_neumann_entropy,
)
from qkerr.qalgebra import CoherentSpec

from conftest import random_triangle_state


def binomial_entropy_bits(n: int) -> float:
    p = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float) / 2.0**n
    return float(-(p * np.log2(p)).sum())


class TestPreparation:
    def test_fock_layout(self):
        state = prepare_fock(3)
        assert state.n_max == 3
        assert state.amplitude(3, 0) == 1.0
        assert state.norm() == pytest.approx(1.0)

    def test_fock_rejects_negative(self):
        with pytest.raises(ValueError):
            prepare_fock(-1)

    def test_coherent_column(self):
        state = prepare_coherent(CoherentSpec(alpha_sq=0.5), 0.9)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        # Atom starts in its ground state: only m = 0 is populated.
        assert np.all(state.amplitudes[:, 1:] == 0.0)

    def test_coherent_zero_intensity_is_vacuum(self):
        state = prepare_coherent(CoherentSpec(alpha_sq=0.0), 0.8)
        assert state.n_max == 0
        assert state.amplitude(0, 0) == 1.0

    def test_occupied_blocks(self, rng):
        assert prepare_fock(7).occupied_blocks() == (7,)
        coherent = prepare_coherent(CoherentSpec(alpha_sq=0.5), 0.9)
        assert coherent.occupied_blocks() == tuple(range(coherent.n_max + 1))
        amps = np.zeros((5, 5), dtype=complex)
        amps[0, 2] = 0.6
        amps[3, 1] = 0.8j
        assert TwoModeState(n_max=4, amplitudes=amps).occupied_blocks() == (2, 4)

    def test_cache_holds_requested_blocks_only(self):
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.8), [5, 2, 5])
        assert sorted(cache.blocks) == [2, 5]
        assert all(spec.n_total == n for n, spec in cache.blocks.items())

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TwoModeState(n_max=1, amplitudes=np.eye(2, dtype=complex))  # corner populated
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 0] = 0.5  # not normalized
        with pytest.raises(ValueError):
            TwoModeState(n_max=1, amplitudes=bad)


class TestEvolution:
    def test_time_zero_is_identity(self, rng):
        state = random_triangle_state(rng, 6)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.9), range(7))
        out = evolve(state, cache, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    def test_reversibility(self, rng):
        state = random_triangle_state(rng, 5)
        cache = build_spectral_cache(SystemParams(chi=0.02, gamma=0.7, q=0.8), range(6))
        there = evolve(state, cache, 3.7)
        back = evolve(there, cache, -3.7)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_norm_preserved_long_time(self):
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.7), range(6))
        out = evolve(state, cache, 800.0)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_beam_splitter_binomial(self):
        # gamma*t = -pi/4 with gamma = -pi/4, t = 1.
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(gamma=-math.pi / 4.0), range(6))
        out = evolve(state, cache, 1.0)
        weights = np.abs(out.amplitudes[5 - np.arange(6), np.arange(6)]) ** 2
        expected = np.array([math.comb(5, m) for m in range(6)]) / 32.0
        np.testing.assert_allclose(weights, expected, atol=1e-12)

    def test_cache_requires_matching_support(self, rng):
        state = random_triangle_state(rng, 6)
        cache = build_spectral_cache(SystemParams(), range(5))
        with pytest.raises(ValueError):
            evolve(state, cache, 1.0)

    def test_cache_missing_occupied_block_rejected(self):
        amps = np.zeros((4, 4), dtype=complex)
        amps[1, 0] = amps[1, 2] = 1.0 / math.sqrt(2.0)  # blocks N = 1 and 3
        state = TwoModeState(n_max=3, amplitudes=amps)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.9), [0, 1, 2])
        with pytest.raises(ValueError, match="block N=3"):
            evolve(state, cache, 1.0)

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.6])
    def test_matches_dense_reference(self, rng, q):
        params = SystemParams(omega=1.0, chi=0.013, gamma=0.9, q=q)
        for _ in range(6):
            n_max = int(rng.integers(1, 8))
            state = random_triangle_state(rng, n_max)
            t = float(rng.uniform(-3.0, 3.0))
            cache = build_spectral_cache(params, range(n_max + 1))
            fast = evolve(state, cache, t)
            slow = dense_reference_evolve(state, params, t)
            np.testing.assert_allclose(fast.amplitudes, slow.amplitudes, atol=1e-9)

    def test_dense_reference_cap(self, rng):
        state = random_triangle_state(rng, DENSE_REFERENCE_N_CAP + 1)
        with pytest.raises(ValueError):
            dense_reference_evolve(state, SystemParams(), 1.0)

    def test_dense_reference_time_zero(self, rng):
        state = random_triangle_state(rng, 4)
        out = dense_reference_evolve(state, SystemParams(chi=0.01, q=0.9), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    def test_detuned_rabi_closed_form(self):
        # N = 1 block: P(transfer) = g^2 sin^2(Omega t)/Omega^2.
        for q in (1.0, 0.8, 0.5):
            g = 0.9
            params = SystemParams(gamma=g, q=q)
            state = prepare_fock(1)
            cache = build_spectral_cache(params, range(2))
            delta = (q * q - 1.0) / 2.0
            omega_r = math.sqrt(g * g + 0.25 * delta * delta)
            for t in (0.3, 1.0, 2.4):
                out = evolve(state, cache, t)
                p_transfer = abs(out.amplitude(0, 1)) ** 2
                expected = g * g * math.sin(omega_r * t) ** 2 / omega_r**2
                assert p_transfer == pytest.approx(expected, abs=1e-12)


class TestReducedStates:
    def test_fock_reduced_is_diagonal(self):
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(chi=0.01), range(6))
        out = evolve(state, cache, 2.0)
        rho = reduced_field(out)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        # Single-block initial state: the field reduction is diagonal.
        assert np.abs(off).max() < 1e-14

    def test_trace_one(self, rng):
        state = random_triangle_state(rng, 7)
        for rho in (reduced_field(state), reduced_atom(state)):
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_bell_like_state(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[1, 0] = amps[0, 1] = 1.0 / math.sqrt(2.0)
        state = TwoModeState(n_max=1, amplitudes=amps)
        rho = reduced_field(state)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-15)
        # Maximally entangled pair of levels: exactly one bit.
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))


class TestEntropy:
    def test_beam_splitter_value(self):
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(gamma=-math.pi / 4.0), range(6))
        out = evolve(state, cache, 1.0)
        s = von_neumann_entropy(reduced_field(out))
        # Independent oracle: Shannon entropy of binomial(5, 1/2).
        assert s == pytest.approx(binomial_entropy_bits(5), abs=1e-12)
        assert s == pytest.approx(2.198, abs=1e-3)

    def test_base_e_is_ln2_times_base2(self, rng):
        state = random_triangle_state(rng, 5)
        rho = reduced_field(state)
        s2 = von_neumann_entropy(rho, log_base=2.0)
        se = von_neumann_entropy(rho, log_base=math.e)
        assert se == pytest.approx(s2 * math.log(2.0), rel=1e-12)

    def test_log_base_validated(self, rng):
        rho = reduced_field(random_triangle_state(rng, 3))
        with pytest.raises(ValueError):
            von_neumann_entropy(rho, log_base=10.0)

    def test_product_state_entropy_zero(self):
        state = prepare_fock(4)
        assert von_neumann_entropy(reduced_field(state)) == 0.0

    def test_schmidt_symmetry(self, rng):
        for n_max in (2, 5, 9):
            state = random_triangle_state(rng, n_max)
            s_field = von_neumann_entropy(reduced_field(state))
            s_atom = von_neumann_entropy(reduced_atom(state))
            assert s_field == pytest.approx(s_atom, abs=1e-8)

    def test_entropy_bounded_by_log_dim(self, rng):
        n_max = 6
        state = random_triangle_state(rng, n_max)
        s = von_neumann_entropy(reduced_field(state))
        assert 0.0 <= s <= math.log2(n_max + 1) + 1e-12

    def test_negative_spectrum_rejected(self):
        eps = 1e-6
        rho = DensityMatrix(np.diag([1.0 + eps, -eps]))
        with pytest.raises(ValueError):
            von_neumann_entropy(rho)

    def test_purity(self, rng):
        state = prepare_fock(3)
        assert purity(reduced_field(state)) == pytest.approx(1.0, abs=1e-12)
        mixed = reduced_field(random_triangle_state(rng, 5))
        p = purity(mixed)
        assert 1.0 / 6.0 - 1e-12 <= p <= 1.0 + 1e-12

    def test_purity_equal_for_both_reductions(self, rng):
        # The two reductions of a pure state share a spectrum.
        state = random_triangle_state(rng, 6)
        p_field = purity(reduced_field(state))
        p_atom = purity(reduced_atom(state))
        assert p_field == pytest.approx(p_atom, abs=1e-12)


def random_block_state(rng: np.random.Generator, n_max: int, n_total: int) -> TwoModeState:
    """Random normalized complex state on the single block n + m = n_total."""
    ms = np.arange(n_total + 1)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[n_total - ms, ms] = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    amps /= np.linalg.norm(amps)
    return TwoModeState(n_max=n_max, amplitudes=amps)


def assert_series_matches_single_step_api(state, cache, times):
    """entropy_series against evolve, the reductions and eigenvalue entropy,
    one time at a time."""
    s_field, s_atom, pur = entropy_series(state, cache, times)
    for i, t in enumerate(times):
        out = evolve(state, cache, float(t))
        rho_f = reduced_field(out)
        assert s_field[i] == pytest.approx(von_neumann_entropy(rho_f), abs=1e-12)
        assert s_atom[i] == pytest.approx(
            von_neumann_entropy(reduced_atom(out)), abs=1e-12
        )
        assert pur[i] == pytest.approx(purity(rho_f), abs=1e-12)


class TestEntropySeries:
    def test_matches_single_step_api(self, rng):
        cache = build_spectral_cache(SystemParams(chi=0.05, gamma=0.8, q=0.9), range(6))
        times = np.linspace(0.0, 4.0, 9)
        # a state on all six blocks (dense path), then two single-block states
        for state, blocks in (
            (random_triangle_state(rng, 5), 6),
            (prepare_fock(5), 1),
            (random_block_state(rng, 5, 4), 1),
        ):
            assert len(state.occupied_blocks()) == blocks
            assert_series_matches_single_step_api(state, cache, times)

    @given(
        n_total=st.integers(min_value=0, max_value=12),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        times=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_block_matches_single_step_api(self, n_total, q, chi, gamma, times, seed):
        # A single-block state takes the diagonal (Shannon) path; the
        # single-time API reduces and diagonalizes the full tables.
        state = random_block_state(np.random.default_rng(seed), n_total, n_total)
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), [n_total])
        assert_series_matches_single_step_api(state, cache, np.array(times))

    def test_single_block_cache_missing_block_rejected(self):
        state = prepare_fock(4)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.9), range(4))
        with pytest.raises(ValueError, match="block N=4"):
            entropy_series(state, cache, np.linspace(0.0, 1.0, 3))

    def test_single_block_memory_bounded_by_block_amplitudes(self):
        # A Fock state at N = 200 needs only (chunk, N + 1) amplitude arrays.
        # A (chunk, dim, dim) amplitude table would be 2048 * 201**2 * 16
        # bytes, 1.3 GB; the bound allows eight (chunk, N + 1) complex arrays.
        n, chunk = 200, 2048
        state = prepare_fock(n)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.7), state.occupied_blocks())
        times = np.linspace(0.0, 700.0, 14_001)
        tracemalloc.start()
        try:
            s_field, _, _ = entropy_series(state, cache, times, chunk_size=chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * chunk * (n + 1) * 16
        assert np.all((s_field >= 0.0) & (s_field <= math.log2(n + 1) + 1e-12))

    def test_chunking_invariant(self, rng):
        state = random_triangle_state(rng, 4)
        cache = build_spectral_cache(SystemParams(chi=0.02, q=0.8), range(5))
        times = np.linspace(0.0, 10.0, 57)
        a = entropy_series(state, cache, times, chunk_size=8)
        b = entropy_series(state, cache, times, chunk_size=2048)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-14)

    def test_q_continuity_toward_unity(self):
        # The q -> 1 limit must be smooth: a 1e-4 deformation moves the
        # entropy curve by well under 0.02 bits over an interaction period.
        state = prepare_fock(5)
        times = np.linspace(0.0, 20.0, 81)
        params_1 = SystemParams(omega=1.0, chi=0.01, gamma=1.0, q=1.0)
        params_q = SystemParams(omega=1.0, chi=0.01, gamma=1.0, q=0.9999)
        s1, _, _ = entropy_series(state, build_spectral_cache(params_1, range(6)), times)
        sq, _, _ = entropy_series(state, build_spectral_cache(params_q, range(6)), times)
        assert np.abs(s1 - sq).max() < 0.02


@st.composite
def block_supported_states(draw):
    """A random state whose weight lies on a random set of blocks."""
    n_max = draw(st.integers(min_value=0, max_value=8))
    support = draw(st.sets(st.integers(min_value=0, max_value=n_max), min_size=1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dim = n_max + 1
    table = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    n_idx, m_idx = np.indices((dim, dim))
    table[~np.isin(n_idx + m_idx, sorted(support))] = 0.0
    table /= np.linalg.norm(table)
    return TwoModeState(n_max=n_max, amplitudes=table), support


class TestOccupiedBlockCache:
    @given(
        drawn=block_supported_states(),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_series_equals_full_cache_series(self, drawn, q, chi, gamma):
        state, support = drawn
        assert state.occupied_blocks() == tuple(sorted(support))
        params = SystemParams(chi=chi, gamma=gamma, q=q)
        times = np.linspace(-5.0, 40.0, 23)
        pruned = entropy_series(state, build_spectral_cache(params, state.occupied_blocks()), times)
        full = entropy_series(state, build_spectral_cache(params, range(state.n_max + 1)), times)
        for a, b in zip(pruned, full):
            assert np.array_equal(a, b)


class TestEigenvectorSigns:
    @given(
        drawn=block_supported_states(),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_negated_columns_change_nothing(self, drawn, q, chi, gamma, seed):
        # The propagator V diag(exp(-i lambda t)) V^T a(0) meets each column
        # of V twice, and negating a float is exact, so LAPACK's choice of
        # eigenvector signs cannot move a single bit of the results.
        state, _ = drawn
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), state.occupied_blocks())
        rng = np.random.default_rng(seed)
        flipped = replace(
            cache,
            blocks={
                n: replace(spec, eigenvectors=spec.eigenvectors * rng.choice([-1.0, 1.0], size=n + 1))
                for n, spec in cache.blocks.items()
            },
        )
        times = np.linspace(-5.0, 40.0, 23)
        for a, b in zip(entropy_series(state, cache, times), entropy_series(state, flipped, times)):
            assert np.array_equal(a, b)
        for t in (-3.0, 0.7, 25.0):
            assert np.array_equal(evolve(state, cache, t).amplitudes, evolve(state, flipped, t).amplitudes)
