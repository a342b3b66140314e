"""Dynamics and entropy tests.

The engine is checked against references it shares no code with:

*   the benchmark's oracle (bench/oracle.py, loaded read only through
    conftest.load_bench), whose field_entropy traces out the atom, takes
    eigvalsh and returns the entropy in bits; applied to the transposed
    tables it reduces the atom mode instead;
*   dense_reference_evolve, which diagonalizes the whole lattice
    Hamiltonian as one matrix;
*   closed forms.  Beam splitter: q = 1, chi = 0, omega = 1,
    gamma*t = -pi/4 maps the initial |5, 0> onto a binomial superposition
    with weights C(5, m)/32, so S_2 = -sum p log2 p = 2.19819241047...
    Detuned two-level block (N = 1): the only nontrivial dynamics is a 2x2
    Rabi problem.  With detuning delta = (1 + q^2)/2 - omega between the
    two basis levels (chi does not enter), the excitation-transfer
    probability is P = gamma^2 sin^2(Omega t) / Omega^2,
    Omega = sqrt(gamma^2 + delta^2/4).

Engine amplitudes come from dynamics._propagate, the propagation kernel
of entropy_series run on the whole grid as one part, unpacked into dense
tables by conftest.propagated_tables.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkerr import dynamics
from qkerr.blocks import SystemParams, build_block, eigh_tridiagonal
from qkerr.dynamics import (
    DENSE_REFERENCE_N_CAP,
    TwoModeState,
    _propagate,
    build_spectral_cache,
    dense_reference_evolve,
    entropy_series,
    prepare_coherent,
    prepare_fock,
)
from qkerr.exceptions import ConvergenceError
from qkerr.harness import InitialState, run_evolve

from conftest import load_bench, propagated_tables, random_triangle_state, traced_peak

oracle = load_bench("oracle")


def evolved(state: TwoModeState, cache, t: float) -> TwoModeState:
    """The engine's state at time t."""
    return TwoModeState(n_max=state.n_max, amplitudes=propagated_tables(state, cache, np.array([t]))[0])


class TestPreparation:
    def test_fock_layout(self):
        state = prepare_fock(3)
        assert state.n_max == 3
        assert state.amplitudes[3, 0] == 1.0
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_fock_rejects_negative(self):
        with pytest.raises(ValueError, match="fock_n"):
            prepare_fock(-1)

    @pytest.mark.parametrize("fock_n", [True, 2.5])
    def test_fock_rejects_non_integer(self, fock_n):
        # A bool would pass for the count 1; 2.5 would fail inside numpy.
        with pytest.raises(ValueError, match="fock_n"):
            prepare_fock(fock_n)

    def test_coherent_column(self):
        state = prepare_coherent(0.5, 0.9)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        # Atom starts in its ground state: only m = 0 is populated.
        assert np.all(state.amplitudes[:, 1:] == 0.0)

    def test_coherent_zero_intensity_is_vacuum(self):
        state = prepare_coherent(0.0, 0.8)
        assert state.n_max == 0
        assert state.amplitudes[0, 0] == 1.0

    def test_occupied_blocks(self, rng):
        assert prepare_fock(7).occupied_blocks() == (7,)
        coherent = prepare_coherent(0.5, 0.9)
        assert coherent.occupied_blocks() == tuple(range(coherent.n_max + 1))
        amps = np.zeros((5, 5), dtype=complex)
        amps[0, 2] = 0.6
        amps[3, 1] = 0.8j
        assert TwoModeState(n_max=4, amplitudes=amps).occupied_blocks() == (2, 4)

    def test_build_holds_no_index_table(self):
        # The blocks come from the nonzero entries, not from a (dim, dim)
        # table of n + m, which took the peak of the N = 512 build from the
        # amplitude table's 1.0 times its bytes to 1.56.
        prepare_fock(2)  # numpy's first-call allocations stay out of the peak
        _, peak = traced_peak(lambda: prepare_fock(512))
        assert peak < 1.2 * 16 * 513**2

    def test_cache_holds_requested_blocks_only(self):
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.8), [5, 2, 5])
        assert sorted(cache) == [2, 5]
        assert all(vals.shape == (n + 1,) for n, (vals, _) in cache.items())

    def test_state_validation(self):
        # corner populated, and norm sqrt(2): the triangle is checked first
        with pytest.raises(ValueError, match=r"^amplitudes beyond n \+ m = n_max must be zero$"):
            TwoModeState(n_max=1, amplitudes=np.eye(2, dtype=complex))
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 0] = 0.5  # not normalized
        with pytest.raises(ValueError):
            TwoModeState(n_max=1, amplitudes=bad)
        bad[0, 0] = np.nan  # a NaN norm is not within tolerance of 1
        with pytest.raises(ValueError, match="norm"):
            TwoModeState(n_max=1, amplitudes=bad)
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            TwoModeState(n_max=-1, amplitudes=np.zeros((0, 0), dtype=complex))
        with pytest.raises(ValueError, match=r"amplitude table must be 2x2, got \(3, 3\)"):
            TwoModeState(n_max=1, amplitudes=np.zeros((3, 3), dtype=complex))


@st.composite
def propagation_cases(draw):
    """A random state on every block up to n_max <= 8, the spectra of its
    blocks for random parameters, the parameters and two times."""
    n_max = draw(st.integers(min_value=1, max_value=8))
    state = random_triangle_state(np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))), n_max)
    params = SystemParams(
        chi=draw(st.floats(min_value=0.0, max_value=0.2)),
        gamma=draw(st.floats(min_value=-2.0, max_value=2.0)),
        q=draw(st.floats(min_value=0.05, max_value=1.0, exclude_min=True)),
    )
    times = st.floats(min_value=-1000.0, max_value=1000.0)
    return state, build_spectral_cache(params, state.occupied_blocks()), params, draw(times), draw(times)


class TestEvolution:
    @given(case=propagation_cases())
    @settings(max_examples=40, deadline=None)
    def test_time_zero_is_identity(self, case):
        # exact: the t = 0 rows are the initial amplitudes, not V V^T a(0)
        state, cache, _, _, _ = case
        assert np.array_equal(propagated_tables(state, cache, np.zeros(1))[0], state.amplitudes)

    @given(case=propagation_cases())
    @settings(max_examples=40, deadline=None)
    def test_reversibility(self, case):
        # U(-t) U(t) is the identity.
        state, cache, _, t, _ = case
        back = evolved(evolved(state, cache, t), cache, -t)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    @given(case=propagation_cases())
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_long_time(self, case):
        state, cache, _, t1, t2 = case
        norms = np.linalg.norm(propagated_tables(state, cache, np.array([t1, t2])), axis=(1, 2))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)

    @given(case=propagation_cases())
    @settings(max_examples=40, deadline=None)
    def test_group_law(self, case):
        # U(t1 + t2) = U(t2) U(t1).
        state, cache, _, t1, t2 = case
        two_steps = evolved(evolved(state, cache, t1), cache, t2)
        one_step = propagated_tables(state, cache, np.array([t1 + t2]))[0]
        np.testing.assert_allclose(two_steps.amplitudes, one_step, atol=1e-10)

    @given(case=propagation_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference_on_random_parameters(self, case):
        state, cache, params, t, _ = case
        fast = propagated_tables(state, cache, np.array([t]))[0]
        np.testing.assert_allclose(fast, dense_reference_evolve(state, params, t).amplitudes, atol=1e-9)

    def test_beam_splitter_binomial(self):
        # gamma*t = -pi/4 with gamma = -pi/4, t = 1.
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(gamma=-math.pi / 4.0), range(6))
        out = propagated_tables(state, cache, np.array([1.0]))[0]
        weights = np.abs(out[5 - np.arange(6), np.arange(6)]) ** 2
        expected = np.array([math.comb(5, m) for m in range(6)]) / 32.0
        np.testing.assert_allclose(weights, expected, atol=1e-12)

    def test_cache_requires_matching_support(self, rng):
        state = random_triangle_state(rng, 6)
        cache = build_spectral_cache(SystemParams(), range(5))
        with pytest.raises(ValueError):
            propagated_tables(state, cache, np.array([1.0]))

    def test_cache_missing_occupied_block_rejected(self):
        amps = np.zeros((4, 4), dtype=complex)
        amps[1, 0] = amps[1, 2] = 1.0 / math.sqrt(2.0)  # blocks N = 1 and 3
        state = TwoModeState(n_max=3, amplitudes=amps)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.9), [0, 1, 2])
        with pytest.raises(ValueError, match="block N=3"):
            propagated_tables(state, cache, np.array([1.0]))

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.6])
    def test_matches_dense_reference(self, rng, q):
        params = SystemParams(omega=1.0, chi=0.013, gamma=0.9, q=q)
        for _ in range(6):
            n_max = int(rng.integers(1, 8))
            state = random_triangle_state(rng, n_max)
            t = float(rng.uniform(-3.0, 3.0))
            cache = build_spectral_cache(params, range(n_max + 1))
            fast = propagated_tables(state, cache, np.array([t]))[0]
            slow = dense_reference_evolve(state, params, t)
            np.testing.assert_allclose(fast, slow.amplitudes, atol=1e-9)

    def test_dense_reference_cap(self, rng):
        state = random_triangle_state(rng, DENSE_REFERENCE_N_CAP + 1)
        with pytest.raises(ValueError):
            dense_reference_evolve(state, SystemParams(), 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_dense_reference_time_finite(self, rng, t):
        with pytest.raises(ValueError, match="time must be finite"):
            dense_reference_evolve(random_triangle_state(rng, 2), SystemParams(), t)

    def test_dense_reference_time_zero(self, rng):
        state = random_triangle_state(rng, 4)
        out = dense_reference_evolve(state, SystemParams(chi=0.01, q=0.9), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-13)

    @given(
        q=st.floats(min_value=0.05, max_value=1.0, exclude_min=True),
        omega=st.floats(min_value=0.2, max_value=3.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        g=st.floats(min_value=0.05, max_value=1.5),
        sign=st.sampled_from([1.0, -1.0]),
        t=st.floats(min_value=-5.0, max_value=5.0),
    )
    @example(q=1.0, omega=1.0, chi=0.0, g=0.9, sign=1.0, t=0.3)
    @example(q=0.8, omega=1.0, chi=0.0, g=0.9, sign=1.0, t=1.0)
    @example(q=0.5, omega=1.0, chi=0.0, g=0.9, sign=1.0, t=2.4)
    @settings(max_examples=60, deadline=None)
    def test_detuned_rabi_closed_form(self, q, omega, chi, g, sign, t):
        # N = 1 block: P(transfer) = g^2 sin^2(Omega t)/Omega^2.
        params = SystemParams(omega=omega, chi=chi, gamma=sign * g, q=q)
        cache = build_spectral_cache(params, range(2))
        delta = (1.0 + q * q) / 2.0 - omega
        omega_r = math.sqrt(g * g + 0.25 * delta * delta)
        p_transfer = abs(propagated_tables(prepare_fock(1), cache, np.array([t]))[0, 0, 1]) ** 2
        expected = g * g * math.sin(omega_r * t) ** 2 / omega_r**2
        assert p_transfer == pytest.approx(expected, rel=0, abs=1e-12)


class TestReducedStates:
    def test_fock_reduced_is_diagonal(self):
        # entropy_series reads a single-block state's entropies off |a_m|^2
        # because its field reduction is diagonal.
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(chi=0.01), range(6))
        psi = propagated_tables(state, cache, np.array([2.0]))[0]
        rho = psi @ psi.conj().T
        off = rho - np.diag(np.diag(rho))
        assert np.abs(off).max() < 1e-14

    def test_bell_like_state(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[1, 0] = amps[0, 1] = 1.0 / math.sqrt(2.0)
        state = TwoModeState(n_max=1, amplitudes=amps)
        cache = build_spectral_cache(SystemParams(), state.occupied_blocks())
        s_field, s_atom, pur = entropy_series(state, cache, [0.0])
        # Maximally entangled pair of levels: exactly one bit.
        assert s_field[0] == pytest.approx(1.0, abs=1e-12)
        assert s_atom[0] == pytest.approx(1.0, abs=1e-12)
        assert pur[0] == pytest.approx(0.5, abs=1e-12)
        assert oracle.field_entropy(amps[None])[0] == pytest.approx(1.0, abs=1e-12)


def series_at_zero(state: TwoModeState, log_base: float = 2.0):
    """(S_field, S_atom, purity) of state itself, through entropy_series."""
    cache = build_spectral_cache(SystemParams(), state.occupied_blocks())
    return tuple(float(x[0]) for x in entropy_series(state, cache, [0.0], log_base=log_base))


class TestEntropy:
    def test_beam_splitter_value(self):
        state = prepare_fock(5)
        cache = build_spectral_cache(SystemParams(gamma=-math.pi / 4.0), range(6))
        s = float(entropy_series(state, cache, [1.0])[0][0])
        # Independent closed form: Shannon entropy of binomial(5, 1/2).
        assert s == pytest.approx(oracle.binomial_entropy(5), abs=1e-12)
        assert s == pytest.approx(2.198, abs=1e-3)

    @given(
        n=st.integers(min_value=0, max_value=12),
        dq=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e-2)),
    )
    @settings(max_examples=60, deadline=None)
    def test_beam_splitter_continuous_in_q(self, n, dq):
        # Near q = 1 the splitter of |n, 0> stays near the binomial split:
        # the deformation moves S by well under n (1 - q) bits.
        q = 1.0 - dq
        state = prepare_fock(n)
        cache = build_spectral_cache(SystemParams(chi=0.0, gamma=-math.pi / 4.0, q=q), [n])
        s = float(entropy_series(state, cache, [1.0])[0][0])
        assert abs(s - oracle.binomial_entropy(n)) <= n * dq + 1e-10

    def test_base_e_is_ln2_times_base2(self, rng):
        state = random_triangle_state(rng, 5)
        s2 = series_at_zero(state, log_base=2.0)
        se = series_at_zero(state, log_base=math.e)
        assert se[0] == pytest.approx(s2[0] * math.log(2.0), rel=1e-12)
        assert se[1] == pytest.approx(s2[1] * math.log(2.0), rel=1e-12)

    def test_log_base_validated(self, rng):
        state = random_triangle_state(rng, 3)
        with pytest.raises(ValueError, match="log_base"):
            series_at_zero(state, log_base=10.0)

    def test_product_state_entropy_zero(self):
        # A number state (one block) and a coherent field (several blocks),
        # each with the atom in vacuum.  At t = 0 the propagator V V^T
        # leaves roundoff of order 1e-16 off the occupied level.
        for state in (prepare_fock(4), prepare_coherent(0.5, 0.9)):
            s_field, s_atom, _ = series_at_zero(state)
            assert s_field == pytest.approx(0.0, abs=1e-12)
            assert s_atom == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_symmetry(self, rng):
        # A series copies S_atom from S_field; the oracle reduces the atom
        # mode on its own.
        for n_max in (2, 5, 9):
            state = random_triangle_state(rng, n_max)
            _, s_atom, _ = series_at_zero(state)
            atom = oracle.field_entropy(state.amplitudes.T[None])[0]
            assert s_atom == pytest.approx(atom, abs=1e-8)

    def test_entropy_bounded_by_log_dim(self, rng):
        n_max = 6
        state = random_triangle_state(rng, n_max)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.8), state.occupied_blocks())
        s_field, _, _ = entropy_series(state, cache, np.linspace(0.0, 30.0, 31))
        assert np.all((s_field >= 0.0) & (s_field <= math.log2(n_max + 1) + 1e-12))

    def test_negative_spectrum_rejected(self):
        eps = 1e-6
        with pytest.raises(ValueError, match="eigenvalue"):
            dynamics._entropy_of_spectra(np.array([[1.0 + eps, -eps]]), 2.0)

    def test_purity(self, rng):
        assert series_at_zero(prepare_fock(3))[2] == pytest.approx(1.0, abs=1e-12)
        p = series_at_zero(random_triangle_state(rng, 5))[2]
        assert 1.0 / 6.0 - 1e-12 <= p <= 1.0 + 1e-12

    def test_purity_equal_for_both_reductions(self, rng):
        # The two reductions of a pure state share a spectrum, so the
        # field purity entropy_series reports is Tr rho_atom^2.
        state = random_triangle_state(rng, 6)
        rho_atom = state.amplitudes.T @ state.amplitudes.conj()
        assert series_at_zero(state)[2] == pytest.approx(float((np.abs(rho_atom) ** 2).sum()), abs=1e-12)


def handed_over_bound(dim: int, samples: int) -> int:
    """Traced bytes a multi-block series on dim levels may peak at when its
    cache is handed over: the cache's real eigenvectors of every block and
    the complex cast of the largest, which numpy makes as a part
    multiplies by it, a part's three (part, dim, dim) tables, its packed
    phases and amplitudes, the rates, V^T a(0) and a(0) of every level,
    the two int64 index arrays over the levels, numpy's two broadcast
    buffers, the output columns and 128 KiB for Python objects."""
    table = 16 * dim**2
    part = max(dynamics._SLICE_BYTES // table, 2)
    levels = dim * (dim + 1) // 2
    eigenvectors = 8 * sum(n**2 for n in range(1, dim + 1)) + table
    prepared = eigenvectors + 16 * levels * (2 * part + 3) + 2 * 8 * levels
    return prepared + 3 * part * table + 2 * 16 * np.getbufsize() + 3 * 8 * samples + 2**17


def random_block_state(rng: np.random.Generator, n_max: int, n_total: int) -> TwoModeState:
    """Random normalized complex state on the single block n + m = n_total."""
    ms = np.arange(n_total + 1)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[n_total - ms, ms] = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
    amps /= np.linalg.norm(amps)
    return TwoModeState(n_max=n_max, amplitudes=amps)


def assert_series_matches_oracle(state, cache, times):
    """entropy_series against the oracle, sample by sample: the field and
    the atom reduction of each of the engine's amplitude tables, each
    diagonalized on its own, and the atom reduction's purity, which a pure
    state shares with the field reduction."""
    s_field, s_atom, pur = entropy_series(state, cache, times)
    psi = propagated_tables(state, cache, np.asarray(times, dtype=float))
    atom_tables = psi.transpose(0, 2, 1)
    rho_atom = atom_tables @ atom_tables.conj().transpose(0, 2, 1)
    np.testing.assert_allclose(s_field, oracle.field_entropy(psi), rtol=0, atol=1e-12)
    np.testing.assert_allclose(s_atom, oracle.field_entropy(atom_tables), rtol=0, atol=1e-12)
    np.testing.assert_allclose(pur, (np.abs(rho_atom) ** 2).sum(axis=(1, 2)), rtol=0, atol=1e-12)


class TestEntropySeries:
    def test_matches_oracle(self, rng):
        cache = build_spectral_cache(SystemParams(chi=0.05, gamma=0.8, q=0.9), range(6))
        times = np.linspace(0.0, 4.0, 9)
        # a state on all six blocks (dense path), then two single-block states
        for state, blocks in (
            (random_triangle_state(rng, 5), 6),
            (prepare_fock(5), 1),
            (random_block_state(rng, 5, 4), 1),
        ):
            assert len(state.occupied_blocks()) == blocks
            assert_series_matches_oracle(state, cache, times)

    @given(
        n_total=st.integers(min_value=0, max_value=12),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        times=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_block_matches_oracle(self, n_total, q, chi, gamma, times, seed):
        # A single-block state takes the diagonal (Shannon) path; the
        # oracle reduces and diagonalizes the full tables.
        state = random_block_state(np.random.default_rng(seed), n_total, n_total)
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), [n_total])
        assert_series_matches_oracle(state, cache, np.array(times))

    @pytest.mark.parametrize(
        "times, message",
        [
            (np.zeros((2, 2)), "times must be one-dimensional"),
            ([0.0, math.nan], "times must be finite"),
            ([math.inf], "times must be finite"),
        ],
    )
    def test_times_validated(self, times, message):
        state = prepare_fock(2)
        cache = build_spectral_cache(SystemParams(), state.occupied_blocks())
        with pytest.raises(ValueError, match=message):
            entropy_series(state, cache, times)

    def test_field_eigensolve_failure_is_convergence_error(self, monkeypatch):
        # a state on several blocks reduces through eigvalsh
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        state = prepare_coherent(0.5, 0.9)
        cache = build_spectral_cache(SystemParams(), state.occupied_blocks())
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        message = r"^eigensolve failed on the field density matrix \(dim 13\): Eigenvalues did not converge$"
        with pytest.raises(ConvergenceError, match=message):
            entropy_series(state, cache, [0.0, 1.0])

    def test_single_block_cache_missing_block_rejected(self):
        state = prepare_fock(4)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.9), range(4))
        with pytest.raises(ValueError, match="block N=4"):
            entropy_series(state, cache, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("multi_block", [False, True])
    def test_phase_overflow_raises(self, rng, multi_block):
        # lambda * t past the float range: exp would return NaN phases,
        # which used to score as zero entropy.
        state = random_triangle_state(rng, 3) if multi_block else prepare_fock(3)
        cache = build_spectral_cache(SystemParams(gamma=1.0), range(4))
        with pytest.raises(ConvergenceError, match="overflows"):
            entropy_series(state, cache, np.array([0.0, 1e308]))

    @pytest.mark.parametrize("multi_block", [False, True])
    def test_phase_check_runs_once_over_the_grid(self, rng, monkeypatch, multi_block):
        # The phases are checked over the whole grid before any part is
        # propagated, so the message names the grid's largest |t|, not the
        # end of the first part that fails (8.16e12 here).
        state = random_triangle_state(rng, 3) if multi_block else prepare_fock(3)
        cache = build_spectral_cache(SystemParams(gamma=1.0), range(4))
        calls = []
        kernel = dynamics._block_amplitudes

        def counting(*args):
            amplitudes = kernel(*args)
            return lambda *part: calls.append(part) or amplitudes(*part)

        monkeypatch.setattr(dynamics, "_block_amplitudes", counting)
        # parts of 5 samples: 5 tables of 4 x 4, or 5 rows of 4 amplitudes
        monkeypatch.setattr(dynamics, "_SLICE_BYTES", 5 * 16 * (16 if multi_block else 4))
        with pytest.raises(ConvergenceError, match=r"overflows on block N=\d at \|t\| = 1e\+14 \("):
            entropy_series(state, cache, np.linspace(0.0, 1e14, 50))
        assert calls == []

    def test_nan_spectrum_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue nan"):
            dynamics._entropy_of_spectra(np.array([[1.0, 0.0], [np.nan, 0.5]]), 2.0)

    @pytest.mark.parametrize("n, samples", [(200, 14_001), (512, 2_045)])
    def test_single_block_memory_bounded_by_block_amplitudes(self, n, samples):
        # A Fock state needs only (part, N + 1) amplitude arrays, and its
        # grid is propagated in parts of at most _SLICE_BYTES (at N = 512,
        # 33 parts of 61 or 62 samples).  A part peaks at its phase factors
        # and V's product with them, next to the complex copy of V and the
        # three output columns: measured 1.86 MiB at N = 200 and 5.04 MiB
        # at N = 512.  The bound allows half a part more, and fails when a
        # part keeps three alive at once; whole chunks of amplitudes took
        # N = 200 to 13.4 MiB.
        state = prepare_fock(n)
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.7), state.occupied_blocks())
        times = np.linspace(0.0, 700.0, samples)
        (s_field, s_atom, _), peak = traced_peak(lambda: entropy_series(state, cache, times))
        assert peak < 2.5 * dynamics._SLICE_BYTES + 16 * (n + 1) ** 2 + 3 * 8 * samples
        assert np.array_equal(s_field, s_atom)
        assert np.all((s_field >= 0.0) & (s_field <= math.log2(n + 1) + 1e-12))

    def test_multi_block_memory_bounded_by_chunk_bytes(self, rng):
        # At n_max = 60 a sample's table takes 16 * 61**2 bytes, so the
        # budget cuts the 3,000 samples into 375 parts of 8 (0.91
        # _SLICE_BYTES a table).  A part's three tables (psi, its conjugate
        # and rho_field) are allocated once, next to the prepared arrays:
        # the packed phases and amplitudes of one part, and the
        # eigenvalues, V^T a(0) and a(0) of 1,891 levels.  The kernel
        # multiplies by the caller's real V, untraced, through numpy's
        # complex cast of one block at a time, at most 61 x 61.  numpy
        # broadcasts the phase product through two buffers of
        # np.getbufsize() entries.  With the output columns and 128 KiB for
        # index arrays and Python objects that bounds the peak at 2.53 MB
        # (measured 2.35 MB).  A kernel that keeps a complex copy of every
        # block's V peaks at 3.61 MB.
        state = random_triangle_state(rng, 60)
        part = dynamics._SLICE_BYTES // (16 * 61**2)
        assert part == 8
        cache = build_spectral_cache(SystemParams(chi=0.02, q=0.8), range(61))
        times = np.linspace(0.0, 40.0, 3000)
        (s_field, s_atom, _), peak = traced_peak(lambda: entropy_series(state, cache, times))
        tables = 3 * 16 * part * 61**2
        prepared = 16 * 61**2 + 16 * 1891 * (2 * part + 3)
        assert peak < tables + prepared + 2 * 16 * np.getbufsize() + 3 * 8 * times.size + 2**17
        assert np.array_equal(s_field, s_atom)
        assert np.all((s_field >= 0.0) & (s_field <= math.log2(61) + 1e-12))

    def test_handed_over_cache_freed_as_copied(self, rng):
        # A cache built in the traced call and handed over keeps only its
        # real eigenvectors, which the kernel multiplies by, so the series
        # peaks at the terms of
        # test_multi_block_memory_bounded_by_chunk_bytes with those
        # eigenvectors traced and the two index arrays of 7,381 levels
        # that live through the series (m and sites) counted apart:
        # measured 7.42 MB against a bound of 7.76 MB.  A kernel that
        # copies every block's V to complex peaks at 12.21 MB, and one
        # that also holds the real V while it copies them at 14.82 MB.
        state = random_triangle_state(rng, 120)
        params = SystemParams(chi=0.02, q=0.8)
        times = np.linspace(0.0, 40.0, 64)
        entropy_series(state, build_spectral_cache(params, range(121)), times[:2])
        (s_field, _, _), peak = traced_peak(lambda: entropy_series(state, build_spectral_cache(params, range(121)), times))
        assert peak < handed_over_bound(121, times.size)
        assert np.all((s_field >= 0.0) & (s_field <= math.log2(121) + 1e-12))

    def test_run_evolve_hands_its_cache_over(self):
        # At alpha_sq 100 (171 levels, 13.4 MB of real eigenvectors) the
        # run peaks at the bound above plus the state's own table,
        # measured 19.11 MB against 19.47 MB.  A kernel that copies every
        # block's V to complex adds 26.9 MB of copies and peaks at
        # 32.36 MB, or at 45.97 MB when the series also holds the real
        # cache.
        initial, params = InitialState("coherent", alpha_sq=100.0), SystemParams(chi=0.01, q=1.0)
        times = np.linspace(0.0, 5.0, 8)
        run_evolve(initial, params, times[:2])
        series, peak = traced_peak(lambda: run_evolve(initial, params, times))
        dim = prepare_coherent(100.0, 1.0).n_max + 1
        assert dim == 171
        assert peak < handed_over_bound(dim, times.size) + 16 * dim**2
        assert np.all((series.s_field >= 0.0) & (series.s_field <= math.log2(dim) + 1e-12))

    @pytest.mark.parametrize("kind", ["one block", "stack", "several blocks"])
    def test_caller_cache_unchanged(self, rng, kind):
        # The kernel, prepared and run, entropy_series and _propagate only
        # read the cache: the caller's dict keeps its keys, its array
        # objects and their bytes, for one block, a sweep's stack of
        # spectra of three q, and several blocks.
        params = SystemParams(chi=0.02, q=0.8)
        state = random_triangle_state(rng, 5) if kind == "several blocks" else prepare_fock(5)
        if kind == "stack":
            cache = {5: eigh_tridiagonal(*build_block(params, 5, np.array([0.6, 0.8, 1.0])))}
        else:
            cache = build_spectral_cache(params, range(7))
        before = {n: (spectrum, [a.tobytes() for a in spectrum]) for n, spectrum in cache.items()}
        times = np.linspace(0.0, 3.0, 5)
        dynamics._block_amplitudes(state, cache, state.occupied_blocks(), times)(times)
        entropy_series(state, cache, times)
        _propagate(state, cache, times)
        assert list(cache) == list(before)
        for n, (vals, vecs) in cache.items():
            (want_vals, want_vecs), want_bytes = before[n]
            assert vals is want_vals and vecs is want_vecs
            assert [vals.tobytes(), vecs.tobytes()] == want_bytes

    def test_chunking_invariant(self, rng, monkeypatch):
        # Every part of two or more samples goes through the same BLAS
        # matrix products, so the series is exactly the same.
        def series(part):
            monkeypatch.setattr(dynamics, "_SLICE_BYTES", part * 16 * (state.n_max + 1) ** 2)
            return entropy_series(state, cache, times)

        state = random_triangle_state(rng, 4)
        cache = build_spectral_cache(SystemParams(chi=0.02, q=0.8), range(5))
        times = np.linspace(0.0, 10.0, 57)
        b = series(2048)
        # 8 leaves no one-sample part (57 = 7 * 8 + 1): the grid is cut
        # into eight near-equal ones
        for part in (3, 5, 8, 10, 19, 30):
            for x, y in zip(series(part), b):
                assert np.array_equal(x, y)
        # n_max 60: the byte budget cuts the grid to 8 samples a part.
        monkeypatch.undo()
        assert dynamics._SLICE_BYTES // (16 * 61**2) == 8
        state = random_triangle_state(rng, 60)
        cache = build_spectral_cache(SystemParams(chi=0.02, q=0.8), range(61))
        times = np.linspace(0.0, 40.0, 300)
        b = entropy_series(state, cache, times)
        for part in (64, 2048):
            for x, y in zip(series(part), b):
                assert np.array_equal(x, y)

    @given(
        state=st.one_of(
            st.integers(min_value=0, max_value=40).map(prepare_fock),
            st.tuples(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.8, max_value=1.0)).map(
                lambda a: prepare_coherent(*a)
            ),
        ),
        q=st.floats(min_value=0.5, max_value=1.0),
        samples=st.integers(min_value=4, max_value=400),
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    # grids whose last sample fell in a one-sample chunk when chunks were
    # 2,048 samples, or 237 on 47 levels
    @example(state=prepare_fock(5), q=0.7, samples=2049, split=0.5)
    @example(state=prepare_fock(40), q=0.7, samples=2049, split=0.5)
    @example(state=prepare_coherent(0.5, 1.0), q=1.0, samples=2049, split=0.5)
    @example(state=prepare_coherent(3.0, 0.9), q=0.9, samples=712, split=0.5)
    @settings(max_examples=40, deadline=None)
    def test_grid_split_moves_no_bit(self, state, q, samples, split):
        # A grid cut into two sub-grids of two or more samples each gives
        # the bits of the whole grid, on one block and on several: no
        # sample of either is propagated as a one-sample product.
        cache = build_spectral_cache(SystemParams(chi=0.01, gamma=1.0, q=q), state.occupied_blocks())
        times = np.linspace(0.0, 50.0, samples)
        cut = 2 + round(split * (samples - 4))
        whole = entropy_series(state, cache, times)
        for w, a, b in zip(whole, entropy_series(state, cache, times[:cut]), entropy_series(state, cache, times[cut:])):
            assert w.tobytes() == np.concatenate([a, b]).tobytes()

    @pytest.mark.parametrize("state", [prepare_fock(5), prepare_coherent(0.5, 1.0)], ids=["one-block", "multi-block"])
    def test_empty_grid(self, state):
        cache = build_spectral_cache(SystemParams(chi=0.01, q=0.9), state.occupied_blocks())
        for column in entropy_series(state, cache, []):
            assert column.shape == (0,) and column.dtype == float

    @given(
        n_total=st.integers(min_value=0, max_value=60),
        seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        samples=st.integers(min_value=1, max_value=60),
        chunk=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_block_series_bits(self, n_total, seed, q, chi, gamma, samples, chunk):
        # The in-place one-block path against the plain expressions on the
        # same chunks: the spectrum keeps the layout of
        # (a.real**2 + a.imag**2)[:, ::-1], whose row sums the entropy and
        # purity reduce in the same order.  A Fock state N, or a random
        # complex vector on block N when a seed is drawn.
        if seed is None:
            state = prepare_fock(n_total)
        else:
            state = random_block_state(np.random.default_rng(seed), n_total, n_total)
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), [n_total])
        times = np.linspace(-3.0, 60.0, samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_SLICE_BYTES", chunk * 16 * (n_total + 1))
            s_field, _, purity = entropy_series(state, cache, times)
        want_s, want_p = [], []
        for sl in dynamics._parts(samples, chunk):
            a = dynamics._block_amplitudes(state, cache, (n_total,), times)(times[sl]).T
            spec = (a.real**2 + a.imag**2)[:, ::-1]
            want_s.append(dynamics._entropy_of_spectra(spec, 2.0))
            want_p.append((spec**2).sum(axis=1))
        assert s_field.tobytes() == np.concatenate(want_s).tobytes()
        assert purity.tobytes() == np.concatenate(want_p).tobytes()

    @given(
        n_total=st.integers(min_value=0, max_value=60),
        seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        chunk=st.integers(min_value=3, max_value=40),
        chunks=st.integers(min_value=0, max_value=3),
        last=st.one_of(st.just(1), st.integers(min_value=1, max_value=40)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_part_cap_moves_no_bit(self, n_total, seed, gamma, chunk, chunks, last, data):
        # A one-block grid is propagated in the fewest near-equal parts of
        # at most _SLICE_BYTES, so none holds one sample: any cap from three
        # samples' worth to a whole grid gives the bits of one whole part.
        # The grid's length may leave a one-sample remainder at a cap of
        # chunk samples (last 1), which the near-equal parts absorb.
        if seed is None:
            state = prepare_fock(n_total)
        else:
            state = random_block_state(np.random.default_rng(seed), n_total, n_total)
        cache = build_spectral_cache(SystemParams(chi=0.02, gamma=gamma, q=0.8), [n_total])
        times = np.linspace(-3.0, 60.0, chunks * chunk + min(last, chunk))
        row_bytes = 16 * (n_total + 1)
        most = data.draw(st.integers(min_value=3, max_value=chunk))
        cap = most * row_bytes + data.draw(st.integers(min_value=0, max_value=row_bytes - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_SLICE_BYTES", times.size * row_bytes)
            want = entropy_series(state, cache, times)
            mp.setattr(dynamics, "_SLICE_BYTES", cap)
            for a, b in zip(entropy_series(state, cache, times), want):
                assert a.tobytes() == b.tobytes()

    @given(
        size=st.integers(min_value=0, max_value=200),
        most=st.integers(min_value=0, max_value=70),
    )
    def test_chunk_parts(self, size, most):
        # Parts tile the grid in order, in the fewest near-equal pieces of
        # at most most samples, but none of one sample from a longer grid,
        # and none at all from an empty one.
        parts = list(dynamics._parts(size, most))
        assert [i for sl in parts for i in range(sl.start, sl.stop)] == list(range(size))
        sizes = [sl.stop - sl.start for sl in parts]
        if size == 0:
            assert sizes == []
        elif size == 1:
            assert sizes == [1]
        else:
            assert max(sizes) - min(sizes) <= 1
            if most >= 3:
                assert len(sizes) == -(-size // most) and max(sizes) <= most and min(sizes) >= 2
            else:
                assert min(sizes) >= 2

    def test_one_eigvalsh_call_per_multi_block_chunk(self, rng, monkeypatch):
        # The field spectrum alone gives S_field and S_atom (Schmidt), one
        # eigvalsh call per part.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        # 8 samples of 5 x 5 tables: 57 samples make eight near-equal parts
        monkeypatch.setattr(dynamics, "_SLICE_BYTES", 8 * 16 * 25)
        state = random_triangle_state(rng, 4)
        cache = build_spectral_cache(SystemParams(chi=0.02, q=0.8), range(5))
        s_field, s_atom, _ = entropy_series(state, cache, np.linspace(0.0, 10.0, 57))
        assert calls == [(7, 5, 5)] * 7 + [(8, 5, 5)]
        assert np.array_equal(s_field, s_atom)

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
def block_supported_states(draw, min_blocks=1):
    """A random state whose weight lies on a random set of at least
    min_blocks blocks."""
    n_max = draw(st.integers(min_value=min_blocks - 1, max_value=8))
    support = draw(st.sets(st.integers(min_value=0, max_value=n_max), min_size=min_blocks))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dim = n_max + 1
    table = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    n_idx, m_idx = np.indices((dim, dim))
    table[~np.isin(n_idx + m_idx, sorted(support))] = 0.0
    table /= np.linalg.norm(table)
    return TwoModeState(n_max=n_max, amplitudes=table), support


class TestSchmidtSpectrum:
    @given(
        drawn=block_supported_states(min_blocks=2),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        times=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_block_matches_oracle(self, drawn, q, chi, gamma, times):
        # A multi-block series takes S_atom from the field spectrum; the
        # oracle reduces the atom mode and diagonalizes it.
        state, _ = drawn
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), state.occupied_blocks())
        assert_series_matches_oracle(state, cache, np.array(times))


def block_by_block(state: TwoModeState, cache, times: np.ndarray) -> np.ndarray:
    """Each occupied block's _block_amplitudes, prepared for that block
    alone, packed side by side: shape (sum(N + 1), len(times))."""
    return np.concatenate([dynamics._block_amplitudes(state, cache, (n,), times)(times) for n in state.occupied_blocks()])


def scattered_tables(state: TwoModeState, cache, times: np.ndarray) -> np.ndarray:
    """Each occupied block's _block_amplitudes scattered straight into
    zeroed dense (len(times), dim, dim) tables."""
    dim = state.n_max + 1
    psi = np.zeros((times.size, dim, dim), dtype=complex)
    for n_total in state.occupied_blocks():
        ms = np.arange(n_total + 1)
        psi[:, n_total - ms, ms] = dynamics._block_amplitudes(state, cache, (n_total,), times)(times).T
    return psi


class TestPackedChunks:
    @given(
        drawn=block_supported_states(min_blocks=2),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        times=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=12),
        part=st.integers(min_value=1, max_value=6),
    )
    # one sample with block 0 occupied: block 0 alone is a lone number,
    # which numpy multiplies in place in the other order
    @example(
        drawn=(random_triangle_state(np.random.default_rng(1), 1), {0, 1}),
        q=1.0, chi=0.0, gamma=0.0, times=[0.5], part=1,
    )
    @settings(max_examples=40, deadline=None)
    def test_packed_blocks_unpack_to_scattered_tables(self, drawn, q, chi, gamma, times, part):
        state, _ = drawn
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), state.occupied_blocks())
        times = np.array(times)
        packed = _propagate(state, cache, times)
        assert packed.shape == (times.size, sum(n + 1 for n in state.occupied_blocks()))
        assert propagated_tables(state, cache, times).tobytes() == scattered_tables(state, cache, times).tobytes()
        # The series' own parts, propagated over all blocks at once into
        # its reused buffers, with a zero time placed among them, give each
        # block's amplitudes from a kernel prepared for that block alone.
        recorded = []
        kernel = dynamics._block_amplitudes

        def recording(*args):
            amplitudes = kernel(*args)

            def record(t, *buffers):
                amps = amplitudes(t, *buffers)
                recorded.append((t.copy(), amps.copy()))
                return amps

            return record

        grid = np.insert(times, times.size // 2, 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_block_amplitudes", recording)
            mp.setattr(dynamics, "_SLICE_BYTES", part * 16 * (state.n_max + 1) ** 2)
            entropy_series(state, cache, grid)
        assert np.concatenate([t for t, _ in recorded]).tobytes() == grid.tobytes()
        for t, amps in recorded:
            assert amps.tobytes() == block_by_block(state, cache, t).tobytes()

    @given(
        drawn=block_supported_states(min_blocks=2),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        samples=st.integers(min_value=1, max_value=40),
        chunk=st.integers(min_value=1, max_value=16),
        few=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_slice_cap_moves_no_bit(self, drawn, q, chi, gamma, samples, chunk, few):
        # The grid is propagated and reduced a part at a time; parts held
        # to two or three samples by a cap below one table, parts of a few
        # samples or of chunk samples give the bits of the whole grid.
        state, _ = drawn
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), state.occupied_blocks())
        times = np.linspace(-5.0, 40.0, samples)
        table_bytes = 16 * (state.n_max + 1) ** 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_SLICE_BYTES", samples * table_bytes)
            want = entropy_series(state, cache, times)
            for cap in (1, few * table_bytes, chunk * table_bytes):
                mp.setattr(dynamics, "_SLICE_BYTES", cap)
                for a, b in zip(entropy_series(state, cache, times), want):
                    assert a.tobytes() == b.tobytes()


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
        flipped = {
            n: (vals, vecs * rng.choice([-1.0, 1.0], size=n + 1))
            for n, (vals, vecs) in cache.items()
        }
        times = np.linspace(-5.0, 40.0, 23)
        for a, b in zip(entropy_series(state, cache, times), entropy_series(state, flipped, times)):
            assert np.array_equal(a, b)
        assert np.array_equal(propagated_tables(state, cache, times), propagated_tables(state, flipped, times))


class TestExcitationPhase:
    @given(
        drawn=block_supported_states(min_blocks=2),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        q=st.floats(min_value=0.3, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_phase_per_excitation_changes_no_entropy(self, drawn, phi, q, chi, gamma):
        # exp(i phi (n + m)) is a product of local unitaries that commutes
        # with H, which conserves n + m: the phase of a coherent amplitude
        # alpha enters a state only this way, so no result depends on it.
        state, _ = drawn
        n_idx, m_idx = np.indices(state.amplitudes.shape)
        phased = TwoModeState(n_max=state.n_max, amplitudes=state.amplitudes * np.exp(1j * phi * (n_idx + m_idx)))
        cache = build_spectral_cache(SystemParams(chi=chi, gamma=gamma, q=q), state.occupied_blocks())
        times = np.linspace(-5.0, 40.0, 23)
        for a, b in zip(entropy_series(state, cache, times), entropy_series(phased, cache, times)):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)
