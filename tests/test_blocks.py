"""Block-construction tests.

Hand-worked reference entries, using [n] = (1 - q^(2n)) / (1 - q^2):

    N = 1, q = 1, omega = 1, chi = 0, gamma = g:
        d_0 = ([1] + [2])/2 + 1/2 = 3/2 + 1/2 = 2
        d_1 = ([0] + [1])/2 + 3/2 = 1/2 + 3/2 = 2
        off = g * sqrt(1) * sqrt([1]) = g
        eigenvalues 2 -/+ g.

    N = 1, q < 1: [1] = 1 and [2] = 1 + q^2, so
        d_0 = ([1] + [2])/2 + 1/2 = (3 + q^2)/2.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkerr.blocks import SystemParams, build_block, tridiagonal_dense
from qkerr.dynamics import _lattice_hamiltonian
from qkerr.qalgebra import box_n


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams()
        assert (p.omega, p.chi, p.gamma, p.q) == (1.0, 0.0, 1.0, 1.0)

    def test_rejects_complex_gamma(self):
        with pytest.raises(TypeError):
            SystemParams(gamma=1.0j)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            SystemParams(omega=0.0)

    def test_rejects_negative_chi(self):
        with pytest.raises(ValueError):
            SystemParams(chi=-0.01)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            SystemParams(q=1.2)
        with pytest.raises(ValueError):
            SystemParams(q=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SystemParams(gamma=math.inf)
        with pytest.raises(ValueError):
            SystemParams(gamma=math.nan)
        with pytest.raises(ValueError):
            SystemParams(omega=math.nan)


class TestBuildBlock:
    def test_vacuum_block(self):
        block = build_block(SystemParams(), 0)
        assert block.dim == 1
        # the block is the pair itself
        diag, offdiag = block
        assert diag is block.diag and offdiag is block.offdiag
        # d_0 = ([0] + [1])/2 + omega/2 = 1/2 + 1/2 = 1.
        np.testing.assert_allclose(diag, [1.0])
        assert offdiag.shape == (0,)

    def test_n1_non_deformed(self):
        g = -math.pi / 4
        block = build_block(SystemParams(gamma=g), 1)
        np.testing.assert_allclose(block.diag, [2.0, 2.0])
        np.testing.assert_allclose(block.offdiag, [g])
        evals = np.linalg.eigvalsh(tridiagonal_dense(block.diag, block.offdiag))
        np.testing.assert_allclose(evals, [2.0 - abs(g), 2.0 + abs(g)], rtol=1e-14)

    def test_n1_deformed_diagonal(self):
        q = 0.7
        block = build_block(SystemParams(q=q), 1)
        assert block.diag[0] == pytest.approx((3.0 + q * q) / 2.0, rel=1e-15)
        assert block.diag[1] == pytest.approx(2.0, rel=1e-15)

    def test_harmonic_block_is_resonant(self):
        # q = 1, omega = 1, chi = 0: d_m = (N - m + 1/2) + (m + 1/2) = N + 1.
        for n_total in (0, 1, 4, 9):
            block = build_block(SystemParams(), n_total)
            np.testing.assert_allclose(block.diag, np.full(n_total + 1, n_total + 1.0))

    def test_kerr_shifts_diagonal(self):
        chi = 0.01
        plain = build_block(SystemParams(), 5)
        kerr = build_block(SystemParams(chi=chi), 5)
        m = np.arange(6)
        np.testing.assert_allclose(kerr.diag - plain.diag, chi * m * (m - 1), atol=1e-14)

    def test_coupling_elements(self):
        q = 0.8
        gamma = 1.3
        block = build_block(SystemParams(gamma=gamma, q=q), 3)
        expected = [
            gamma * math.sqrt(m) * math.sqrt(box_n(3 - m + 1, q)) for m in range(1, 4)
        ]
        np.testing.assert_allclose(block.offdiag, expected, rtol=1e-15)

    def test_rejects_negative_block(self):
        with pytest.raises(ValueError):
            build_block(SystemParams(), -1)


_QS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_BAD_QS = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), st.just(math.nan))


class TestStackedBuildBlock:
    """build_block over a stack of q: each row is the block of that q alone."""

    @given(
        n_total=st.integers(min_value=0, max_value=40),
        qs=st.lists(_QS, min_size=1, max_size=6),
        omega=st.floats(min_value=0.2, max_value=3.0),
        chi=st.floats(min_value=0.0, max_value=0.2),
        gamma=st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([-0.0, 6e307, -1e308])),
    )
    @example(n_total=0, qs=[0.5, 1.0], omega=1.0, chi=0.0, gamma=1.0)
    @example(n_total=5, qs=[0.5, 1.0 - 1e-15, 1.0], omega=1.0, chi=0.01, gamma=-0.0)
    # the couplings of q = 1 overflow to inf, those of q = 0.5 do not
    @example(n_total=5, qs=[0.5, 0.9, 1.0], omega=1.0, chi=0.0, gamma=6e307)
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_single_q_blocks(self, n_total, qs, omega, chi, gamma):
        params = SystemParams(omega=omega, chi=chi, gamma=gamma)
        stack = build_block(params, n_total, qs)
        assert stack.diag.shape == (len(qs), n_total + 1)
        assert stack.offdiag.shape == (len(qs), n_total)
        for row, q in enumerate(qs):
            block = build_block(replace(params, q=q), n_total)
            assert stack.diag[row].tobytes() == block.diag.tobytes()
            assert stack.offdiag[row].tobytes() == block.offdiag.tobytes()

    @given(good=st.lists(_QS, max_size=4), bad=_BAD_QS, rest=st.lists(st.floats(), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_bad_q_raises_the_system_params_message(self, good, bad, rest):
        with pytest.raises(ValueError) as expected:
            SystemParams(q=bad)
        with pytest.raises(ValueError) as got:
            build_block(SystemParams(), 3, good + [bad] + rest)
        assert str(got.value) == str(expected.value)


def _over_lattice_params(test):
    """Run test over drawn lattice parameters, the hand-picked sets first."""
    test = settings(max_examples=60, deadline=None)(test)
    test = example(n_max=6, q=0.85, omega=1.0, chi=0.02, gamma=0.9)(test)
    test = example(n_max=5, q=0.9, omega=1.0, chi=0.01, gamma=1.1)(test)
    test = example(n_max=5, q=0.75, omega=1.0, chi=0.015, gamma=-0.6)(test)
    return given(
        n_max=st.integers(min_value=0, max_value=10),
        q=st.floats(min_value=0.05, max_value=1.0, exclude_min=True),
        omega=st.floats(min_value=0.2, max_value=3.0),
        chi=st.floats(min_value=0.0, max_value=0.2),
        gamma=st.floats(min_value=-2.0, max_value=2.0),
    )(test)


class TestDenseHamiltonian:
    # The dense reference assembles the lattice from the operator actions;
    # both coupling directions share one product, and each element keeps
    # build_block's factor order, so every comparison here is exact.

    @_over_lattice_params
    def test_exact_symmetry(self, n_max, q, omega, chi, gamma):
        h, _, _ = _lattice_hamiltonian(SystemParams(omega=omega, chi=chi, gamma=gamma, q=q), n_max)
        assert np.array_equal(h, h.T)

    @_over_lattice_params
    def test_cross_block_elements_vanish(self, n_max, q, omega, chi, gamma):
        h, n, m = _lattice_hamiltonian(SystemParams(omega=omega, chi=chi, gamma=gamma, q=q), n_max)
        totals = n + m
        assert not np.any(h[totals[:, None] != totals[None, :]])

    @_over_lattice_params
    def test_matches_block_matrices(self, n_max, q, omega, chi, gamma):
        params = SystemParams(omega=omega, chi=chi, gamma=gamma, q=q)
        h, n, m = _lattice_hamiltonian(params, n_max)
        for n_total in range(n_max + 1):
            idx = np.flatnonzero(n + m == n_total)
            idx = idx[np.argsort(m[idx])]
            block = build_block(params, n_total)
            np.testing.assert_array_equal(h[np.ix_(idx, idx)], tridiagonal_dense(block.diag, block.offdiag))
