"""Eigensolver tests.

The tridiagonal block solver (qkerr.blocks.eigh_tridiagonal) is checked
against a from-scratch Sturm-sequence bisection oracle (eigenvalues only),
plus orthonormality and residual bounds that do not presuppose any
reference solver, on hand-picked matrices and, through the engine's own
build_spectral_cache, on random physical blocks.  A stack of blocks is
checked bit for bit against one call per block.  That results do not
depend on the eigenvector signs is a property test in test_dynamics.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkerr.blocks import SystemParams, build_block, eigh_tridiagonal, tridiagonal_dense
from qkerr.dynamics import build_spectral_cache
from qkerr.exceptions import ConvergenceError


def sturm_count(d, e, x):
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x."""
    count = 0
    # Sturm sequence via the shifted LDL^T pivot recurrence; pivot signs
    # count the eigenvalues below the shift.
    pivot = d[0] - x
    if pivot < 0:
        count += 1
    for i in range(1, len(d)):
        if pivot == 0.0:
            pivot = 1e-300
        pivot = (d[i] - x) - e[i - 1] ** 2 / pivot
        if pivot < 0:
            count += 1
    return count


def sturm_eigenvalues(d, e, tol=1e-12):
    """All eigenvalues of the symmetric tridiagonal (d, e) by bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = len(d)
    radius = np.abs(d).max() + 2 * (np.abs(e).max() if len(e) else 0.0) + 1.0
    out = []
    for k in range(n):
        lo, hi = -radius, radius
        # Find the (k+1)-th smallest eigenvalue.
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if sturm_count(d, e, mid) <= k:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def assert_orthonormal_eigenpairs(h, vals, vecs, orth_tol):
    """Ascending eigenvalues, orthonormal columns, and the residual
    |H V - V diag(vals)| within 1e-10 of the norm of H."""
    n = h.shape[0]
    assert np.all(np.diff(vals) >= 0)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=orth_tol)
    resid = h @ vecs - vecs * vals
    assert np.abs(resid).max() <= 1e-10 * max(1.0, np.linalg.norm(h))


class TestTridiagonal:
    def test_two_by_two(self):
        # [[2, 0.5], [0.5, 2]]: eigenvalues 1.5 and 2.5, vectors (1, -/+1)/sqrt(2).
        vals, vecs = eigh_tridiagonal(np.array([2.0, 2.0]), np.array([0.5]))
        np.testing.assert_allclose(vals, [1.5, 2.5], rtol=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(vecs), inv_sqrt2, rtol=1e-12)

    def test_diagonal_input(self):
        d = np.array([3.0, -1.0, 2.0])
        vals, vecs = eigh_tridiagonal(d, np.zeros(2))
        np.testing.assert_allclose(vals, np.sort(d), rtol=1e-15)
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, np.argsort(d)], atol=1e-15)

    def test_single_entry(self):
        vals, vecs = eigh_tridiagonal(np.array([4.2]), np.zeros(0))
        assert vals[0] == 4.2
        assert vecs[0, 0] == 1.0

    def test_fully_degenerate(self):
        vals, vecs = eigh_tridiagonal(np.ones(3), np.zeros(2))
        np.testing.assert_allclose(vals, np.ones(3))
        np.testing.assert_allclose(vecs, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21])
    def test_orthonormal_and_residual(self, rng, n):
        d = rng.standard_normal(n) * 3.0
        e = rng.standard_normal(n - 1)
        vals, vecs = eigh_tridiagonal(d, e)
        assert_orthonormal_eigenpairs(tridiagonal_dense(d, e), vals, vecs, orth_tol=1e-11)
        # Trace preserved.
        assert vals.sum() == pytest.approx(d.sum(), rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_against_sturm_oracle(self, rng, n):
        d = rng.standard_normal(n) * 2.0
        e = rng.standard_normal(n - 1) * 1.5
        vals, _ = eigh_tridiagonal(d, e)
        oracle = sturm_eigenvalues(d, e, tol=1e-13)
        np.testing.assert_allclose(vals, oracle, atol=1e-9)

    def test_physical_blocks_against_oracle(self):
        for q in (1.0, 0.9, 0.7):
            block = build_block(SystemParams(chi=0.01, gamma=1.0, q=q), 7)
            vals, _ = eigh_tridiagonal(block.diag, block.offdiag)
            oracle = sturm_eigenvalues(block.diag, block.offdiag, tol=1e-13)
            np.testing.assert_allclose(vals, oracle, atol=1e-9)

    def test_physical_n200_block_against_oracle(self):
        block = build_block(SystemParams(chi=0.01, gamma=1.0, q=0.9), 200)
        vals, vecs = eigh_tridiagonal(block.diag, block.offdiag)
        # bisection cannot resolve below the float spacing of the spectrum
        # (largest eigenvalue about 600), so the oracle stops at 1e-10
        oracle = sturm_eigenvalues(block.diag, block.offdiag, tol=1e-10)
        np.testing.assert_allclose(vals, oracle, atol=1e-9)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(201), atol=1e-12)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="block N=2"):
            eigh_tridiagonal(np.ones(3), np.ones(2))

    def test_byte_determinism(self, rng):
        d = rng.standard_normal(10)
        e = rng.standard_normal(9)
        vals_a, vecs_a = eigh_tridiagonal(d, e)
        vals_b, vecs_b = eigh_tridiagonal(d.copy(), e.copy())
        assert np.array_equal(vals_a, vals_b)
        assert np.array_equal(vecs_a, vecs_b)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.array([1.0, np.nan]), np.zeros(1))


@st.composite
def tridiagonal_stacks(draw):
    """(diag, offdiag) stacks of shape (*lead, n) and (*lead, n - 1), with
    signed zeros among the entries."""
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0]))

    def array(shape):
        return np.array(draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)

    return array(lead + (n,)), array(lead + (n - 1,))


class TestStacked:
    """A leading stack axis solves every block in one LAPACK call, each
    slice with the bits its own call gives."""

    @given(tridiagonal_stacks())
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_per_slice_calls(self, stack):
        diag, offdiag = stack
        vals, vecs = eigh_tridiagonal(diag, offdiag)
        assert vals.shape == diag.shape and vecs.shape == diag.shape + diag.shape[-1:]
        for index in np.ndindex(diag.shape[:-1]):
            one_vals, one_vecs = eigh_tridiagonal(diag[index], offdiag[index])
            assert vals[index].tobytes() == one_vals.tobytes()
            assert vecs[index].tobytes() == one_vecs.tobytes()

    @given(tridiagonal_stacks())
    @settings(max_examples=100, deadline=None)
    def test_dense_matrix_equals_np_diag_sum(self, stack):
        # placed entries, -0.0 included, give the bits of the np.diag sum
        diag, offdiag = stack
        dense = tridiagonal_dense(diag, offdiag)
        for index in np.ndindex(diag.shape[:-1]):
            d, e = diag[index], offdiag[index]
            assert dense[index].tobytes() == (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).tobytes()

    def test_one_eigh_call(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        eigh_tridiagonal(rng.standard_normal((7, 5)), rng.standard_normal((7, 4)))
        assert calls == [(7, 5, 5)]

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="nonempty"):
            eigh_tridiagonal(np.zeros((3, 0)), np.zeros((3, 0)))
        with pytest.raises(ValueError, match="offdiag must have length 3"):
            eigh_tridiagonal(np.zeros((2, 4)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            eigh_tridiagonal(np.ones((2, 3)), np.array([[1.0, 1.0], [1.0, np.inf]]))

    def test_lapack_failure_names_the_block(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="block N=2"):
            eigh_tridiagonal(np.ones((4, 3)), np.ones((4, 2)))


class TestHermitian:
    """The block solver against the dense Hermitian solver of LAPACK."""

    def test_agrees_with_tridiagonal_on_real_blocks(self):
        block = build_block(SystemParams(chi=0.01, gamma=-0.8, q=0.8), 6)
        vals, _ = eigh_tridiagonal(block.diag, block.offdiag)
        dense_vals = np.linalg.eigvalsh(tridiagonal_dense(block.diag, block.offdiag).astype(complex))
        np.testing.assert_allclose(vals, dense_vals, atol=1e-11)

    def test_trace_preserved_by_both_solvers(self, rng):
        block = build_block(SystemParams(chi=0.02, gamma=0.6, q=0.85), 9)
        vals, _ = eigh_tridiagonal(block.diag, block.offdiag)
        np.testing.assert_allclose(vals.sum(), block.diag.sum(), rtol=1e-11)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        h = (a + a.conj().T) / 2.0
        vals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(vals.sum(), np.trace(h).real, rtol=1e-11)


class TestEngineBlocks:
    @given(
        q=st.one_of(st.just(1.0), st.floats(min_value=0.06, max_value=1.0)),
        chi=st.floats(min_value=0.0, max_value=0.1),
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        n_total=st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_spectral_cache_against_sturm_oracle(self, q, chi, gamma, n_total):
        # The spectrum the propagator uses, from the engine's own path, on a
        # random physical block; its eigenvalues stay below about 100, where
        # floats are 1.4e-14 apart, so the bisection resolves 1e-13.
        params = SystemParams(chi=chi, gamma=gamma, q=q)
        vals, vecs = build_spectral_cache(params, [n_total])[n_total]
        block = build_block(params, n_total)
        oracle = sturm_eigenvalues(block.diag, block.offdiag, tol=1e-13)
        np.testing.assert_allclose(vals, oracle, atol=1e-9)
        assert_orthonormal_eigenpairs(tridiagonal_dense(block.diag, block.offdiag), vals, vecs, orth_tol=1e-12)
