"""Eigensolver tests.

The tridiagonal block solver is checked against a from-scratch
Sturm-sequence bisection oracle (eigenvalues only), plus orthonormality and
residual bounds that do not presuppose any reference solver.  That results
do not depend on the eigenvector signs is a property test in
test_dynamics.py.
"""

import numpy as np
import pytest

from qkerr.blocks import SystemParams, build_block, block_matrix_dense
from qkerr.eigen import eigh_tridiagonal
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


class TestTridiagonal:
    def test_two_by_two(self):
        # [[2, 0.5], [0.5, 2]]: eigenvalues 1.5 and 2.5, vectors (1, -/+1)/sqrt(2).
        spec = eigh_tridiagonal(np.array([2.0, 2.0]), np.array([0.5]))
        np.testing.assert_allclose(spec.eigenvalues, [1.5, 2.5], rtol=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(spec.eigenvectors), inv_sqrt2, rtol=1e-12)

    def test_diagonal_input(self):
        d = np.array([3.0, -1.0, 2.0])
        spec = eigh_tridiagonal(d, np.zeros(2))
        np.testing.assert_allclose(spec.eigenvalues, np.sort(d), rtol=1e-15)
        np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(3)[:, np.argsort(d)], atol=1e-15)

    def test_single_entry(self):
        spec = eigh_tridiagonal(np.array([4.2]), np.zeros(0))
        assert spec.eigenvalues[0] == 4.2
        assert spec.eigenvectors[0, 0] == 1.0

    def test_fully_degenerate(self):
        spec = eigh_tridiagonal(np.ones(3), np.zeros(2))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(3))
        np.testing.assert_allclose(spec.eigenvectors, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21])
    def test_orthonormal_and_residual(self, rng, n):
        d = rng.standard_normal(n) * 3.0
        e = rng.standard_normal(n - 1)
        spec = eigh_tridiagonal(d, e)
        v = spec.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-11)
        h = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        resid = h @ v - v * spec.eigenvalues
        bound = 1e-10 * max(1.0, np.linalg.norm(h))
        assert np.abs(resid).max() <= bound
        # Eigenvalues ascending.
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        # Trace preserved.
        assert spec.eigenvalues.sum() == pytest.approx(d.sum(), rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_against_sturm_oracle(self, rng, n):
        d = rng.standard_normal(n) * 2.0
        e = rng.standard_normal(n - 1) * 1.5
        spec = eigh_tridiagonal(d, e)
        oracle = sturm_eigenvalues(d, e, tol=1e-13)
        np.testing.assert_allclose(spec.eigenvalues, oracle, atol=1e-9)

    def test_physical_blocks_against_oracle(self):
        for q in (1.0, 0.9, 0.7):
            block = build_block(SystemParams(chi=0.01, gamma=1.0, q=q), 7)
            spec = eigh_tridiagonal(block.diag, block.offdiag)
            oracle = sturm_eigenvalues(block.diag, block.offdiag, tol=1e-13)
            np.testing.assert_allclose(spec.eigenvalues, oracle, atol=1e-9)

    def test_physical_n200_block_against_oracle(self):
        block = build_block(SystemParams(chi=0.01, gamma=1.0, q=0.9), 200)
        spec = eigh_tridiagonal(block.diag, block.offdiag)
        # bisection cannot resolve below the float spacing of the spectrum
        # (largest eigenvalue about 600), so the oracle stops at 1e-10
        oracle = sturm_eigenvalues(block.diag, block.offdiag, tol=1e-10)
        np.testing.assert_allclose(spec.eigenvalues, oracle, atol=1e-9)
        v = spec.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(201), atol=1e-12)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="block N=2"):
            eigh_tridiagonal(np.ones(3), np.ones(2))

    def test_byte_determinism(self, rng):
        d = rng.standard_normal(10)
        e = rng.standard_normal(9)
        a = eigh_tridiagonal(d, e)
        b = eigh_tridiagonal(d.copy(), e.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.array([1.0, np.nan]), np.zeros(1))


class TestHermitian:
    """The block solver against the dense Hermitian solver of LAPACK."""

    def test_agrees_with_tridiagonal_on_real_blocks(self):
        block = build_block(SystemParams(chi=0.01, gamma=-0.8, q=0.8), 6)
        spec = eigh_tridiagonal(block.diag, block.offdiag)
        vals = np.linalg.eigvalsh(block_matrix_dense(block).astype(complex))
        np.testing.assert_allclose(spec.eigenvalues, vals, atol=1e-11)

    def test_trace_preserved_by_both_solvers(self, rng):
        block = build_block(SystemParams(chi=0.02, gamma=0.6, q=0.85), 9)
        spec = eigh_tridiagonal(block.diag, block.offdiag)
        np.testing.assert_allclose(
            spec.eigenvalues.sum(), block.diag.sum(), rtol=1e-11
        )
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        h = (a + a.conj().T) / 2.0
        vals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(vals.sum(), np.trace(h).real, rtol=1e-11)
