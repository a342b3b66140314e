"""Excitation-number blocks of the coupled field-atom Hamiltonian.

The model couples a math-type q-deformed bosonic mode (ladder operators
A, A+) to an ordinary atomic mode b with a Kerr-type self-interaction:

    H = (A A+ + A+ A)/2  +  omega (b+ b + 1/2) + chi b+^2 b^2
        + gamma (A+ b + A b+)

The exchange term moves one quantum between the modes, so the total count
n + m is conserved and H is block diagonal.  Block N acts on
span{ |n = N - m quanta; m atomic quanta>, m = 0..N } and is real
symmetric tridiagonal there:

    diag[m]    = ([N-m] + [N-m+1])/2 + omega (m + 1/2) + chi m (m - 1)
    offdiag[m-1] = gamma sqrt(m) sqrt([N-m+1])          (m = 1..N)

build_block returns a block as the BlockMatrix pair (diag, offdiag), and
eigh_tridiagonal, the one place that checks a block's shapes and
finiteness, diagonalizes it densely (tridiagonal_dense) with LAPACK:
blocks are at most a few hundred rows.  Given a 1-d stack of q,
build_block returns block N of every q as one stack, (len(qs), N + 1)
and (len(qs), N), from one bracket table (qalgebra.bracket_table); a
block of params.q alone is the one-row case.  eigh_tridiagonal takes a
stack of blocks of one size, (..., n) and (..., n - 1), and solves it in
one LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConvergenceError
# box_n is unused here: the benchmark's tracer wraps the name qkerr.blocks.box_n
from .qalgebra import box_n, bracket_table, check_deformation  # noqa: F401


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters (hbar = 1): atomic frequency omega > 0, Kerr
    strength chi >= 0, real exchange coupling gamma, deformation q."""

    omega: float = 1.0
    chi: float = 0.0
    gamma: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega", "chi", "gamma"):
            value = getattr(self, name)
            if isinstance(value, complex):
                raise TypeError(f"{name} must be real, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega!r}")
        if self.chi < 0.0:
            raise ValueError(f"chi must be >= 0, got {self.chi!r}")
        object.__setattr__(self, "q", check_deformation(self.q))


class BlockMatrix(NamedTuple):
    """Real symmetric tridiagonal block at total excitation N: the N + 1
    diagonal entries (index m = atomic quanta) and the N couplings between
    m - 1 and m, or a stack of such blocks along a leading q axis.  dim
    counts the rows of every block held, N + 1 for one block.
    eigh_tridiagonal(*block) checks them."""

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.size


def build_block(params: SystemParams, n_total: int, qs=None) -> BlockMatrix:
    """Assemble the tridiagonal Hamiltonian block at total excitation n_total.

    With qs, a 1-d sequence of deformations, params.q is replaced by each
    of them: diag has shape (len(qs), n_total + 1) and offdiag
    (len(qs), n_total), each row the bits of the block of that q alone.
    Each q is checked as SystemParams checks it, in order.
    """
    n_total = int(n_total)
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    # brackets[:, k] = [k] for k = 0..n_total+1
    brackets = bracket_table([params.q] if qs is None else qs, n_total + 1)
    m = np.arange(n_total + 1)
    # Huge couplings overflow to inf silently: eigh_tridiagonal rejects it.
    with np.errstate(over="ignore"):
        diag = (
            0.5 * (brackets[:, n_total::-1] + brackets[:, n_total + 1 : 0 : -1])
            + params.omega * (m + 0.5)
            + params.chi * m * (m - 1)
        )
        offdiag = params.gamma * np.sqrt(m[1:]) * np.sqrt(brackets[:, n_total:0:-1])
    return BlockMatrix(diag[0], offdiag[0]) if qs is None else BlockMatrix(diag, offdiag)


def tridiagonal_dense(diag, offdiag) -> np.ndarray:
    """Dense symmetric matrix with diagonal diag and couplings offdiag, or
    the stack of them for diag of shape (..., n) and offdiag (..., n - 1).

    The entries are placed, in strided views of each flattened matrix, not
    summed; adding 0.0 turns -0.0 into 0.0, as summing np.diag matrices
    would, so the matrix is the same bit for bit.
    """
    diag, offdiag = np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)
    n = diag.shape[-1]
    dense = np.zeros(diag.shape + (n,))
    flat = dense.reshape(diag.shape[:-1] + (n * n,))
    flat[..., :: n + 1] = diag + 0.0
    flat[..., 1 :: n + 1] = flat[..., n :: n + 1] = offdiag + 0.0
    return dense


def eigh_tridiagonal(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a real symmetric tridiagonal matrix, or a stack of them.

    diag has the n diagonal entries, offdiag the n - 1 couplings; a leading
    stack axis, diag (..., n) and offdiag (..., n - 1), is solved in one
    numpy.linalg.eigh call, each matrix to the bits of a call of its own.
    Returns the pair (eigenvalues, eigenvectors) of numpy.linalg.eigh:
    eigenvalues ascending, eigenvectors as the columns of an orthogonal
    matrix, with the signs LAPACK gives them (the propagator
    V diag(e^{-i lambda t}) V^T does not depend on them).  A LAPACK
    failure is raised as ConvergenceError naming the block.
    """
    d = np.asarray(diag, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError(f"diag must have a nonempty last axis, got shape {d.shape}")
    n = d.shape[-1]
    e = np.asarray(offdiag, dtype=float)
    if e.shape != d.shape[:-1] + (n - 1,):
        raise ValueError(f"offdiag must have length {n - 1}, got shape {e.shape}")
    dense = tridiagonal_dense(d, e)
    if not np.isfinite(dense).all():
        raise ValueError("tridiagonal entries must be finite")
    try:
        vals, vecs = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolve failed on block N={n - 1}: {exc}") from exc
    return vals, vecs
