"""Entanglement dynamics of a math-type deformed bosonic mode coupled to a
Kerr-nonlinear mode through an excitation-exchange interaction.

The deformed ladder algebra satisfies A A+ - q^2 A+ A = 1, so every
combinatorial factor n is replaced by the bracket [n] = (1 - q^(2n)) /
(1 - q^2).  Total excitation number is conserved, which splits the
Hamiltonian into real symmetric tridiagonal blocks; each block where the
state has weight is diagonalized once (blocks.eigh_tridiagonal gives the
(eigenvalues, eigenvectors) pair) and the state is propagated spectrally.
Entanglement is measured by the von Neumann entropy of either reduced mode.
"""

from .blocks import BlockMatrix, SystemParams, build_block, eigh_tridiagonal
from .dynamics import (
    TwoModeState,
    build_spectral_cache,
    dense_reference_evolve,
    entropy_series,
    prepare_coherent,
    prepare_fock,
)
from .exceptions import ConvergenceError, TruncationError
from .harness import (
    EntropySeries,
    InitialState,
    OptimalQResult,
    RevivalDip,
    RevivalReport,
    SweepResult,
    detect_revivals,
    find_optimal_q,
    q_grid,
    run_evolve,
    run_sweep_q,
    time_grid,
)
from .qalgebra import bracket_radius, coherent_amplitudes

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "ConvergenceError",
    "EntropySeries",
    "InitialState",
    "OptimalQResult",
    "RevivalDip",
    "RevivalReport",
    "SweepResult",
    "SystemParams",
    "TruncationError",
    "TwoModeState",
    "bracket_radius",
    "build_block",
    "build_spectral_cache",
    "coherent_amplitudes",
    "dense_reference_evolve",
    "detect_revivals",
    "eigh_tridiagonal",
    "entropy_series",
    "find_optimal_q",
    "prepare_coherent",
    "prepare_fock",
    "q_grid",
    "run_evolve",
    "run_sweep_q",
    "time_grid",
    "__version__",
]
