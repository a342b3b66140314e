"""Entanglement dynamics of a math-type deformed bosonic mode coupled to a
Kerr-nonlinear mode through an excitation-exchange interaction.

The deformed ladder algebra satisfies A A+ - q^2 A+ A = 1, so every
combinatorial factor n is replaced by the bracket [n] = (1 - q^(2n)) /
(1 - q^2).  Total excitation number is conserved, which splits the
Hamiltonian into real symmetric tridiagonal blocks; each block where the
state has weight is diagonalized once and the state is propagated
spectrally.  Entanglement is measured by the von Neumann entropy of either
reduced mode.
"""

from .blocks import BlockMatrix, SystemParams, build_block, total_hamiltonian_dense
from .dynamics import (
    DensityMatrix,
    SpectralCache,
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
from .eigen import BlockSpectrum, eigh_tridiagonal
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
from .qalgebra import (
    CoherentSpec,
    box_n,
    bracket_radius,
    coherent_amplitudes,
    select_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "BlockSpectrum",
    "CoherentSpec",
    "ConvergenceError",
    "DensityMatrix",
    "EntropySeries",
    "InitialState",
    "OptimalQResult",
    "RevivalDip",
    "RevivalReport",
    "SpectralCache",
    "SweepResult",
    "SystemParams",
    "TruncationError",
    "TwoModeState",
    "box_n",
    "bracket_radius",
    "build_block",
    "build_spectral_cache",
    "coherent_amplitudes",
    "dense_reference_evolve",
    "detect_revivals",
    "eigh_tridiagonal",
    "entropy_series",
    "evolve",
    "find_optimal_q",
    "prepare_coherent",
    "prepare_fock",
    "purity",
    "q_grid",
    "reduced_atom",
    "reduced_field",
    "run_evolve",
    "run_sweep_q",
    "select_truncation",
    "time_grid",
    "total_hamiltonian_dense",
    "von_neumann_entropy",
    "__version__",
]
