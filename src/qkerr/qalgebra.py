"""Math-type q-deformed oscillator calculus.

The deformed ladder algebra A A+ - q^2 A+A = 1 acts on the number basis as
A|n> = sqrt([n]) |n-1> and A+|n> = sqrt([n+1]) |n+1>, where the deformed
integer (bracket) is

    [n] = (1 - q^(2n)) / (1 - q^2),   0 < q <= 1,

which reduces to n at q = 1 and saturates at 1/(1 - q^2) for q < 1.
The block Hamiltonian takes its couplings from the bracket, and the
deformed coherent state its amplitudes c_n = alpha^n / sqrt([n]!), with
the truncation chosen from the same weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import TruncationError

# The largest coherent-state truncation the package will ever build.
COHERENT_N_CAP = 512


def check_deformation(q: float) -> float:
    """Validate a deformation parameter and return it as a float.

    The algebra is defined for 0 < q <= 1 (q = 1 is the ordinary
    oscillator).  Values outside that range raise ValueError.
    """
    q = float(q)
    if not math.isfinite(q) or not (0.0 < q <= 1.0):
        raise ValueError(f"deformation parameter must lie in (0, 1], got {q!r}")
    return q


def bracket_radius(q: float) -> float:
    """Supremum 1/(1 - q^2) of the brackets [n], infinite at q = 1.

    It is also the convergence radius of sum_n x^n / [n]!, so a coherent
    intensity must stay below it for the state to be normalizable.
    """
    q = check_deformation(q)
    if q == 1.0:
        return math.inf
    # 1 - q^2 evaluated as -expm1(2 ln q) to keep accuracy for q near 1
    return -1.0 / math.expm1(2.0 * math.log(q))


def box_n(n: int, q: float) -> float:
    """Deformed integer [n] = (1 - q^(2n)) / (1 - q^2).

    Evaluated through expm1/log so that the cancellation in both numerator
    and denominator stays benign arbitrarily close to q = 1; the naive
    expression loses ~5 significant digits already at 1 - q ~ 1e-8.
    """
    n = _check_count(n)
    q = check_deformation(q)
    if q == 1.0:
        return float(n)
    if n == 0:
        return 0.0
    log_q2 = 2.0 * math.log(q)
    return math.expm1(n * log_q2) / math.expm1(log_q2)


@dataclass(frozen=True)
class CoherentSpec:
    """Deformed coherent-state parameters: intensity |alpha|^2 and phase.

    The amplitude profile is c_n proportional to alpha^n / sqrt([n]!), with
    alpha = sqrt(alpha_sq) * exp(i alpha_phase).  The intensity must stay
    below the series radius 1/(1 - q^2) of the deformation in use; that is
    checked where q is known (coherent_amplitudes / select_truncation).
    """

    alpha_sq: float
    alpha_phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_sq", float(self.alpha_sq))
        object.__setattr__(self, "alpha_phase", float(self.alpha_phase))
        if not math.isfinite(self.alpha_sq) or self.alpha_sq < 0.0:
            raise ValueError(f"alpha_sq must be finite and >= 0, got {self.alpha_sq!r}")
        if not math.isfinite(self.alpha_phase):
            raise ValueError(f"alpha_phase must be finite, got {self.alpha_phase!r}")

    @property
    def alpha(self) -> complex:
        return math.sqrt(self.alpha_sq) * complex(
            math.cos(self.alpha_phase), math.sin(self.alpha_phase)
        )


def _check_count(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"occupation number must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"occupation number must be >= 0, got {n}")
    return int(n)


def _check_radius(spec: CoherentSpec, q: float) -> None:
    radius = bracket_radius(q)
    if spec.alpha_sq >= radius:
        raise ValueError(
            f"coherent intensity {spec.alpha_sq:g} is outside the normalizable "
            f"range [0, {radius:g}) for q={q:g}"
        )


def _tail_bound(weight_next: float, alpha_sq: float, q: float, n_next: int) -> float:
    """Geometric upper bound on sum_{k >= n_next} alpha_sq^k / [k]!.

    weight_next is the first omitted weight.  The term ratio
    alpha_sq / [k+1] is decreasing in k, so once it is below one the tail
    is dominated by a geometric series; before that the bound is infinite.
    """
    if weight_next == 0.0:
        return 0.0
    ratio = alpha_sq / box_n(n_next + 1, q)
    if ratio >= 1.0:
        return math.inf
    return weight_next / (1.0 - ratio)


def select_truncation(spec: CoherentSpec, q: float, tail_tol: float = 1e-10) -> int:
    """Smallest n_max whose omitted coherent weight is below tail_tol.

    The unnormalized weights are w_n = alpha_sq^n / [n]!; the omitted tail
    beyond n_max is bounded geometrically and compared against
    tail_tol * (retained weight).  Raises TruncationError if no n_max up to
    COHERENT_N_CAP is small enough.
    """
    q = check_deformation(q)
    if not (tail_tol > 0.0):
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
    _check_radius(spec, q)
    if spec.alpha_sq == 0.0:
        return 0
    weight = 1.0
    retained = 1.0
    for n_max in range(COHERENT_N_CAP + 1):
        weight_next = weight * spec.alpha_sq / box_n(n_max + 1, q)
        if _tail_bound(weight_next, spec.alpha_sq, q, n_max + 1) <= tail_tol * retained:
            return n_max
        weight = weight_next
        retained += weight
    raise TruncationError(
        f"no truncation up to n_max={COHERENT_N_CAP} reaches tail weight "
        f"{tail_tol:g} for alpha_sq={spec.alpha_sq:g}, q={q:g}"
    )


def coherent_amplitudes(
    spec: CoherentSpec, q: float, n_max: int, tail_tol: float = 1e-10
) -> np.ndarray:
    """Unit-norm amplitude vector of the deformed coherent state on 0..n_max.

    Builds c_n = alpha^n / sqrt([n]!) iteratively and normalizes the
    truncated vector numerically (the closed-form deformed-exponential
    prefactor does not normalize, since e_q(x) e_q(-x) != 1 for q < 1).
    Raises TruncationError when the unnormalized tail weight beyond n_max
    exceeds tail_tol of the total.
    """
    q = check_deformation(q)
    n_max = _check_count(n_max)
    if not (tail_tol > 0.0):
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
    _check_radius(spec, q)

    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = 1.0
    weight = 1.0
    retained = 1.0
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * spec.alpha / math.sqrt(box_n(n, q))
        weight *= spec.alpha_sq / box_n(n, q)
        retained += weight
    weight_next = weight * spec.alpha_sq / box_n(n_max + 1, q)
    tail = _tail_bound(weight_next, spec.alpha_sq, q, n_max + 1)
    if tail > tail_tol * retained:
        raise TruncationError(
            f"n_max={n_max} is too small: omitted coherent weight is "
            f"{tail / retained:.3e} of the total (limit {tail_tol:g})"
        )
    return amps / np.linalg.norm(amps)
