"""Math-type q-deformed oscillator calculus.

The deformed ladder algebra A A+ - q^2 A+A = 1 acts on the number basis as
A|n> = sqrt([n]) |n-1> and A+|n> = sqrt([n+1]) |n+1>, where the deformed
integer (bracket) is

    [n] = (1 - q^(2n)) / (1 - q^2),   0 < q <= 1,

which reduces to n at q = 1 and saturates at 1/(1 - q^2) for q < 1.
The engine reads every bracket from bracket_table: the block Hamiltonian
its couplings, for a stack of q, and the deformed coherent state its
amplitudes c_n = alpha^n / sqrt([n]!), from one row per q, with the
truncation chosen from the same weights (coherent_amplitudes, which takes
the intensity alpha_sq = |alpha|^2 and checks its whole rule).  The
scalar box_n is the reference the tests check that table against.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import TruncationError

# The largest field truncation, Fock or coherent, the package will build.
COHERENT_N_CAP = 512
# Default bound on the omitted coherent weight, relative to the retained.
TAIL_TOL = 1e-10


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
    """Deformed integer [n] = (1 - q^(2n)) / (1 - q^2): the scalar
    reference that bracket_table, the engine's one bracket, is checked
    against.

    Evaluated through expm1/log so that the cancellation in both numerator
    and denominator stays benign arbitrarily close to q = 1; the naive
    expression loses ~5 significant digits already at 1 - q ~ 1e-8.
    """
    n = _check_count(n)
    q = check_deformation(q)
    if q == 1.0:
        return float(n)
    log_q2 = 2.0 * math.log(q)
    return math.expm1(n * log_q2) / math.expm1(log_q2)


def bracket_table(qs, n_max: int) -> np.ndarray:
    """Brackets [0]..[n_max] for each q of the 1-d sequence qs, shape
    (len(qs), n_max + 1): the engine's one bracket, read by every block,
    the dense reference and the coherent walk, each entry with the bits of
    the scalar reference box_n(n, q).

    The first q outside (0, 1] is rejected by check_deformation.  The
    logarithms and exponentials are the scalar math.log and math.expm1 of
    box_n: numpy's can differ from them in the last bit.
    """
    n_max = _check_count(n_max, "n_max")
    if np.ndim(qs) != 1:
        raise ValueError(f"qs must be a 1-d sequence, got shape {np.shape(qs)}")
    qs = np.asarray(qs, dtype=float)
    for q in qs[~((qs > 0.0) & (qs <= 1.0))][:1].tolist():
        check_deformation(q)
    log_q2 = 2.0 * np.array(list(map(math.log, qs.tolist())))
    ns = np.arange(n_max + 1)
    exponents = np.multiply.outer(log_q2, ns)
    table = np.fromiter(map(math.expm1, exponents.ravel().tolist()), float, exponents.size)
    table = table.reshape(exponents.shape)
    # q = 1, the one q with log q = 0, has [n] = n: its zeros divide by 1
    table /= np.array([math.expm1(x) or 1.0 for x in log_q2.tolist()])[:, None]
    table[log_q2 == 0.0] = ns
    return table


def _check_count(n, name: str = "occupation number") -> int:
    """The rule for a count: a Python or numpy integer >= 0, not a bool."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return int(n)


def coherent_amplitudes(alpha_sq: float, q: float, *, tail_tol: float = TAIL_TOL) -> np.ndarray:
    """Unit-norm amplitudes c_0..c_n_max of the deformed coherent state of
    intensity alpha_sq = |alpha|^2.

    alpha is taken real: a phase of alpha would multiply |n; m> by
    exp(i phi (n + m)), a product of local unitaries that commutes with the
    excitation-conserving Hamiltonian, so no entropy or purity could depend
    on it.  alpha_sq must be finite, >= 0 and below the series radius
    bracket_radius(q) = 1/(1 - q^2), beyond which the state is not
    normalizable, and tail_tol must lie in (0, 1).

    Walks c_n = alpha^n / sqrt([n]!) and the unnormalized weights
    w_n = alpha_sq^n / [n]! up from n = 0, on one row of bracket_table,
    [0]..[COHERENT_N_CAP + 2], and stops at the first n_max
    whose omitted tail, bounded geometrically, is at most tail_tol times
    the retained weight.  The truncated vector is normalized numerically
    (the closed-form deformed-exponential prefactor does not normalize,
    since e_q(x) e_q(-x) != 1 for q < 1).  Raises TruncationError if no
    n_max up to COHERENT_N_CAP is large enough, or if the retained weight
    overflows a float first.
    """
    alpha_sq = float(alpha_sq)
    if not math.isfinite(alpha_sq) or alpha_sq < 0.0:
        raise ValueError(f"alpha_sq must be finite and >= 0, got {alpha_sq!r}")
    q = check_deformation(q)
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    radius = bracket_radius(q)
    if alpha_sq >= radius:
        raise ValueError(
            f"coherent intensity {alpha_sq:g} is outside the normalizable "
            f"range [0, {radius:g}) for q={q:g}"
        )
    alpha = math.sqrt(alpha_sq)
    # the last test, at n_max = COHERENT_N_CAP, reads [n_max + 2]
    brackets = bracket_table([q], COHERENT_N_CAP + 2)[0].tolist()
    # one spare slot: a failed test at n_max = COHERENT_N_CAP still writes c_{n_max + 1}
    amps = np.zeros(COHERENT_N_CAP + 2, dtype=complex)
    amps[0] = 1.0
    weight = 1.0
    retained = 1.0
    for n_max in range(COHERENT_N_CAP + 1):
        weight_next = weight * alpha_sq / brackets[n_max + 1]
        # The term ratio alpha_sq / [k + 1] falls with k, so below one it
        # bounds the omitted tail sum_{k > n_max} w_k by a geometric series.
        # Only there can the weights fall, so a weight at 0 gives a tail of 0.
        ratio = alpha_sq / brackets[n_max + 2]
        if ratio >= 1.0:
            tail = math.inf
        else:
            tail = weight_next / (1.0 - ratio)
        if tail <= tail_tol * retained:
            kept = amps[: n_max + 1]
            return kept / np.linalg.norm(kept)
        amps[n_max + 1] = amps[n_max] * alpha / math.sqrt(brackets[n_max + 1])
        weight = weight_next
        retained += weight
        if retained == math.inf:
            raise TruncationError(
                f"coherent weights overflow at n={n_max + 1} before the tail falls to "
                f"{tail_tol:g} for alpha_sq={alpha_sq:g}, q={q:g}"
            )
    raise TruncationError(
        f"no truncation up to n_max={COHERENT_N_CAP} reaches tail weight "
        f"{tail_tol:g} for alpha_sq={alpha_sq:g}, q={q:g}"
    )
