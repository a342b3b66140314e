"""Independent reference for the benchmark's correctness checks.

Written with numpy alone from the model's formulas, sharing no code with
qkerr:

    [n]            = (1 - q^(2n)) / (1 - q^2)   ([n] = n at q = 1)
    block N, diag  = ([N-m] + [N-m+1])/2 + omega (m + 1/2) + chi m (m - 1)
    block N, off   = gamma sqrt(m) sqrt([N-m+1])           (m = 1..N)
    a_N(t)         = V exp(-i lambda t) V^T a_N(0)   per block (numpy eigh)
    rho_field      = psi psi^+,  S = -sum p log2 p over its eigenvalues.

A number state |N; 0> lives in block N alone, so its rho_field is diagonal
and S is the Shannon entropy of |a_m(t)|^2; no reduced-state eigensolve is
needed.  Coherent states c_n ~ alpha^n / sqrt([n]!) are truncated far
tighter (1e-14) than qkerr's default 1e-10, so the reference stays the
better of the two.

``self_check`` tests the oracle itself against the closed-form 50:50
beam-splitter entropy and against ``qkerr.dense_reference_evolve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Omitted coherent weight of the reference truncation, relative to the total.
COHERENT_TAIL = 1e-14
# Paper values for the N = 5 beam-splitter optimum (gamma t = -pi/4, chi = 0).
PAPER_Q_STAR_N5 = 0.9372
PAPER_S_STAR_N5 = 2.2434
PAPER_BINOMIAL_N5 = 2.1982


@dataclass(frozen=True)
class Model:
    q: float
    omega: float = 1.0
    chi: float = 0.0
    gamma: float = 1.0


def bracket(n, q: float) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if q == 1.0:
        return n
    return (1.0 - q ** (2.0 * n)) / (1.0 - q * q)


def block(model: Model, n_total: int) -> np.ndarray:
    """Dense (N+1) x (N+1) Hamiltonian block on |N - m; m>, m = 0..N."""
    m = np.arange(n_total + 1, dtype=float)
    h = np.diag(
        0.5 * (bracket(n_total - m, model.q) + bracket(n_total - m + 1, model.q))
        + model.omega * (m + 0.5)
        + model.chi * m * (m - 1.0)
    )
    mm = m[1:]
    off = model.gamma * np.sqrt(mm) * np.sqrt(bracket(n_total - mm + 1, model.q))
    return h + np.diag(off, 1) + np.diag(off, -1)


def propagate_block(model: Model, n_total: int, a0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Block amplitudes a_m(t), shape (len(times), N+1)."""
    vals, vecs = np.linalg.eigh(block(model, n_total))
    modes = vecs.T @ a0
    return (vecs @ (np.exp(-1j * np.outer(vals, times)) * modes[:, None])).T


def shannon_bits(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    logs = np.log2(np.where(p > 0.0, p, 1.0))
    return -(p * logs).sum(axis=-1)


def fock_entropy(model: Model, fock_n: int, times) -> np.ndarray:
    """S_field(t) in bits for the initial state |fock_n; 0>."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a0 = np.zeros(fock_n + 1, dtype=complex)
    a0[0] = 1.0
    a_t = propagate_block(model, fock_n, a0, times)
    return shannon_bits(np.abs(a_t) ** 2)


def coherent_field(alpha_sq: float, q: float, tail: float = COHERENT_TAIL) -> np.ndarray:
    """Normalized c_n ~ alpha^n / sqrt([n]!) cut where the rest is below tail."""
    weights = [1.0]
    total = 1.0
    while True:
        n = len(weights)
        ratio = alpha_sq / float(bracket(n, q))
        nxt = weights[-1] * ratio
        # the term ratio alpha_sq/[k] falls with k, so once below one the
        # omitted tail is bounded by a geometric series
        if ratio < 1.0 and nxt / (1.0 - ratio) <= tail * total:
            break
        if n > 4096:
            raise ValueError("coherent reference truncation did not converge")
        weights.append(nxt)
        total += nxt
    amps = np.sqrt(np.array(weights))
    return amps / np.linalg.norm(amps)


def evolve_table(model: Model, field: np.ndarray, times) -> np.ndarray:
    """psi[k, n, m] at each time for the initial state sum_n c_n |n; 0>."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    dim = field.size
    psi = np.zeros((times.size, dim, dim), dtype=complex)
    for n_total in range(dim):
        if field[n_total] == 0.0:
            continue
        a0 = np.zeros(n_total + 1, dtype=complex)
        a0[0] = field[n_total]
        m = np.arange(n_total + 1)
        psi[:, n_total - m, m] = propagate_block(model, n_total, a0, times)
    return psi


def field_entropy(psi: np.ndarray) -> np.ndarray:
    """S_field in bits of amplitude tables psi[k, n, m]: trace out the atom."""
    rho_field = psi @ psi.conj().transpose(0, 2, 1)
    return shannon_bits(np.linalg.eigvalsh(rho_field))


def coherent_entropy(model: Model, alpha_sq: float, times) -> tuple[np.ndarray, int]:
    """S_field(t) in bits and the reference truncation n_max."""
    field = coherent_field(alpha_sq, model.q)
    return field_entropy(evolve_table(model, field, times)), field.size - 1


def binomial_entropy(fock_n: int) -> float:
    """Closed form for a 50:50 split of |N; 0> (q = 1, chi = 0, gamma t = -pi/4)."""
    p = np.array([math.comb(fock_n, k) for k in range(fock_n + 1)], dtype=float) / 2.0**fock_n
    return float(shannon_bits(p))


def maximize_fock_entropy(fock_n: int, qs: np.ndarray, t: float, omega: float, chi: float, gamma: float):
    """(q*, S*) maximizing S_field(q) at time t: grid argmax, then golden section."""

    def s_of(q: float) -> float:
        return float(fock_entropy(Model(q=q, omega=omega, chi=chi, gamma=gamma), fock_n, t)[0])

    values = np.array([s_of(float(q)) for q in qs])
    best = int(np.argmax(values))
    if best in (0, qs.size - 1):
        return float(qs[best]), float(values[best])
    lo, hi = float(qs[best - 1]), float(qs[best + 1])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    sa, sb = s_of(a), s_of(b)
    while hi - lo > 1e-12:
        if sa >= sb:
            hi, b, sb = b, a, sa
            a = hi - inv_phi * (hi - lo)
            sa = s_of(a)
        else:
            lo, a, sa = a, b, sb
            b = lo + inv_phi * (hi - lo)
            sb = s_of(b)
    q_star = 0.5 * (lo + hi)
    return q_star, s_of(q_star)


def self_check() -> list[str]:
    """Problems found when checking the oracle against its two references."""
    problems = []
    bs = Model(q=1.0, omega=1.0, chi=0.0, gamma=-math.pi / 4.0)
    closed = binomial_entropy(5)
    ours = float(fock_entropy(bs, 5, 1.0)[0])
    if round(closed, 4) != PAPER_BINOMIAL_N5 or abs(ours - closed) > 1e-12:
        problems.append(f"beam splitter N=5: oracle {ours!r}, closed form {closed!r}")

    q_star, s_star = maximize_fock_entropy(5, np.linspace(0.5, 1.0, 200), 1.0, 1.0, 0.0, -math.pi / 4.0)
    if round(q_star, 4) != PAPER_Q_STAR_N5 or round(s_star, 4) != PAPER_S_STAR_N5:
        problems.append(f"optimal deformation N=5: oracle q*={q_star!r}, S*={s_star!r}")

    import qkerr

    rng = np.random.default_rng(8)
    for q, chi, gamma in ((1.0, 0.0, -math.pi / 4.0), (0.7, 0.01, 1.0), (0.99, 0.05, -1.1)):
        model = Model(q=q, omega=1.0, chi=chi, gamma=gamma)
        params = qkerr.SystemParams(omega=1.0, chi=chi, gamma=gamma, q=q)
        for n_max in (1, 4, 8):
            field = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
            field /= np.linalg.norm(field)
            amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
            amps[:, 0] = field
            t = float(rng.uniform(-3.0, 3.0))
            ref = qkerr.dense_reference_evolve(qkerr.TwoModeState(n_max=n_max, amplitudes=amps), params, t)
            gap = float(np.abs(evolve_table(model, field, t)[0] - ref.amplitudes).max())
            if gap > 1e-10:
                problems.append(f"dense reference q={q} n_max={n_max}: amplitude gap {gap:.2e}")
    return problems
