"""Closed forms of the undeformed, Kerr-free model at every scale.

At q = 1 and chi = 0, (A A+ + A+ A)/2 = a+ a + 1/2, so the model is a
linear, detuned beam splitter: each field quantum independently moves to
the atomic mode with the Rabi probability

    p(t) = gamma^2 sin^2(Omega t) / Omega^2,  Omega = sqrt(gamma^2 + (omega - 1)^2 / 4).

*   Block N is a spin-N/2 rotation: its N + 1 levels are equally spaced
    by 2 Omega = sqrt((omega - 1)^2 + 4 gamma^2), N up to the cap, from
    build_block and eigh_tridiagonal alone and as the q = 1 row of a
    stacked solve with other q.
*   A number state |N, 0> keeps the Schmidt distribution Binomial(N, p(t)),
    so S_field is that distribution's Shannon entropy.  N runs to the
    512-quanta cap: from N = 181 on, the one-block path's complex copy of V
    alone passes _SLICE_BYTES.  The same form is checked through the q
    sweep at q = 1, alone and inside a stack of q.
*   A coherent state |alpha, 0> stays a product of coherent states.  Its
    truncation keeps all but a weight eps <= tail_tol, and the truncated
    state's overlap with the exact product state is sqrt(1 - eps), so its
    largest Schmidt coefficient is at least 1 - eps and

        S <= h2(eps) + eps log2(d - 1)

    on d field levels.  alpha_sq runs to 100 (171 levels, the multi-block
    path).

Tolerances come from an error model, not from the observed gaps.  The
tridiagonal eigensolver is backward stable: its (V, lambda) are exact for
H + E with ||E|| <= n eps ||H|| on n levels, and V is orthogonal to n eps.
So each eigenvalue lies within n eps ||H|| of the exact one (Weyl), and
build_block's entries, each rounded by at most 3 eps, move it by at most
3 eps ||H|| more (level_error).  V e^{-i lambda t} V^T a(0) lies within 2 n eps Lambda |t| + 4 n eps of
e^{-iHt} a(0), Lambda = max |lambda|, counting the phase rounding
eps |lambda t|, V's orthogonality and the two products.  The binomial
reference rounds its angle Omega t, with N Omega <= Lambda, and its
probabilities by at most 3 eps Lambda |t| + (n + 3) eps, so both sides
together lie within delta = 4 n eps (Lambda |t| + 2) (rounding_distance),
with Lambda bounded by Gershgorin's discs.  Spectra whose amplitude
vectors lie delta apart differ by a total variation T <= delta (1 + delta
/ 2), and the Fannes-Audenaert inequality (Audenaert, J. Phys. A 40, 8127
(2007)) bounds their entropies' gap by T log2(d - 1) + h2(T)
(entropy_gap).  Each entropy sum of d terms adds (d + 2) eps log2(d)
more (sum_rounding).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkerr import dynamics
from qkerr.blocks import SystemParams, build_block, eigh_tridiagonal
from qkerr.dynamics import build_spectral_cache, entropy_series, prepare_coherent, prepare_fock
from qkerr.harness import InitialState, run_evolve, run_sweep_q

EPS = sys.float_info.epsilon


def binomial_entropy(n: int, omega: float, gamma: float, t: float) -> float:
    """Shannon entropy in bits of Binomial(n, p(t)), with 1 - p formed as
    (gamma^2 cos^2(Omega t) + (omega - 1)^2 / 4) / Omega^2, so that neither
    probability loses digits near 0 or 1."""
    omega_sq = gamma**2 + (omega - 1.0) ** 2 / 4.0
    if omega_sq == 0.0:
        return 0.0
    x = math.sqrt(omega_sq) * t
    p = gamma**2 * math.sin(x) ** 2 / omega_sq
    r = (gamma**2 * math.cos(x) ** 2 + (omega - 1.0) ** 2 / 4.0) / omega_sq
    pmf = [math.comb(n, k) * p**k * r ** (n - k) for k in range(n + 1)]
    return -sum(w * math.log2(w) for w in pmf if w > 0.0)


def spectral_radius(params: SystemParams, blocks) -> float:
    """Gershgorin's bound on the largest |eigenvalue| of the given blocks."""
    radius = 0.0
    for n_total in blocks:
        diag, offdiag = build_block(params, n_total)
        off = np.abs(offdiag)
        radius = max(radius, float((np.abs(diag) + np.append(off, 0.0) + np.insert(off, 0, 0.0)).max()))
    return radius


def rounding_distance(levels: int, lam: float, t: float) -> float:
    """delta of the module docstring: how far the engine's and the
    reference's amplitudes may lie from the exact ones on blocks of at most
    levels levels whose largest |eigenvalue| is at most lam, as a total
    variation between their spectra."""
    delta = 4.0 * levels * EPS * (lam * abs(t) + 2.0)
    return delta * (1.0 + delta / 2.0)


def binary_entropy(x: float) -> float:
    return 0.0 if x <= 0.0 else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_gap(distance: float, d: int) -> float:
    """Fannes-Audenaert bound on |S - S'| in bits for spectra of d levels
    at a total variation distance of at most 1/2."""
    assert distance <= 0.5
    return distance * math.log2(max(d - 1, 1)) + binary_entropy(distance)


def sum_rounding(d: int) -> float:
    """Rounding of one entropy sum over d terms, in bits."""
    return (d + 2) * EPS * math.log2(max(d, 2))


def level_error(levels: int, lam: float) -> float:
    """How far an eigenvalue of a block of levels levels whose largest
    |eigenvalue| is at most lam may lie from the exact one: the
    eigensolver's backward error and the rounding of the block's entries."""
    return (levels + 3) * EPS * lam


fock_n = st.integers(min_value=0, max_value=512)
omegas = st.floats(min_value=0.1, max_value=3.0)
gammas = st.floats(min_value=-2.0, max_value=2.0)


@given(
    n=fock_n,
    omega=omegas,
    gamma=gammas,
    q_min=st.floats(min_value=0.5, max_value=0.999),
    q_steps=st.integers(min_value=2, max_value=4),
)
@example(n=512, omega=1.0, gamma=0.7, q_min=0.9, q_steps=3)
@example(n=300, omega=1.3, gamma=-2.0, q_min=0.5, q_steps=2)
@example(n=5, omega=1.0, gamma=0.0, q_min=0.9, q_steps=2)
@settings(max_examples=25, deadline=None)
def test_block_levels_equally_spaced(n, omega, gamma, q_min, q_steps):
    # Two levels each within level_error of the exact ones, and the
    # spacing's own rounding (a square root of a sum: 3 eps).
    params = SystemParams(omega=omega, chi=0.0, gamma=gamma, q=1.0)
    spacing = math.sqrt((omega - 1.0) ** 2 + 4.0 * gamma**2)
    tol = 2.0 * level_error(n + 1, spectral_radius(params, [n])) + 3.0 * EPS * spacing
    alone = eigh_tridiagonal(*build_block(params, n))[0]
    stacked = eigh_tridiagonal(*build_block(params, n, np.linspace(q_min, 1.0, q_steps)))[0]
    for vals in (alone, stacked[-1]):
        assert np.abs(np.diff(vals) - spacing).max(initial=0.0) <= tol


@given(
    n=fock_n,
    omega=omegas,
    gamma=gammas,
    times=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=4),
)
@example(n=512, omega=1.0, gamma=0.7, times=[19.5, 20.0])
@example(n=181, omega=1.3, gamma=-0.7, times=[3.0])
@example(n=180, omega=1.0, gamma=0.7, times=[math.pi / 1.4])
@example(n=5, omega=1.0, gamma=0.0, times=[1.0])
@settings(max_examples=25, deadline=None)
def test_fock_series_is_binomial_entropy(n, omega, gamma, times):
    params = SystemParams(omega=omega, chi=0.0, gamma=gamma, q=1.0)
    lam = spectral_radius(params, [n])
    s_field, s_atom, _ = entropy_series(prepare_fock(n), build_spectral_cache(params, [n]), times)
    for t, s in zip(times, s_field):
        want = binomial_entropy(n, omega, gamma, t)
        assert abs(s - want) <= entropy_gap(rounding_distance(n + 1, lam, t), n + 1) + 2 * sum_rounding(n + 1)
    assert np.array_equal(s_field, s_atom)


@pytest.mark.parametrize("stacked", [False, True])
@given(
    n=fock_n,
    omega=omegas,
    gamma=gammas,
    t=st.floats(min_value=-20.0, max_value=20.0),
    q_min=st.floats(min_value=0.5, max_value=0.999),
    q_steps=st.integers(min_value=2, max_value=4),
)
@example(n=512, omega=1.0, gamma=0.7, t=20.0, q_min=0.9, q_steps=3)
@settings(max_examples=10, deadline=None)
def test_sweep_at_unit_q_is_binomial_entropy(stacked, n, omega, gamma, t, q_min, q_steps):
    # A grid that ends at q = 1, its chunks cut by _SLICE_BYTES: a budget
    # of none scores q = 1 alone, and one that holds every q's complex V
    # copies scores it as the last row of one stack.
    qs = np.linspace(q_min, 1.0, q_steps)
    held = prepare_fock(n)._held
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_SLICE_BYTES", q_steps * held if stacked else 0)
        sweep = run_sweep_q(InitialState("fock", fock_n=n), SystemParams(omega=omega, gamma=gamma), qs, t)
    assert sweep.q[-1] == 1.0
    lam = spectral_radius(SystemParams(omega=omega, gamma=gamma, q=1.0), [n])
    want = binomial_entropy(n, omega, gamma, t)
    assert abs(sweep.s_field[-1] - want) <= entropy_gap(rounding_distance(n + 1, lam, t), n + 1) + 2 * sum_rounding(n + 1)


@given(
    alpha_sq=st.floats(min_value=0.0, max_value=100.0),
    omega=omegas,
    gamma=gammas,
    tail_tol=st.sampled_from([1e-6, 1e-10, 1e-14]),
    times=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=3),
)
@example(alpha_sq=100.0, omega=1.0, gamma=1.0, tail_tol=1e-10, times=[1.0, 5.0])
@example(alpha_sq=30.0, omega=1.7, gamma=-0.5, tail_tol=1e-10, times=[-2.0, 3.0])
@settings(max_examples=12, deadline=None)
def test_coherent_series_stays_a_product(alpha_sq, omega, gamma, tail_tol, times):
    # S of the truncated product state is at most h2(eps) + eps log2(d - 1),
    # eps <= tail_tol; the field density matrix's Gram product and eigvalsh
    # add d^2 eps to the spectra's total variation.
    params = SystemParams(omega=omega, chi=0.0, gamma=gamma, q=1.0)
    series = run_evolve(InitialState("coherent", alpha_sq=alpha_sq, tail_tol=tail_tol), params, np.array(times))
    d = prepare_coherent(alpha_sq, 1.0, tail_tol=tail_tol).n_max + 1
    lam = spectral_radius(params, range(d))
    truncation = binary_entropy(tail_tol) + tail_tol * math.log2(max(d - 1, 1))
    for t, s in zip(times, series.s_field):
        assert 0.0 <= s <= truncation + entropy_gap(rounding_distance(d, lam, t) + d**2 * EPS, d) + sum_rounding(d)
