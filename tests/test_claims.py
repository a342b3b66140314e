"""The paper's claims checked over time windows, not at one instant.

*   Optimal deformation: criterion 2 compares q* with q = 1 at t = 1 only,
    the instant at which q = 1 reaches the binomial entropy.  Over the
    window t in [0, 8] (chi = 0, gamma = -pi/4) q = 1 never does better,
    while a deformed Fock state nearly saturates the Schmidt bound
    log2(N + 1).
*   Revivals: the return fidelity of a Fock state |N, 0>, which lives in
    block N at m = 0, is F(t) = |sum_k V[0, k]^2 exp(-i lambda_k t)|^2.
    Its largest value in the revival window 0.9 to 1.1 x 2 pi/chi shows
    where a slight deformation destroys the revival (q 0.995) and where
    strong deformation brings recurrences back (q <= 0.8, the branch
    criterion 6 tests).
"""

import math

import numpy as np
import pytest

from qkerr.blocks import SystemParams
from qkerr.dynamics import build_spectral_cache
from qkerr.harness import InitialState, run_evolve

from conftest import load_bench

oracle = load_bench("oracle")

CHI = 0.01
PERIOD = 2.0 * math.pi / CHI


# q_best is the best point of a scan over q = 0.5 to 1 in 101 steps.
@pytest.mark.parametrize("fock_n, q_best, s_best", [(5, 0.895, 2.5504), (10, 0.91, 3.4075)])
def test_deformation_beats_binomial_over_time(fock_n, q_best, s_best):
    times = np.linspace(0.0, 8.0, 8001)

    def max_entropy(q):
        params = SystemParams(chi=0.0, gamma=-math.pi / 4.0, q=q)
        return float(run_evolve(InitialState(kind="fock", fock_n=fock_n), params, times).s_field.max())

    s_q1 = max_entropy(1.0)
    assert s_q1 == pytest.approx(oracle.binomial_entropy(fock_n), abs=1e-9)
    deformed = max_entropy(q_best)
    assert deformed - s_q1 > 0.3
    assert deformed == pytest.approx(s_best, abs=1e-3)
    assert deformed < math.log2(fock_n + 1)


REVIVAL_QS = (1.0, 0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.8, 0.7)
# Largest F(t) in the revival window at each q of REVIVAL_QS.
REVIVAL_PEAKS = {
    5: (0.999, 0.986, 0.500, 0.869, 0.849, 0.859, 0.893, 0.990, 0.986),
    10: (0.995, 0.879, 0.418, 0.398, 0.437, 0.711, 0.765, 0.883, 0.925),
}


@pytest.mark.parametrize("fock_n", sorted(REVIVAL_PEAKS))
def test_revival_fidelity_map(fock_n):
    gamma_t = np.arange(0.9 * PERIOD, 1.1 * PERIOD, 0.05)  # gamma = 1
    peaks = []
    for q in REVIVAL_QS:
        vals, vecs = build_spectral_cache(SystemParams(chi=CHI, q=q), [fock_n])[fock_n]
        fidelity = np.abs(np.exp(-1j * np.outer(gamma_t, vals)) @ vecs[0] ** 2) ** 2
        peaks.append(float(fidelity.max()))
    np.testing.assert_allclose(peaks, REVIVAL_PEAKS[fock_n], atol=0.01)
