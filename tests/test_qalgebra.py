"""Deformed-algebra unit tests.

Frozen scalar values below were computed by hand from the bracket
definition [n] = (1 - q^(2n)) / (1 - q^2):

    q = 0.5: [1] = 1, [2] = (1 - 0.0625)/0.75 = 1.25,
             [3] = (1 - 0.015625)/0.75 = 1.3125
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkerr.exceptions import TruncationError
from qkerr.qalgebra import (
    COHERENT_N_CAP,
    CoherentSpec,
    box_n,
    bracket_radius,
    check_deformation,
    coherent_amplitudes,
    select_truncation,
)


class TestBracket:
    def test_frozen_values_q_half(self):
        assert box_n(0, 0.5) == 0.0
        assert box_n(1, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert box_n(2, 0.5) == pytest.approx(1.25, rel=1e-15)
        assert box_n(3, 0.5) == pytest.approx(1.3125, rel=1e-15)

    def test_non_deformed_branch_is_exact(self):
        for n in (0, 1, 7, 100, 10**6):
            assert box_n(n, 1.0) == float(n)

    @given(
        n=st.integers(min_value=0, max_value=200),
        q=st.floats(min_value=0.05, max_value=1.0, exclude_max=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, n, q):
        # [n+1] = 1 + q^2 [n], the defining three-term identity.
        lhs = box_n(n + 1, q)
        rhs = 1.0 + q * q * box_n(n, q)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_recurrence_near_unity(self):
        # The naive power-quotient formula loses ~5 digits here; the
        # expm1/log evaluation must hold the identity to 1e-12.
        for q in (1.0 - 1e-12, 1.0 - 1e-10, 1.0 - 1e-8):
            for n in (1, 50, 199):
                lhs = box_n(n + 1, q)
                rhs = 1.0 + q * q * box_n(n, q)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_and_saturating(self):
        q = 0.8
        values = [box_n(n, q) for n in range(80)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < bracket_radius(q)
        assert values[-1] == pytest.approx(bracket_radius(q), rel=1e-6)

    def test_continuity_at_unity(self):
        # |[n]_{1-eps} - n| <= 3 n^2 eps for small eps: the branch switch
        # must not open a gap.
        for eps in (1e-9, 1e-7, 1e-6):
            q = 1.0 - eps
            for n in (1, 5, 20):
                assert abs(box_n(n, q) - n) <= 3 * n * n * eps

    def test_rejects_bad_q(self):
        for q in (0.0, -0.3, 1.0 + 1e-9, float("nan")):
            with pytest.raises(ValueError):
                check_deformation(q)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            box_n(-1, 0.5)
        with pytest.raises(ValueError):
            box_n(2.5, 0.5)
        with pytest.raises(ValueError):
            box_n(True, 0.5)


class TestCoherentSpec:
    def test_alpha_reconstruction(self):
        spec = CoherentSpec(alpha_sq=2.25, alpha_phase=0.5)
        alpha = spec.alpha
        assert abs(alpha) == pytest.approx(1.5, rel=1e-15)
        assert math.atan2(alpha.imag, alpha.real) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            CoherentSpec(alpha_sq=-0.1)


class TestTruncation:
    def test_vacuum_needs_single_state(self):
        assert select_truncation(CoherentSpec(alpha_sq=0.0), 0.9) == 0

    def test_weak_field_truncates_early(self):
        n_max = select_truncation(CoherentSpec(alpha_sq=0.5), 1.0, tail_tol=1e-10)
        assert 5 <= n_max <= 20

    def test_deformation_shrinks_support(self):
        # For q < 1 the brackets exceed the integers up front only in the
        # denominator product, so the deformed weights die faster.
        n_plain = select_truncation(CoherentSpec(alpha_sq=0.5), 1.0)
        n_deformed = select_truncation(CoherentSpec(alpha_sq=0.5), 0.9)
        assert n_deformed >= 5
        assert abs(n_deformed - n_plain) <= n_plain

    def test_cap_raises(self):
        # alpha_sq beyond the q=0.9 convergence radius but caught by the
        # radius check; inside the radius but slow -> cap error.
        with pytest.raises(TruncationError):
            select_truncation(CoherentSpec(alpha_sq=5.2), 0.9)

    def test_cap_constant_sane(self):
        assert COHERENT_N_CAP == 512


class TestCoherentAmplitudes:
    def test_vacuum(self):
        amps = coherent_amplitudes(CoherentSpec(alpha_sq=0.0), 0.9, 0)
        assert amps.shape == (1,)
        assert amps[0] == pytest.approx(1.0)

    def test_vacuum_with_padding(self):
        amps = coherent_amplitudes(CoherentSpec(alpha_sq=0.0), 0.6, 4)
        np.testing.assert_array_equal(amps, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_poisson_weights_at_unity(self):
        # Non-deformed case: |c_n|^2 must be the Poisson distribution.
        spec = CoherentSpec(alpha_sq=0.5)
        n_max = select_truncation(spec, 1.0)
        amps = coherent_amplitudes(spec, 1.0, n_max)
        weights = np.abs(amps) ** 2
        poisson = np.array(
            [math.exp(-0.5) * 0.5**n / math.factorial(n) for n in range(n_max + 1)]
        )
        np.testing.assert_allclose(weights, poisson, rtol=1e-9, atol=1e-16)

    def test_deformed_weights_follow_brackets(self):
        spec = CoherentSpec(alpha_sq=0.5)
        q = 0.9
        n_max = select_truncation(spec, q)
        amps = coherent_amplitudes(spec, q, n_max)
        # Unnormalized weights w_n = alpha_sq^n / [n]!; check the ratios.
        for n in range(1, n_max + 1):
            ratio = abs(amps[n]) ** 2 / abs(amps[n - 1]) ** 2
            assert ratio == pytest.approx(0.5 / box_n(n, q), rel=1e-10)

    def test_unit_norm(self):
        for q in (1.0, 0.9, 0.6):
            spec = CoherentSpec(alpha_sq=1.3, alpha_phase=0.7)
            n_max = select_truncation(spec, q)
            amps = coherent_amplitudes(spec, q, n_max)
            assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_phase_enters_amplitudes(self):
        spec = CoherentSpec(alpha_sq=0.5, alpha_phase=math.pi / 3)
        n_max = select_truncation(spec, 1.0)
        amps = coherent_amplitudes(spec, 1.0, n_max)
        # c_n carries phase n * alpha_phase.
        for n in range(n_max + 1):
            if abs(amps[n]) < 1e-12:
                continue
            phase = math.atan2(amps[n].imag, amps[n].real)
            expected = math.remainder(n * math.pi / 3, 2 * math.pi)
            assert math.remainder(phase - expected, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_intensity_outside_radius(self):
        # The weights alpha_sq^n / [n]! are summable only below 1/(1 - q^2).
        q = 0.8
        radius = bracket_radius(q)
        for alpha_sq in (radius, radius * 1.01):
            spec = CoherentSpec(alpha_sq=alpha_sq)
            with pytest.raises(ValueError, match="normalizable"):
                select_truncation(spec, q)
            with pytest.raises(ValueError, match="normalizable"):
                coherent_amplitudes(spec, q, 40)
        assert select_truncation(CoherentSpec(alpha_sq=0.9 * radius), q) > 0

    def test_undersized_cut_raises(self):
        with pytest.raises(TruncationError):
            coherent_amplitudes(CoherentSpec(alpha_sq=2.0), 1.0, 2)
