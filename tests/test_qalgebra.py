"""Deformed-algebra unit tests.

Frozen scalar values below were computed by hand from the bracket
definition [n] = (1 - q^(2n)) / (1 - q^2):

    q = 0.5: [1] = 1, [2] = (1 - 0.0625)/0.75 = 1.25,
             [3] = (1 - 0.015625)/0.75 = 1.3125
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkerr.exceptions import TruncationError
from qkerr.qalgebra import (
    COHERENT_N_CAP,
    box_n,
    bracket_radius,
    bracket_table,
    check_deformation,
    coherent_amplitudes,
)


def truncation(alpha_sq, q, **kwargs):
    """n_max that coherent_amplitudes selects."""
    return coherent_amplitudes(alpha_sq, q, **kwargs).size - 1


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


class TestBracketTable:
    """bracket_table gives every q's brackets [0]..[n_max] in one array,
    each with box_n's bits."""

    @given(
        qs=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), max_size=6),
        n_max=st.integers(min_value=0, max_value=512),
    )
    @example(qs=[1.0, 1.0 - 1e-15, 0.5, 5e-324], n_max=512)
    @settings(max_examples=100, deadline=None)
    def test_equals_box_n_bit_for_bit(self, qs, n_max):
        table = bracket_table(qs, n_max)
        reference = np.array([[box_n(n, q) for n in range(n_max + 1)] for q in qs]).reshape(len(qs), n_max + 1)
        assert table.tobytes() == reference.tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="1-d"):
            bracket_table([[0.5]], 3)
        with pytest.raises(ValueError, match="n_max"):
            bracket_table([0.5], -1)


class TestCoherentIntensity:
    """The intensity rule that coherent_amplitudes owns: alpha_sq finite and
    >= 0 (the radius half is in TestCoherentAmplitudes)."""

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            coherent_amplitudes(-0.1, 0.9)

    @pytest.mark.parametrize("alpha_sq", [-1.0, math.inf, math.nan])
    def test_rejects_intensity_not_finite_nonnegative(self, alpha_sq):
        # at q = 1 the radius is infinite, so only the finiteness rule can reject inf
        with pytest.raises(ValueError, match="alpha_sq must be finite"):
            coherent_amplitudes(alpha_sq, 1.0)


class TestTruncation:
    def test_vacuum_needs_single_state(self):
        assert truncation(0.0, 0.9) == 0

    def test_weak_field_truncates_early(self):
        n_max = truncation(0.5, 1.0, tail_tol=1e-10)
        assert 5 <= n_max <= 20

    def test_deformation_shrinks_support(self):
        # For q < 1 the brackets exceed the integers up front only in the
        # denominator product, so the deformed weights die faster.
        n_plain = truncation(0.5, 1.0)
        n_deformed = truncation(0.5, 0.9)
        assert n_deformed >= 5
        assert abs(n_deformed - n_plain) <= n_plain

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, 2.0, math.inf, math.nan])
    def test_rejects_tail_tol_outside_unit_interval(self, tail_tol):
        # inf used to pass and return the one-level vacuum for intensity 5.
        with pytest.raises(ValueError, match=r"tail_tol must lie in \(0, 1\)"):
            coherent_amplitudes(5.0, 1.0, tail_tol=tail_tol)

    def test_cap_raises(self):
        # alpha_sq beyond the q=0.9 convergence radius but caught by the
        # radius check; inside the radius but slow -> cap error.
        with pytest.raises(TruncationError):
            coherent_amplitudes(5.2, 0.9)

    @pytest.mark.parametrize("alpha_sq", [800.0, 1e5])
    def test_weight_overflow_raises(self, alpha_sq):
        # At q = 1 the weights alpha_sq^n / n! pass the float range long
        # before their tail shrinks; no truncation can be certified.
        with pytest.raises(TruncationError, match="overflow"):
            coherent_amplitudes(alpha_sq, 1.0)

    def test_cap_constant_sane(self):
        assert COHERENT_N_CAP == 512


class TestCoherentAmplitudes:
    def test_vacuum(self):
        amps = coherent_amplitudes(0.0, 0.9)
        assert amps.shape == (1,)
        assert amps[0] == pytest.approx(1.0)

    def test_positional_n_max_rejected(self):
        # n_max is chosen, not passed: a positional third argument must
        # fail, not be read as a tolerance.
        with pytest.raises(TypeError):
            coherent_amplitudes(0.5, 1.0, 12)

    def test_poisson_weights_at_unity(self):
        # Non-deformed case: |c_n|^2 must be the Poisson distribution.
        amps = coherent_amplitudes(0.5, 1.0)
        n_max = amps.size - 1
        weights = np.abs(amps) ** 2
        poisson = np.array(
            [math.exp(-0.5) * 0.5**n / math.factorial(n) for n in range(n_max + 1)]
        )
        np.testing.assert_allclose(weights, poisson, rtol=1e-9, atol=1e-16)

    def test_deformed_weights_follow_brackets(self):
        q = 0.9
        amps = coherent_amplitudes(0.5, q)
        n_max = amps.size - 1
        # Unnormalized weights w_n = alpha_sq^n / [n]!; check the ratios.
        for n in range(1, n_max + 1):
            ratio = abs(amps[n]) ** 2 / abs(amps[n - 1]) ** 2
            assert ratio == pytest.approx(0.5 / box_n(n, q), rel=1e-10)

    def test_unit_norm(self):
        for q in (1.0, 0.9, 0.6):
            amps = coherent_amplitudes(1.3, q)
            assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_intensity_outside_radius(self):
        # The weights alpha_sq^n / [n]! are summable only below 1/(1 - q^2).
        q = 0.8
        radius = bracket_radius(q)
        for alpha_sq in (radius, radius * 1.01):
            with pytest.raises(ValueError, match="normalizable"):
                coherent_amplitudes(alpha_sq, q)
        assert truncation(0.9 * radius, q) > 0


def _two_pass_tail_bound(weight_next, alpha_sq, q, n_next):
    if weight_next == 0.0:
        return 0.0
    ratio = alpha_sq / box_n(n_next + 1, q)
    if ratio >= 1.0:
        return math.inf
    return weight_next / (1.0 - ratio)


def _two_pass_checks(alpha_sq, q, tail_tol):
    q = check_deformation(q)
    if not (tail_tol > 0.0):
        raise ValueError("tail_tol")
    if alpha_sq >= bracket_radius(q):
        raise ValueError("normalizable")
    return q


def two_pass_amplitudes(alpha_sq, q, tail_tol):
    """Reference: choose n_max in one walk of the weights, then build the
    amplitudes on 0..n_max in a second walk that repeats the checks and
    the tail test (the algorithm the one-walk version replaced).

    Where the first walk selects n_max only because its retained weight
    overflowed (inf <= tol * inf), this raises OverflowError: the old
    algorithm then returned whatever its second walk made of the infinite
    weights, and the one walk raises TruncationError instead."""
    q = _two_pass_checks(alpha_sq, q, tail_tol)
    n_max = 0
    if alpha_sq != 0.0:
        weight = retained = 1.0
        for n_max in range(COHERENT_N_CAP + 1):
            weight_next = weight * alpha_sq / box_n(n_max + 1, q)
            if _two_pass_tail_bound(weight_next, alpha_sq, q, n_max + 1) <= tail_tol * retained:
                if retained == math.inf:
                    raise OverflowError("retained weight overflowed")
                break
            weight = weight_next
            retained += weight
        else:
            raise TruncationError("cap")

    q = _two_pass_checks(alpha_sq, q, tail_tol)
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = 1.0
    weight = retained = 1.0
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * math.sqrt(alpha_sq) / math.sqrt(box_n(n, q))
        weight *= alpha_sq / box_n(n, q)
        retained += weight
    weight_next = weight * alpha_sq / box_n(n_max + 1, q)
    if _two_pass_tail_bound(weight_next, alpha_sq, q, n_max + 1) > tail_tol * retained:
        raise TruncationError("undersized")
    return amps / np.linalg.norm(amps)


@st.composite
def coherent_cases(draw):
    q = draw(st.one_of(st.just(1.0), st.just(1.0 - 1e-9), st.floats(0.06, 1.0)))
    radius = bracket_radius(q)
    intensities = [st.just(0.0), st.floats(0.0, min(radius, 40.0), exclude_max=True)]
    if math.isfinite(radius):
        intensities.append(st.floats(0.99, 1.0, exclude_max=True).map(lambda f: f * radius))
        intensities.append(st.just(math.nextafter(radius, 0.0)))
    return draw(st.one_of(intensities)), q, draw(st.floats(1e-14, 1e-2))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


# A weight of 0 stops the walk: at alpha_sq 0 and -0.0 on the first step,
# and with a tail_tol of 5e-324 where the falling weights underflow (n 156
# at alpha_sq 0.5, q 1; n 161 at alpha_sq 0.01, q 0.06).
@settings(max_examples=400, deadline=None)
@given(coherent_cases())
@example((0.0, 1.0, 1e-10))
@example((-0.0, 1.0, 1e-10))
@example((0.0, 0.06, 1e-10))
@example((-0.0, 0.06, 1e-10))
@example((0.5, 1.0, 5e-324))
@example((0.01, 0.06, 5e-324))
def test_one_walk_matches_two_pass(case):
    alpha_sq, q, tail_tol = case
    one = _outcome(coherent_amplitudes, alpha_sq, q, tail_tol=tail_tol)
    two = _outcome(two_pass_amplitudes, alpha_sq, q, tail_tol)
    if two is OverflowError:
        assert one is TruncationError
    elif isinstance(one, type) or isinstance(two, type):
        assert one is two
    else:
        assert one.shape == two.shape
        assert np.array_equal(one, two)
