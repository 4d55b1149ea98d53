import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.geometry import shown
from bevkit.ordinal import (
    DATASET_SCHEMES,
    OrdinalDomainScheme,
    assign_label,
    ordinal_loss,
    ordinal_loss_grad,
    reverse_gradient,
)


def saturated_logits(num_edges: int, label: int, magnitude: float = 30.0) -> np.ndarray:
    """Logits a perfectly confident classifier would emit for ``label``."""
    logits = np.zeros(2 * num_edges)
    for k in range(num_edges):
        margin = magnitude if label <= k else -magnitude
        logits[2 * k] = margin / 2.0
        logits[2 * k + 1] = -margin / 2.0
    return logits


class TestOrdinalDomainScheme:
    def test_nuscenes_preset_thresholds(self):
        scheme = OrdinalDomainScheme(500.0, 750.0, 5)
        assert scheme.thresholds == (500.0, 550.0, 600.0, 650.0, 700.0, 750.0)
        assert DATASET_SCHEMES["nuscenes"] == scheme

    def test_four_subintervals_five_thresholds_six_categories(self):
        scheme = OrdinalDomainScheme(500.0, 750.0, 4)
        assert len(scheme.thresholds) == 5
        assert scheme.num_categories == 6

    def test_minimal_scheme(self):
        scheme = OrdinalDomainScheme(100.0, 200.0, 1)
        assert scheme.thresholds == (100.0, 200.0)
        assert scheme.num_categories == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            OrdinalDomainScheme(700.0, 500.0, 5)
        with pytest.raises(ValueError):
            OrdinalDomainScheme(500.0, 750.0, 0)
        with pytest.raises(ValueError, match=r"^num_subintervals must be a positive integer, got 2\.5$"):
            OrdinalDomainScheme(500.0, 750.0, 2.5)
        with pytest.raises(ValueError, match=r"^num_subintervals must be a positive integer, got True$"):
            OrdinalDomainScheme(500.0, 750.0, True)
        with pytest.raises(TypeError):
            OrdinalDomainScheme(500.0, 750.0, 5, (500.0, 550.0, 600.0, 650.0, 700.0, 750.0))

    def test_dataset_presets(self):
        assert DATASET_SCHEMES["waymo"].thresholds == (600.0, 650.0, 700.0, 750.0, 800.0, 850.0, 900.0)
        assert DATASET_SCHEMES["lyft"].thresholds == (500.0, 550.0, 600.0, 650.0)


class TestAssignLabel:
    def setup_method(self):
        self.scheme = OrdinalDomainScheme(500.0, 750.0, 5)

    def test_below_range(self):
        assert assign_label(self.scheme, 480.0) == 0

    def test_interior_interval(self):
        assert assign_label(self.scheme, 720.0) == 5

    def test_above_range(self):
        assert assign_label(self.scheme, 800.0) == 6

    def test_thresholds_belong_to_upper_bin(self):
        for i, threshold in enumerate(self.scheme.thresholds):
            assert assign_label(self.scheme, threshold) == i + 1

    @pytest.mark.parametrize("focal", [float("nan"), float("inf"), float("-inf"), 0.0, -700.0])
    def test_non_finite_or_non_positive_focal_rejected(self, focal):
        with pytest.raises(ValueError, match=repr(focal)):
            assign_label(self.scheme, focal)

    def test_monotone_in_focal(self):
        rng = np.random.default_rng(3)
        focals = np.sort(rng.uniform(300.0, 1000.0, size=200))
        labels = [assign_label(self.scheme, f) for f in focals]
        assert all(a <= b for a, b in zip(labels, labels[1:]))


class TestOrdinalLoss:
    def test_saturated_correct_prediction_near_zero(self):
        logits = np.array([10.0, -10.0, 10.0, -10.0])  # margins +20, K = 1
        assert ordinal_loss(logits, 0) < 1e-8

    def test_uniform_logits_value(self):
        for k in (1, 2, 4, 6):
            loss = ordinal_loss(np.zeros(2 * (k + 1)), 0)
            assert abs(loss - (k + 1) * math.log(2.0)) < 1e-12

    def test_top_label_sums_complement_terms(self):
        rng = np.random.default_rng(5)
        k = 3
        logits = rng.normal(0.0, 2.0, size=2 * (k + 1))
        margins = logits[0::2] - logits[1::2]
        prob_below = 1.0 / (1.0 + np.exp(-margins))
        expected = float(-np.sum(np.log1p(-prob_below)))
        assert ordinal_loss(logits, k + 1) == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            logits = rng.normal(0.0, 2.0, size=2 * (k + 1))
            label = int(rng.integers(0, k + 2))
            margins = logits[0::2] - logits[1::2]
            prob = np.exp(logits[0::2]) / (np.exp(logits[0::2]) + np.exp(logits[1::2]))
            gamma = (label <= np.arange(k + 1)).astype(float)
            direct = float(-np.sum(gamma * np.log(prob) + (1 - gamma) * np.log(1 - prob)))
            assert ordinal_loss(logits, label) == pytest.approx(direct, rel=1e-10)

    def test_saturation_does_not_overflow(self):
        logits = np.array([500.0, -500.0, -500.0, 500.0])
        assert math.isfinite(ordinal_loss(logits, 1))

    def test_loss_ordering_on_saturated_logits(self):
        num_edges = 5  # K = 4
        for label in range(num_edges + 1):
            logits = saturated_logits(num_edges, label)
            own = ordinal_loss(logits, label)
            for other in range(num_edges + 1):
                assert own <= ordinal_loss(logits, other) + 1e-12

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            ordinal_loss(np.zeros(5), 0)
        with pytest.raises(ValueError):
            ordinal_loss(np.zeros(2), 0)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ordinal_loss(np.zeros(8), 5)
        with pytest.raises(ValueError):
            ordinal_loss(np.zeros(8), -1)


class TestOrdinalLossGrad:
    def test_saturated_gradient_vanishes(self):
        logits = saturated_logits(4, 2, magnitude=60.0)
        assert np.linalg.norm(ordinal_loss_grad(logits, 2)) < 1e-6

    def test_uniform_logits_half_pattern(self):
        k = 3
        logits = np.zeros(2 * (k + 1))
        label = 2
        grad = ordinal_loss_grad(logits, label)
        gamma = (label <= np.arange(k + 1)).astype(float)
        expected_pairs = 0.5 - gamma  # sigmoid(0) - gamma
        assert np.array_equal(grad[0::2], expected_pairs)
        assert np.array_equal(grad[1::2], -expected_pairs)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(100):
            k = int(rng.integers(1, 7))
            logits = rng.normal(0.0, 3.0, size=2 * (k + 1))
            label = int(rng.integers(0, k + 2))
            analytic = ordinal_loss_grad(logits, label)
            numeric = np.empty_like(analytic)
            for i in range(logits.size):
                bump = np.zeros_like(logits)
                bump[i] = step
                numeric[i] = (
                    ordinal_loss(logits + bump, label) - ordinal_loss(logits - bump, label)
                ) / (2.0 * step)
            denom = max(float(np.abs(numeric).max()), 1e-8)
            assert float(np.abs(analytic - numeric).max()) / denom < 1e-5


class TestReverseGradient:
    def test_unit_lambda_negates(self):
        grad = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(reverse_gradient(grad, 1.0), -grad)

    def test_zero_lambda_zeroes(self):
        assert np.array_equal(reverse_gradient(np.ones(4), 0.0), np.zeros(4))

    def test_involution_at_unit_lambda(self):
        grad = np.array([0.5, -1.5, 2.5])
        assert np.array_equal(reverse_gradient(reverse_gradient(grad, 1.0), 1.0), grad)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            reverse_gradient(np.ones(2), -0.5)


class TestLogitsRule:
    """Logits and gradients are a list or tuple of real numbers, or a numpy array of integer or float dtype."""

    @pytest.mark.parametrize(
        "bad",
        [
            [True, False, True, False],
            ["1", "2", "3", "4"],
            ["1", True],
            [1, None, 2, 3],
            {"a": 1},
            5,
            None,
            "1234",
            [[1.0, 2.0], [3.0, 4.0]],
            np.array([True, False, True, False]),
            np.array(["1", "2", "3", "4"]),
            np.array([1, None, 2, 3], dtype=object),
        ],
        ids=[
            "bools",
            "strings",
            "string-and-bool",
            "null",
            "dict",
            "scalar",
            "none",
            "string",
            "nested",
            "bool-array",
            "str-array",
            "object-array",
        ],
    )
    def test_non_numbers_rejected_by_name(self, bad):
        message = f"must be a list, tuple or array of numbers, got {re.escape(shown(bad))}$"
        for call in (ordinal_loss, ordinal_loss_grad):
            with pytest.raises(ValueError, match=f"^logits {message}"):
                call(bad, 0)
        with pytest.raises(ValueError, match=f"^grad {message}"):
            reverse_gradient(bad)

    @pytest.mark.parametrize(
        "logits, label, message",
        [
            ([1e308, -1e308, 0, 0], 0, "logits must be finite, and so must the difference within each pair"),
            ([1.7e308, 0, 1.7e308, 0], 2, "ordinal loss overflows a float"),
        ],
        ids=["logit-difference-overflow", "sum-overflow"],
    )
    def test_overflow_rejected(self, logits, label, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ordinal_loss(logits, label)

    @pytest.mark.parametrize(
        "logits", [[0.5, -1, 2, 3.25, 0, -0.0], (0.5, -1, 2, 3.25, 0, -0.0), np.array([1, -2, 3, 4, 0, 5])]
    )
    def test_every_accepted_form_gives_the_float_array_bits(self, logits):
        floats = np.array(logits, dtype=float)
        for label in range(4):
            for call in (ordinal_loss, ordinal_loss_grad):
                assert pickle.dumps(call(logits, label)) == pickle.dumps(call(floats, label))
        assert pickle.dumps(reverse_gradient(logits, 0.5)) == pickle.dumps(reverse_gradient(floats, 0.5))


def any_floats():
    """Any float, with NaN, the infinities, subnormals and +-1e308 drawn often."""
    return st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -1e-320, 1e-200, 1e308, -1e308])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    logits=st.sampled_from([4, 6]).flatmap(lambda size: st.lists(any_floats(), min_size=size, max_size=size)),
    label=st.integers(0, 3),
    grl_lambda=st.none() | any_floats(),
)
def test_any_floats_give_finite_values_or_one_short_error(logits, label, grl_lambda):
    try:
        values = [ordinal_loss(logits, label), *ordinal_loss_grad(logits, label)]
        if grl_lambda is not None:
            values += list(reverse_gradient(ordinal_loss_grad(logits, label), grl_lambda))
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message and len(message) <= 1000, message[:200]
    else:
        assert all(math.isfinite(v) for v in values)
