"""Unit tests for loss-feedback effective arrival rates."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.queueing import feedback


def _effective(rate, p):
    return float(feedback.effective_arrival_rates([rate], [p])[0])


class TestEffectiveRate:
    def test_no_loss_identity(self):
        assert _effective(10.0, 1.0) == pytest.approx(10.0)

    def test_two_percent_loss(self):
        # lambda / P with P = 0.98.
        assert _effective(9.8, 0.98) == pytest.approx(10.0)

    def test_rate_grows_as_p_drops(self):
        rates = [_effective(10.0, p) for p in (1.0, 0.9, 0.5)]
        assert rates[0] < rates[1] < rates[2]

    def test_zero_rate(self):
        assert _effective(0.0, 0.5) == 0.0

    def test_invalid_probability(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                _effective(1.0, p)

    def test_negative_rate(self):
        with pytest.raises(ValidationError):
            _effective(-1.0, 0.9)


class TestEffectiveRatesVectorized:
    def test_matches_scalar_helper_elementwise(self):
        rates = [10.0, 9.0, 7.0, 8.0]
        probs = [1.0, 0.9, 0.5, 0.8]
        out = feedback.effective_arrival_rates(rates, probs)
        assert out.shape == (4,)
        chain = ServiceChain(["f"])
        for got, rate, p in zip(out, rates, probs):
            request = Request("r", chain, rate, delivery_probability=p)
            assert got == request.effective_rate

    def test_empty_columns(self):
        assert feedback.effective_arrival_rates([], []).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            feedback.effective_arrival_rates([1.0, 2.0], [0.9])

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValidationError):
            feedback.effective_arrival_rates([-1.0], [0.9])
        with pytest.raises(ValidationError):
            feedback.effective_arrival_rates([1.0], [0.0])
        with pytest.raises(ValidationError):
            feedback.effective_arrival_rates([1.0], [1.5])

    def test_returns_numpy_array(self):
        out = feedback.effective_arrival_rates([5.0], [0.5])
        assert isinstance(out, np.ndarray)
        assert out[0] == pytest.approx(10.0)


class TestValidateDeliveryProbability:
    def test_boundaries(self):
        feedback.validate_delivery_probability(1.0)
        feedback.validate_delivery_probability(1e-9)
        with pytest.raises(ValidationError):
            feedback.validate_delivery_probability(0.0)
        with pytest.raises(ValidationError):
            feedback.validate_delivery_probability(1.0000001)
