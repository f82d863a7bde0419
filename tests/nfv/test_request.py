"""Unit tests for requests."""

import pytest

from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request


@pytest.fixture
def chain():
    return ServiceChain(["fw", "nat"])


class TestConstruction:
    def test_valid(self, chain):
        r = Request("r0", chain, arrival_rate=5.0)
        assert r.delivery_probability == 1.0

    def test_empty_id_rejected(self, chain):
        with pytest.raises(ValidationError):
            Request("", chain, 5.0)

    def test_zero_rate_rejected(self, chain):
        with pytest.raises(ValidationError):
            Request("r0", chain, 0.0)

    def test_bad_probability_rejected(self, chain):
        with pytest.raises(ValidationError):
            Request("r0", chain, 5.0, delivery_probability=0.0)
        with pytest.raises(ValidationError):
            Request("r0", chain, 5.0, delivery_probability=1.2)
        with pytest.raises(ValidationError):
            Request("r0", chain, 5.0, delivery_probability=float("nan"))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, chain, rate):
        # ``nan <= 0.0`` is False, so a sign check alone lets NaN in.
        with pytest.raises(ValidationError, match="finite"):
            Request("r0", chain, rate)


class TestDerived:
    def test_effective_rate_no_loss(self, chain):
        assert Request("r", chain, 10.0).effective_rate == pytest.approx(10.0)

    def test_effective_rate_with_loss(self, chain):
        r = Request("r", chain, 9.8, delivery_probability=0.98)
        assert r.effective_rate == pytest.approx(10.0)

    def test_uses(self, chain):
        r = Request("r", chain, 1.0)
        assert r.uses("fw")
        assert not r.uses("ids")
