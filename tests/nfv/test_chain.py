"""Unit tests for service chains."""

import pytest

from repro.exceptions import ValidationError
from repro.nfv.chain import MAX_CHAIN_LENGTH, ServiceChain


class TestConstruction:
    def test_valid(self):
        c = ServiceChain(["a", "b", "c"])
        assert len(c) == 3
        assert list(c) == ["a", "b", "c"]

    def test_single_vnf(self):
        assert len(ServiceChain(["only"])) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ServiceChain([])

    def test_revisit_rejected(self):
        with pytest.raises(ValidationError):
            ServiceChain(["a", "b", "a"])

    def test_hashable_and_equal(self):
        assert ServiceChain(["a", "b"]) == ServiceChain(["a", "b"])
        assert hash(ServiceChain(["a"])) == hash(ServiceChain(["a"]))


class TestQueries:
    def test_uses(self):
        c = ServiceChain(["fw", "nat"])
        assert c.uses("fw")
        assert not c.uses("ids")
        assert "nat" in c

    def test_hops(self):
        c = ServiceChain(["a", "b", "c"])
        assert c.hops() == (("a", "b"), ("b", "c"))
        assert ServiceChain(["solo"]).hops() == ()


class TestLengthValidation:
    def test_default_is_paper_limit(self):
        assert MAX_CHAIN_LENGTH == 6
