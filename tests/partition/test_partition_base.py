"""Unit tests for the partitioning data model and metrics."""

import pytest

from repro.exceptions import ValidationError
from repro.partition.base import (
    PartitionResult,
    TuplePartition,
    validate_instance,
)
from repro.partition.karmarkar_karp import karmarkar_karp_multiway
from repro.partition.rckk import rckk_partition


class TestValidateInstance:
    def test_valid(self):
        validate_instance([1.0, 2.0], 3)

    def test_zero_ways_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([1.0], 0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([1.0, -2.0], 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            validate_instance([1.0, bad, 2.0], 2)

    @pytest.mark.parametrize(
        "solve", [rckk_partition, karmarkar_karp_multiway]
    )
    def test_solvers_reject_nan(self, solve):
        # NaN fails every comparison, so unchecked it lands wherever each
        # solver's sort happens to put it, and the two solvers disagree.
        with pytest.raises(ValidationError, match="finite"):
            solve([1, float("nan"), 2, 0.5], 2)


class TestPartitionResult:
    def _result(self):
        return PartitionResult(
            subsets=[[0, 2], [1]], values=[5.0, 7.0, 3.0]
        )

    def test_sums(self):
        assert self._result().sums == [pytest.approx(8.0), pytest.approx(7.0)]

    def test_makespan_and_spread(self):
        r = self._result()
        assert r.makespan == pytest.approx(8.0)
        assert r.spread == pytest.approx(1.0)

    def test_assignment(self):
        assert self._result().assignment() == {0: 0, 2: 0, 1: 1}

    def test_validate_passes(self):
        self._result().validate()

    def test_validate_missing_index(self):
        r = PartitionResult(subsets=[[0], []], values=[1.0, 2.0])
        with pytest.raises(ValidationError):
            r.validate()

    def test_validate_duplicate_index(self):
        r = PartitionResult(subsets=[[0], [0, 1]], values=[1.0, 2.0])
        with pytest.raises(ValidationError):
            r.validate()

    def test_validate_out_of_range(self):
        r = PartitionResult(subsets=[[0, 5]], values=[1.0])
        with pytest.raises(ValidationError):
            r.validate()

    def test_validate_right_count_wrong_indices(self):
        r = PartitionResult(subsets=[[0], [0]], values=[1.0, 2.0])
        with pytest.raises(ValidationError, match="index 0 assigned 2 times"):
            r.validate()

    def test_empty(self):
        r = PartitionResult(subsets=[], values=[])
        assert r.makespan == 0.0
        assert r.spread == 0.0


class TestTuplePartition:
    def test_singleton_layout(self):
        p = TuplePartition.singleton(7.0, index=3, num_ways=4)
        assert p.head == 7.0
        assert p.entries[0] == (7.0, (3,))
        assert all(e == (0.0, ()) for e in p.entries[1:])

    def test_normalized_sorts_and_floors(self):
        p = TuplePartition(entries=[(2.0, (0,)), (5.0, (1,)), (3.0, (2,))])
        q = p.normalized()
        values = [v for v, _ in q.entries]
        assert values == [3.0, 1.0, 0.0]
        # Provenance follows the values through the sort.
        assert q.entries[0][1] == (1,)
        assert q.entries[2][1] == (0,)
