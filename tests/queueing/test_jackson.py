"""Unit tests for the open Jackson network solver and chain model."""

import pytest

from repro.exceptions import UnstableQueueError, ValidationError
from repro.queueing.jackson import ChainFeedbackModel, OpenJacksonNetwork
from repro.queueing.mm1 import MM1Queue


class TestOpenJacksonNetwork:
    def test_single_station_is_mm1(self):
        net = OpenJacksonNetwork([10.0], [[0.0]], [5.0])
        sol = net.solve()
        mm1 = MM1Queue(5.0, 10.0)
        assert sol.node_metrics[0].mean_response_time == pytest.approx(
            mm1.mean_response_time
        )
        assert sol.node_metrics[0].mean_number_in_system == pytest.approx(
            mm1.mean_number_in_system
        )

    def test_tandem_network(self):
        net = OpenJacksonNetwork(
            [10.0, 8.0],
            [[0.0, 1.0], [0.0, 0.0]],
            [5.0, 0.0],
        )
        sol = net.solve()
        assert sol.node_metrics[0].arrival_rate == pytest.approx(5.0)
        assert sol.node_metrics[1].arrival_rate == pytest.approx(5.0)
        expected = 1.0 / (10.0 - 5.0) + 1.0 / (8.0 - 5.0)
        assert sol.mean_network_response_time == pytest.approx(expected)

    def test_total_number_is_sum(self):
        net = OpenJacksonNetwork(
            [10.0, 10.0],
            [[0.0, 0.5], [0.0, 0.0]],
            [4.0, 2.0],
        )
        sol = net.solve()
        assert sol.mean_total_number == pytest.approx(
            sum(m.mean_number_in_system for m in sol.node_metrics)
        )

    def test_unstable_station_raises(self):
        net = OpenJacksonNetwork([4.0], [[0.0]], [5.0])
        assert not net.is_stable()
        with pytest.raises(UnstableQueueError):
            net.solve()

    def test_invalid_service_rate(self):
        with pytest.raises(ValidationError):
            OpenJacksonNetwork([0.0], [[0.0]], [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            OpenJacksonNetwork([10.0, 10.0], [[0.0]], [1.0, 1.0])
        with pytest.raises(ValidationError):
            OpenJacksonNetwork([10.0], [[0.0]], [1.0, 2.0])

    def test_response_time_undefined_without_traffic(self):
        net = OpenJacksonNetwork([10.0], [[0.0]], [0.0])
        sol = net.solve()
        with pytest.raises(ValidationError):
            _ = sol.mean_network_response_time


class TestChainFeedbackModel:
    def test_paper_closed_forms(self):
        # E[T_i] = 1 / (P mu_i - lambda0).
        model = ChainFeedbackModel(
            external_rate=4.0,
            service_rates=[10.0, 8.0],
            delivery_probability=0.8,
        )
        assert model.mean_response_time_at(0) == pytest.approx(
            1.0 / (0.8 * 10.0 - 4.0)
        )
        assert model.mean_response_time_at(1) == pytest.approx(
            1.0 / (0.8 * 8.0 - 4.0)
        )

    def test_equivalent_rate(self):
        model = ChainFeedbackModel(4.0, [10.0], 0.5)
        assert model.equivalent_rate == pytest.approx(8.0)

    def test_no_loss_reduces_to_tandem(self):
        model = ChainFeedbackModel(5.0, [10.0, 8.0], 1.0)
        expected = 1.0 / 5.0 + 1.0 / 3.0
        assert model.total_response_time() == pytest.approx(expected)

    def test_loss_increases_latency(self):
        t_clean = ChainFeedbackModel(4.0, [10.0], 1.0).total_response_time()
        t_lossy = ChainFeedbackModel(4.0, [10.0], 0.9).total_response_time()
        assert t_lossy > t_clean

    def test_stability(self):
        assert ChainFeedbackModel(4.0, [10.0], 0.5).is_stable()
        assert not ChainFeedbackModel(6.0, [10.0], 0.5).is_stable()

    def test_unstable_raises(self):
        model = ChainFeedbackModel(6.0, [10.0], 0.5)
        with pytest.raises(UnstableQueueError):
            model.total_response_time()

    def test_empty_chain_rejected(self):
        with pytest.raises(ValidationError):
            ChainFeedbackModel(1.0, [], 1.0)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValidationError):
            ChainFeedbackModel(1.0, [10.0], 0.0)

    def test_agrees_with_explicit_jackson_network(self):
        # The chain + feedback loop solved as an explicit Jackson network
        # must produce the same per-station arrival rates and latencies.
        model = ChainFeedbackModel(
            external_rate=4.0,
            service_rates=[12.0, 9.0, 7.0],
            delivery_probability=0.9,
        )
        net = model.to_jackson_network()
        sol = net.solve()
        for i in range(3):
            assert sol.node_metrics[i].arrival_rate == pytest.approx(
                model.equivalent_rate
            )
            # The station metric is per *pass*; the paper's E[T_i]
            # aggregates a packet's 1/P passes: E[T_i] = W_station / P.
            assert sol.node_metrics[i].mean_response_time / 0.9 == pytest.approx(
                model.mean_response_time_at(i)
            )

    def test_jackson_network_total_latency_matches_closed_form(self):
        # Little's law over the external rate: E[T] = E[N]/lambda0 with
        # E[N_i] = lambda0/(P mu_i - lambda0), so the network-level E[T]
        # equals the paper's sum of per-VNF response times, E[T] = sum E[T_i]
        # (each packet makes 1/P passes, each pass P times faster than E[T_i]).
        model = ChainFeedbackModel(4.0, [12.0, 9.0], 0.8)
        sol = model.to_jackson_network().solve()
        assert sol.mean_network_response_time == pytest.approx(
            model.total_response_time()
        )
