"""Unit tests for the Kleinrock open-network traffic equations."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.queueing import kleinrock


class TestTrafficEquations:
    def test_no_routing_is_identity(self):
        lam = kleinrock.solve_traffic_equations(
            [3.0, 4.0], np.zeros((2, 2))
        )
        assert lam == pytest.approx([3.0, 4.0])

    def test_tandem_chain(self):
        # 0 -> 1 -> 2, all traffic flows through.
        routing = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        )
        lam = kleinrock.solve_traffic_equations([5.0, 0.0, 0.0], routing)
        assert lam == pytest.approx([5.0, 5.0, 5.0])

    def test_feedback_loop(self):
        # Single station, feedback with probability q: lambda = lam0/(1-q).
        routing = np.array([[0.25]])
        lam = kleinrock.solve_traffic_equations([3.0], routing)
        assert lam == pytest.approx([4.0])

    def test_chain_with_loss_feedback(self):
        # The paper's Fig. 3: two stations, destination NACKs back to the
        # head with probability 1 - P; steady state lambda = lam0 / P.
        p = 0.9
        routing = np.array([[0.0, 1.0], [1.0 - p, 0.0]])
        lam = kleinrock.solve_traffic_equations([9.0, 0.0], routing)
        assert lam == pytest.approx([10.0, 10.0])

    def test_probabilistic_branch(self):
        # Station 0 splits 60/40 to stations 1 and 2.
        routing = np.array(
            [[0.0, 0.6, 0.4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        lam = kleinrock.solve_traffic_equations([10.0, 0.0, 0.0], routing)
        assert lam == pytest.approx([10.0, 6.0, 4.0])

    def test_closed_loop_rejected(self):
        # All traffic circulates forever: not an open network.
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            kleinrock.solve_traffic_equations([1.0, 0.0], routing)

    def test_row_sum_over_one_rejected(self):
        routing = np.array([[0.6, 0.6], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            kleinrock.solve_traffic_equations([1.0, 0.0], routing)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kleinrock.solve_traffic_equations([1.0], np.zeros((2, 2)))

    def test_negative_external_rejected(self):
        with pytest.raises(ValidationError):
            kleinrock.solve_traffic_equations([-1.0], np.zeros((1, 1)))
