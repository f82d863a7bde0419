#!/usr/bin/env python3
"""Online arrivals with periodic RCKK rebalancing.

The paper schedules a known request set offline; in operation requests
churn.  This example drives one arrival/departure stream through a
:class:`~repro.core.incremental.DeploymentEngine` under three policies
— pure online least-loaded admits, and least-loaded admits plus a full
RCKK rebalance every 20 or every 5 arrivals — and prints how far each
stays from perfect balance, plus the migration cost the rebalancing
pays.

Run with::

    python examples/online_rebalancing.py
"""

import numpy as np

from repro import Request, ServiceChain, VNF
from repro.core.incremental import DeploymentEngine

CHAIN = ServiceChain(["firewall"])
VNF_UNDER_TEST = VNF("firewall", 1.0, 5, 1e6)


def spread(engine: DeploymentEngine) -> float:
    """Max-min aggregate rate over the VNF's instances."""
    loads = engine.instance_loads()
    return float(loads.max() - loads.min())


def drive(rebalance_every: int, seed: int = 0):
    """Feed a fixed churn pattern: 120 arrivals, departures interleaved.

    Returns the engine, the spread after every event and the schedule
    migrations the rebalances performed.
    """
    # One node holding the whole VNF and no utilization cap: every
    # arrival joins its least-loaded instance unconditionally.
    engine = DeploymentEngine(
        [VNF_UNDER_TEST],
        {"node0": VNF_UNDER_TEST.total_demand},
        target_utilization=None,
    )
    rng = np.random.default_rng(seed)
    active = []
    spreads = []
    migrations = 0
    for i in range(120):
        rate = float(rng.uniform(1.0, 100.0))
        engine.admit(Request(f"r{i}", CHAIN, rate))
        active.append(f"r{i}")
        if rebalance_every and (i + 1) % rebalance_every == 0:
            migrations += engine.rebalance().schedule_migrations
        spreads.append(spread(engine))
        # After warm-up, each arrival is matched by a random departure
        # with probability 0.7 (sustained churn around ~40 active).
        if len(active) > 40 and rng.uniform() < 0.7:
            engine.depart(active.pop(int(rng.integers(0, len(active)))))
            spreads.append(spread(engine))
    return engine, spreads, migrations


def main() -> None:
    policies = [("online only", 0), ("rebalance/20", 20), ("rebalance/5", 5)]
    print(f"{'policy':14s} {'mean spread':>12s} {'final spread':>13s} "
          f"{'migrations':>11s}")
    print("-" * 54)
    for name, every in policies:
        engine, spreads, migrations = drive(every, seed=7)
        print(
            f"{name:14s} {np.mean(spreads):12.2f} "
            f"{spread(engine):13.2f} {migrations:11d}"
        )
    print(
        "\nPeriodic RCKK keeps the instance loads near-balanced through"
        "\nchurn; the knob trades migration traffic for balance quality."
    )


if __name__ == "__main__":
    main()
