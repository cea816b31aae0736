"""Speculation losers preempted while queued in dispatch mode.

The health layer preempts every attempt that has not started computing,
including one still waiting in a dispatch-mode Local Scheduler's pending
list.  Its processor claim must be withdrawn so ``_try_dispatch`` never
grants a processor to the dead attempt.  A leaked grant strands that
processor for the rest of the run, and the grid stops short of finishing
its jobs.

The run goes to a bounded horizon rather than ``grid.run()`` so that a
leak fails the test instead of hanging it.
"""

import pytest

from repro.experiments.runner import build_grid, make_workload
from repro.grid.lifecycle import TERMINAL_STATES
from repro.trace.golden import golden_config

HORIZON_S = 1e6


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_preempted_queued_attempt_returns_its_claim(seed):
    config = golden_config().with_(
        local_scheduler="FIFO-DataAware", speculate_quantile=0.5,
        speculate_multiplier=1.0, seed=seed)
    sim, grid = build_grid(config, "JobDataPresent", "DataLeastLoaded",
                           make_workload(config, seed), seed)
    for user in grid.users:
        user.start()
    sim.run(until=HORIZON_S)

    assert grid.speculated_jobs, "no speculation loser was preempted"
    live = [job.job_id for job in grid.submitted_jobs
            if job.state not in TERMINAL_STATES]
    assert not live, f"jobs never reached a terminal state: {live}"
    for site in grid.sites.values():
        assert site._free_processors == site.compute.n_processors, (
            f"{site.name} holds "
            f"{site.compute.n_processors - site._free_processors} "
            f"processors for finished attempts")
        assert not site._pending, (
            f"{site.name} still queues {len(site._pending)} dead attempts")
