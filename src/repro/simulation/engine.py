"""The time-stepped data plane.

Advances all active flows second by second: every step, each source task
draws a fresh data-generation rate from its ``Normal(mu_d, sigma_d^2)``
(negative draws clip to zero), deterministic-VC sources are clipped to their
reserved rate (the rate-limiting component), and the resulting demands are
pushed through demand-bounded max-min fair sharing over the directed link
capacities.  Transferred volume is integrated with a 1-second fluid step —
the same granularity at which the paper varies the rates.

Links are full duplex: link ``l`` (the uplink of node ``l``) contributes two
directed capacity entries, ``2l`` for the upward direction and ``2l + 1`` for
the downward direction.  A flow from machine ``a`` to machine ``b`` climbs
``a``'s uplink chain to the LCA (upward entries) and descends ``b``'s chain
(downward entries).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.obs.instruments import outage_monitor
from repro.simulation.jobs import ActiveJob
from repro.simulation.maxmin import build_incidence, max_min_fair_rates
from repro.topology.tree import Tree


def directed_path(tree: Tree, machine_a: int, machine_b: int) -> List[int]:
    """Directed link indices (``2l`` up / ``2l + 1`` down) between machines."""
    if machine_a == machine_b:
        return []
    chain_a = tree.uplink_chain(machine_a)
    chain_b = tree.uplink_chain(machine_b)
    idx_a, idx_b = len(chain_a), len(chain_b)
    while idx_a > 0 and idx_b > 0 and chain_a[idx_a - 1] == chain_b[idx_b - 1]:
        idx_a -= 1
        idx_b -= 1
    upward = [2 * link for link in chain_a[:idx_a]]
    downward = [2 * link + 1 for link in chain_b[:idx_b]]
    return upward + downward


class DataPlane:
    """Vectorized flow advancement over one datacenter tree."""

    def __init__(
        self, tree: Tree, rng: np.random.Generator, track_outages: bool = False
    ) -> None:
        self.tree = tree
        self.rng = rng
        self._num_directed = 2 * tree.num_nodes
        self._capacities = np.zeros(self._num_directed)
        for link in tree.links:
            self._capacities[2 * link.link_id] = link.capacity
            self._capacities[2 * link.link_id + 1] = link.capacity
        self._jobs: Dict[int, ActiveJob] = {}
        self._dirty = True
        # Optional outage instrumentation (validation of Eq. 1): per
        # directed link, how many seconds it carried load and in how many of
        # those the offered demand exceeded capacity.  The same per-step
        # tallies feed the process-global empirical outage monitor, so the
        # measured violation rate is comparable against epsilon live on the
        # metrics endpoint.
        self._track_outages = track_outages
        self._outage_monitor = outage_monitor() if track_outages else None
        self._loaded_seconds = np.zeros(self._num_directed, dtype=np.int64)
        self._outage_seconds = np.zeros(self._num_directed, dtype=np.int64)
        # Flattened per-flow arrays over all active jobs (rebuilt lazily):
        self._flow_job: np.ndarray = np.zeros(0, dtype=np.int64)
        self._flow_index: np.ndarray = np.zeros(0, dtype=np.int64)
        self._flow_mean: np.ndarray = np.zeros(0)
        self._flow_std: np.ndarray = np.zeros(0)
        self._flow_cap: np.ndarray = np.zeros(0)
        self._flow_remaining: np.ndarray = np.zeros(0)
        self._link_of_entry: np.ndarray = np.zeros(0, dtype=np.int64)
        self._flow_of_entry: np.ndarray = np.zeros(0, dtype=np.int64)
        self._flow_ptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._job_order: List[int] = []
        self._unfinished_count: Dict[int, int] = {}

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def job(self, job_id: int) -> ActiveJob:
        return self._jobs[job_id]

    def start_job(self, job: ActiveJob) -> None:
        """Register a placed job; its flows join the shared network."""
        job_id = job.spec.job_id
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} is already active")
        self._mark_dirty()
        self._jobs[job_id] = job

    def remove_job(self, job_id: int) -> ActiveJob:
        """Withdraw a completed job's flows.

        Membership is checked *before* the plane is flagged dirty, so a
        failed remove leaves the incidence (and any in-flight progress)
        untouched instead of forcing a spurious rebuild.
        """
        if job_id not in self._jobs:
            raise ValueError(
                f"job {job_id} is not active on this data plane "
                f"({len(self._jobs)} active jobs)"
            )
        self._mark_dirty()
        job = self._jobs.pop(job_id)
        return job

    def _mark_dirty(self) -> None:
        """Flag the incidence stale, saving in-flight progress exactly once.

        The flat arrays are only advanced while clean (``step`` rebuilds
        before integrating), so the clean-to-dirty transition is the one
        moment they are both current and about to be abandoned.
        """
        if not self._dirty:
            self._writeback()
            self._dirty = True

    def _writeback(self) -> None:
        """Scatter in-flight progress back into the jobs' remaining arrays."""
        for position in range(len(self._flow_job)):
            job_id = int(self._flow_job[position])
            job = self._jobs.get(job_id)
            if job is not None:
                job.remaining[self._flow_index[position]] = max(
                    float(self._flow_remaining[position]), 0.0
                )

    def _rebuild(self) -> None:
        """Re-flatten the per-flow arrays after the active set changed.

        Only unfinished flows participate; finished flows of still-running
        jobs are dropped from the incidence entirely.
        """
        self._job_order = sorted(self._jobs)
        flow_job: List[int] = []
        flow_index: List[int] = []
        means: List[float] = []
        stds: List[float] = []
        caps: List[float] = []
        paths: List[List[int]] = []
        for job_id in self._job_order:
            job = self._jobs[job_id]
            for flow_idx in range(len(job.remaining)):
                if job.remaining[flow_idx] <= 0.0:
                    continue
                flow_job.append(job_id)
                flow_index.append(flow_idx)
                mu, sigma = job.flow_rates[flow_idx]
                means.append(mu)
                stds.append(sigma)
                caps.append(job.flow_caps[flow_idx])
                src, dst = job.flow_machines[flow_idx]
                paths.append(directed_path(self.tree, src, dst))
        self._flow_job = np.asarray(flow_job, dtype=np.int64)
        self._flow_index = np.asarray(flow_index, dtype=np.int64)
        self._flow_mean = np.asarray(means)
        self._flow_std = np.asarray(stds)
        self._flow_cap = np.asarray(caps)
        self._flow_remaining = np.array(
            [
                self._jobs[job_id].remaining[flow_idx]
                for job_id, flow_idx in zip(flow_job, flow_index)
            ]
        )
        self._unfinished_count = {job_id: 0 for job_id in self._job_order}
        for job_id in flow_job:
            self._unfinished_count[job_id] += 1
        self._link_of_entry, self._flow_ptr = build_incidence(paths, self._num_directed)
        self._flow_of_entry = np.repeat(
            np.arange(len(flow_job)), np.diff(self._flow_ptr)
        )
        self._dirty = False

    def step(self, now: int) -> List[int]:
        """Advance one second ending at ``now + 1``.

        Samples demands, computes max-min fair rates, integrates transferred
        volume, and returns the ids of jobs whose *network phase* finished
        during this step (their ``network_end`` is set to ``now + 1``).

        Individual finished flows stay in the incidence with zero demand
        until the next rebuild; the incidence is only rebuilt when a job
        starts or ends.
        """
        if self._dirty:
            self._rebuild()
        finished: List[int] = []
        if len(self._flow_job) == 0:
            return finished

        demands = self.rng.normal(self._flow_mean, self._flow_std)
        np.clip(demands, 0.0, None, out=demands)
        np.minimum(demands, self._flow_cap, out=demands)
        alive = self._flow_remaining > 1e-9
        demands[~alive] = 0.0
        if self._track_outages:
            offered = np.bincount(
                self._link_of_entry,
                weights=demands[self._flow_of_entry],
                minlength=self._num_directed,
            )
            loaded = offered > 1e-9
            violated = loaded & (offered > self._capacities + 1e-9)
            self._loaded_seconds[loaded] += 1
            self._outage_seconds[violated] += 1
            self._outage_monitor.record(
                int(np.count_nonzero(violated)), int(np.count_nonzero(loaded))
            )
        rates = max_min_fair_rates(
            demands, self._link_of_entry, self._flow_ptr, self._capacities
        )

        self._flow_remaining -= rates
        newly_done = alive & (self._flow_remaining <= 1e-9)
        for position in np.flatnonzero(newly_done):
            job_id = int(self._flow_job[position])
            job = self._jobs[job_id]
            job.remaining[self._flow_index[position]] = 0.0
            self._unfinished_count[job_id] -= 1
            if self._unfinished_count[job_id] == 0 and job.network_end is None:
                job.network_end = now + 1
                finished.append(job_id)
        if finished:
            self._mark_dirty()  # their flows leave the incidence
        return finished

    def outage_statistics(self) -> Tuple[int, int]:
        """``(outage link-seconds, loaded link-seconds)`` since construction.

        Only meaningful with ``track_outages=True``.  The ratio is the
        empirical counterpart of the per-link outage probability Eq. (1)
        bounds by ``epsilon``: among all (directed link, second) pairs where
        stochastic demand was offered, how often did it exceed capacity?
        """
        return int(self._outage_seconds.sum()), int(self._loaded_seconds.sum())

    def remaining_volume(self, job_id: int) -> np.ndarray:
        """Up-to-date per-flow remaining volume of an active job.

        ``ActiveJob.remaining`` is only synchronized at job-set changes (the
        flat arrays carry the live values between rebuilds); this accessor
        always returns current numbers.
        """
        job = self._jobs[job_id]
        if self._dirty:
            return job.remaining.copy()
        current = job.remaining.copy()
        mask = self._flow_job == job_id
        current[self._flow_index[mask]] = np.maximum(self._flow_remaining[mask], 0.0)
        return current
