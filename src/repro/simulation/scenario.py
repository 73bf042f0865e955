"""The two evaluation scenarios of Section VI-B.

- :func:`run_batch` — "a large batch of tenant jobs placed in a FIFO queue
  waiting to be allocated to run ... once a job completes, the topmost
  job(s) that can be allocated is scheduled to run" (strict FIFO with
  head-of-line blocking, as in Oktopus).
- :func:`run_online` — "tenant jobs dynamically arrive over time and are
  accepted only if they can be allocated at the moment of arrival";
  concurrency and max-occupancy are sampled at every arrival (Figs. 7-10).

Both drivers share the same inner loop: at each whole second, first retire
jobs whose ``max(T_c, T_n)`` elapsed (returning their slots and bandwidth),
then admit/start what the policy allows, then advance the data plane by one
second.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.allocation.base import Allocator
from repro.allocation.dispatch import default_allocator
from repro.allocation.svc_homogeneous import OktopusAllocator
from repro.manager.network_manager import NetworkManager
from repro.obs.instruments import outage_monitor
from repro.simulation.engine import DataPlane
from repro.simulation.jobs import ActiveJob, JobSpec
from repro.simulation.metrics import JobRecord, summarize_runtimes
from repro.simulation.workload import make_request


def _resolve_rate_cap(tree, rate_cap):
    """Resolve the per-VM NIC cap used to derive request statistics.

    ``"nic"`` (the default) uses the smallest machine uplink capacity;
    ``None`` disables the truncation (raw paper distributions); a number is
    used verbatim.
    """
    if rate_cap == "nic":
        return tree.min_machine_uplink_capacity
    return rate_cap


@dataclass
class BatchResult:
    """Outcome of a batched-jobs run (Figs. 5-6)."""

    records: List[JobRecord]
    makespan: int
    unschedulable: List[int] = field(default_factory=list)

    @property
    def average_running_time(self) -> float:
        """Average per-job running time (the Fig. 6 metric)."""
        runtime, _wait = summarize_runtimes(self.records)
        return runtime

    @property
    def average_waiting_time(self) -> float:
        _runtime, wait = summarize_runtimes(self.records)
        return wait


@dataclass
class OnlineResult:
    """Outcome of a dynamically-arriving-jobs run (Figs. 7-10)."""

    records: List[JobRecord]
    num_arrivals: int
    num_rejected: int
    #: ``(arrival time, jobs already running)`` sampled at each arrival (Fig. 8).
    concurrency_samples: List[Tuple[float, int]] = field(default_factory=list)
    #: ``(arrival time, max_L O_L)`` sampled after each arrival's admission (Fig. 9).
    occupancy_samples: List[Tuple[float, float]] = field(default_factory=list)
    #: Outage instrumentation (only populated with ``track_outages=True``):
    #: (directed link, second) pairs where offered demand exceeded capacity,
    #: and pairs where any demand was offered at all.
    outage_link_seconds: int = 0
    loaded_link_seconds: int = 0
    #: Per-arrival mean occupancy by tree level (with ``track_levels=True``):
    #: list of (arrival time, {level: mean O_L of that level's uplinks}).
    level_occupancy_samples: List[Tuple[float, Dict[int, float]]] = field(
        default_factory=list
    )

    @property
    def rejection_rate(self) -> float:
        """Fraction of arrivals rejected (the Fig. 7 / Fig. 10 metric)."""
        return self.num_rejected / self.num_arrivals if self.num_arrivals else 0.0

    @property
    def average_running_time(self) -> float:
        runtime, _wait = summarize_runtimes(self.records)
        return runtime

    @property
    def average_concurrency(self) -> float:
        if not self.concurrency_samples:
            return 0.0
        return float(np.mean([count for _t, count in self.concurrency_samples]))

    @property
    def max_occupancies(self) -> List[float]:
        return [occ for _t, occ in self.occupancy_samples]

    def mean_level_occupancy(self, level: int) -> float:
        """Time-averaged mean occupancy of one level's uplinks (ablations)."""
        values = [
            sample[level]
            for _t, sample in self.level_occupancy_samples
            if level in sample
        ]
        return float(np.mean(values)) if values else float("nan")

    @property
    def empirical_outage_rate(self) -> float:
        """Measured per-link outage frequency — Eq. (1) bounds this by epsilon."""
        if self.loaded_link_seconds == 0:
            return 0.0
        return self.outage_link_seconds / self.loaded_link_seconds


def allocator_for_model(model: str) -> Allocator:
    """The allocation algorithm each abstraction runs in the paper.

    The deterministic baselines (mean-VC, percentile-VC) use the Oktopus
    search; SVC uses the paper's optimizing algorithms.
    """
    if model in ("mean-vc", "percentile-vc"):
        return OktopusAllocator()
    if model == "svc":
        return default_allocator()
    raise ValueError(f"unknown abstraction model {model!r}")


def _start_job(
    manager: NetworkManager,
    plane: DataPlane,
    running: Dict[int, ActiveJob],
    spec: JobSpec,
    request,
    now: int,
) -> Optional[ActiveJob]:
    tenancy = manager.request(request)
    if tenancy is None:
        return None
    job = ActiveJob(spec=spec, tenancy=tenancy, start_time=now)
    running[spec.job_id] = job
    plane.start_job(job)
    return job


def _retire_completed(
    manager: NetworkManager,
    plane: DataPlane,
    running: Dict[int, ActiveJob],
    records: Dict[int, JobRecord],
    now: int,
) -> int:
    """Release every job whose completion time has arrived; returns count."""
    done_ids = [
        job_id
        for job_id, job in running.items()
        if job.network_done and job.compute_end <= now and (job.network_end or 0) <= now
    ]
    for job_id in done_ids:
        job = running.pop(job_id)
        plane.remove_job(job_id)
        manager.release(job.tenancy)
        completion = job.completion_time()
        assert completion is not None and completion <= now
        records[job_id] = JobRecord(
            job_id=job_id,
            n_vms=job.spec.n_vms,
            submit_time=job.spec.submit_time,
            start_time=job.start_time,
            completion_time=completion,
            compute_time=job.spec.compute_time,
        )
    return len(done_ids)


def run_batch(
    tree,
    specs: Sequence[JobSpec],
    model: str = "svc",
    epsilon: float = 0.05,
    allocator: Optional[Allocator] = None,
    rng: Optional[np.random.Generator] = None,
    max_time: int = 2_000_000,
    percentile: float = 95.0,
    rate_cap="nic",
) -> BatchResult:
    """Simulate the batched-jobs scenario (Section VI-B1).

    Jobs are queued FIFO at ``t = 0``; the head starts whenever it fits.
    A job that cannot fit even in an *empty* datacenter is recorded as
    unschedulable and skipped so the queue never deadlocks.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if allocator is None:
        allocator = allocator_for_model(model)
    manager = NetworkManager(tree, epsilon=epsilon, allocator=allocator)
    plane = DataPlane(tree, rng)
    cap = _resolve_rate_cap(tree, rate_cap)
    queue = deque(
        (spec, make_request(spec, model, percentile=percentile, rate_cap=cap))
        for spec in specs
    )
    running: Dict[int, ActiveJob] = {}
    records: Dict[int, JobRecord] = {}
    unschedulable: List[int] = []
    makespan = 0
    now = 0

    def try_schedule() -> None:
        while queue:
            spec, request = queue[0]
            job = _start_job(manager, plane, running, spec, request, now)
            if job is None:
                if not running:
                    # Would never fit: the datacenter is as empty as it gets.
                    unschedulable.append(spec.job_id)
                    queue.popleft()
                    continue
                break
            queue.popleft()

    try_schedule()
    while running or queue:
        if now > max_time:
            raise RuntimeError(f"batch simulation exceeded {max_time} steps")
        plane.step(now)
        now += 1
        if _retire_completed(manager, plane, running, records, now):
            makespan = now
            try_schedule()
    return BatchResult(
        records=[records[key] for key in sorted(records)],
        makespan=makespan,
        unschedulable=unschedulable,
    )


def run_online(
    tree,
    specs: Sequence[JobSpec],
    model: str = "svc",
    epsilon: float = 0.05,
    allocator: Optional[Allocator] = None,
    rng: Optional[np.random.Generator] = None,
    drain: bool = True,
    max_time: int = 2_000_000,
    percentile: float = 95.0,
    rate_cap="nic",
    track_outages: bool = False,
    track_levels: bool = False,
) -> OnlineResult:
    """Simulate the dynamically-arriving-jobs scenario (Section VI-B2).

    ``specs`` must carry Poisson ``submit_time`` stamps (see
    :func:`repro.simulation.workload.assign_poisson_arrivals`).  An arrival
    that cannot be allocated on the spot is rejected.  With ``drain=True``
    the simulation runs until all admitted jobs finish.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if allocator is None:
        allocator = allocator_for_model(model)
    manager = NetworkManager(tree, epsilon=epsilon, allocator=allocator)
    plane = DataPlane(tree, rng, track_outages=track_outages)
    if track_outages:
        # Publish the bound the empirical monitor is measured against, so
        # the metrics endpoint can compare rate vs epsilon live (Eq. 1).
        outage_monitor().set_epsilon(epsilon)
    cap = _resolve_rate_cap(tree, rate_cap)
    arrivals = deque(
        (spec, make_request(spec, model, percentile=percentile, rate_cap=cap))
        for spec in sorted(specs, key=lambda item: item.submit_time)
    )
    running: Dict[int, ActiveJob] = {}
    records: Dict[int, JobRecord] = {}
    concurrency_samples: List[Tuple[float, int]] = []
    occupancy_samples: List[Tuple[float, float]] = []
    level_samples: List[Tuple[float, Dict[int, float]]] = []
    num_rejected = 0
    num_arrivals = len(arrivals)
    now = 0

    while arrivals or (drain and running):
        if now > max_time:
            raise RuntimeError(f"online simulation exceeded {max_time} steps")
        _retire_completed(manager, plane, running, records, now)
        while arrivals and arrivals[0][0].submit_time <= now:
            spec, request = arrivals.popleft()
            concurrency_samples.append((spec.submit_time, len(running)))
            job = _start_job(manager, plane, running, spec, request, now)
            if job is None:
                num_rejected += 1
                records[spec.job_id] = JobRecord(
                    job_id=spec.job_id,
                    n_vms=spec.n_vms,
                    submit_time=spec.submit_time,
                    start_time=None,
                    completion_time=None,
                    compute_time=spec.compute_time,
                )
            occupancy_samples.append((spec.submit_time, manager.max_occupancy()))
            if track_levels:
                from repro.network.snapshot import utilization_by_level

                level_samples.append(
                    (
                        spec.submit_time,
                        {
                            row.level: row.mean_occupancy
                            for row in utilization_by_level(manager.state)
                        },
                    )
                )
        if not running and not arrivals:
            break
        if not running and arrivals:
            # Fast-forward the idle gap to the next arrival.
            now = max(now + 1, int(arrivals[0][0].submit_time))
            continue
        plane.step(now)
        now += 1
    # Jobs still running when the horizon closed (drain=False) are recorded
    # as started-but-incomplete.
    for job_id, job in running.items():
        records[job_id] = JobRecord(
            job_id=job_id,
            n_vms=job.spec.n_vms,
            submit_time=job.spec.submit_time,
            start_time=job.start_time,
            completion_time=None,
            compute_time=job.spec.compute_time,
        )
    outage_seconds, loaded_seconds = plane.outage_statistics()
    return OnlineResult(
        records=[records[key] for key in sorted(records)],
        num_arrivals=num_arrivals,
        num_rejected=num_rejected,
        concurrency_samples=concurrency_samples,
        occupancy_samples=occupancy_samples,
        outage_link_seconds=outage_seconds,
        loaded_link_seconds=loaded_seconds,
        level_occupancy_samples=level_samples,
    )
