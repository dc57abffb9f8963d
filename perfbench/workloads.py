"""The four workloads and how one repetition of each is executed.

Every workload is a pre-generated :class:`~repro.workload.trace.Trace`
(made from the seed, outside any timed region) replayed against a stack
built by :func:`repro.experiments.runner.build_system` -- or, for
``scale-sharded``, by :func:`repro.sim.shard.run_sharded`, which builds
one stack per forked shard worker.  The load generator is therefore not
part of any measurement.  All load comes from this one process (plus
the shard workers it forks).
"""

from __future__ import annotations

import dataclasses
import gc
from contextlib import nullcontext
from time import perf_counter
from typing import Callable

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    STORAGE_SAMPLES,
    TELEMETRY_SAMPLES,
    build_system,
)
from repro.metrics.fingerprint import behavior_digest
from repro.metrics.memory import peak_rss_bytes, reset_peak_rss
from repro.sim import shard as shard_module
from repro.sim.rng import RandomStreams
from repro.sim.shard import ShardWorker, partition_ring, ring_node_ids, run_sharded
from repro.telemetry import Telemetry
from repro.workload.churn import ChurnDriver, ChurnSpec
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

#: Simulated seconds past the last trace op (``Trace.replay``'s default).
HORIZON_SLACK = 60.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: The workload's name in ``BENCHMARK.json``, which also
            says why it is there and which layers it loads and bypasses.
        sizes: ``size -> (nodes, subscriptions, publications)``;
            ``full`` is the benchmark, ``tiny`` the self-test.
        config: ``(seed, nodes, subscriptions, publications) -> config``.
        telemetry: Run with the load observatory on.
        churn: Poisson membership churn during the replay.
        endpoint_share: Fraction of the ring that injects trace ops (the
            rest is free to churn).
        shards: Forked shard workers (1 = the serial kernel).
        tail_pct: The delay-tail percentile, fixed low enough that well
            over ten notifications lie beyond it at every seed; a run
            with fewer than ten stops rather than report it.
    """

    name: str
    sizes: dict[str, tuple[int, int, int]]
    config: Callable[[int, int, int, int], ExperimentConfig]
    telemetry: bool = False
    churn: Callable[[int], ChurnSpec] | None = None
    endpoint_share: float = 1.0
    shards: int = 1
    tail_pct: int = 90


def _attr_split(seed, nodes, subs, pubs) -> ExperimentConfig:
    return ExperimentConfig(
        mapping="attribute-split", nodes=nodes, subscriptions=subs,
        publications=pubs, seed=seed,
    )


def _flash_crowd(seed, nodes, subs, pubs) -> ExperimentConfig:
    return ExperimentConfig(
        mapping="selective-attribute", nodes=nodes, subscriptions=subs,
        publications=pubs, seed=seed,
        workload=WorkloadSpec(
            selective_attributes=(0, 1),
            zipf_exponent=1.6,
            temporal_locality=0.9,
            constraint_probability=0.5,
        ),
    )


def _churn(seed, nodes, subs, pubs) -> ExperimentConfig:
    return ExperimentConfig(
        mapping="selective-attribute", nodes=nodes, subscriptions=subs,
        publications=pubs, seed=seed, replication_factor=2,
    )


def _churn_spec(nodes: int) -> ChurnSpec:
    return ChurnSpec(
        join_period=2.0, leave_period=2.0, crash_period=10.0,
        min_ring_size=max(8, nodes // 2),
    )


def _scale_sharded(seed, nodes, subs, pubs) -> ExperimentConfig:
    # bench_scale.py's smoke rates and at-scale settings, default matcher.
    return ExperimentConfig(
        nodes=nodes, key_bits=13, subscriptions=subs, publications=pubs,
        seed=seed, discretization_width=256, cache_capacity=1024, shards=2,
        workload=WorkloadSpec(
            subscription_period=0.05,
            publication_mean_period=0.01,
            subscription_ttl=20.0,
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="attr-split",
            sizes={"full": (2000, 400, 800), "tiny": (200, 30, 60)},
            config=_attr_split,
        ),
        Workload(
            name="flash-crowd",
            sizes={"full": (2000, 1000, 2400), "tiny": (200, 40, 100)},
            config=_flash_crowd,
            telemetry=True,
        ),
        Workload(
            name="churn",
            # ~2.3 s repetitions: a run's median rests on nine or more.
            sizes={"full": (400, 600, 1200), "tiny": (60, 20, 40)},
            config=_churn,
            churn=_churn_spec,
            endpoint_share=0.25,
        ),
        Workload(
            name="scale-sharded",
            sizes={"full": (4000, 400, 4000), "tiny": (200, 20, 80)},
            config=_scale_sharded,
            shards=2,
            tail_pct=95,
        ),
    )
}


@dataclasses.dataclass
class Prepared:
    """A workload's inputs for one seed, built before any timing."""

    workload: Workload
    config: ExperimentConfig
    trace: Trace
    endpoints: list[int]

    @property
    def ops(self) -> int:
        return len(self.trace)

    @property
    def horizon(self) -> float:
        return self.trace.ops[-1].time + HORIZON_SLACK


def prepare(workload: Workload, seed: int, size: str = "full") -> Prepared:
    """Generate the trace (the load generator's work) from the seed."""
    nodes, subs, pubs = workload.sizes[size]
    config = workload.config(seed, nodes, subs, pubs)
    ring = ring_node_ids(config)
    endpoints = ring[: max(1, int(len(ring) * workload.endpoint_share))]
    trace = Trace.generate(
        config.workload, RandomStreams(seed).stream("workload"), endpoints,
        subs, pubs,
    )
    return Prepared(workload, config, trace, endpoints)


@dataclasses.dataclass
class Rep:
    """The outcome of one repetition."""

    replay_s: float
    digest: str
    rss_bytes: int
    recorder: object
    events: int
    delivered: dict[tuple[int, int, int], float] | None
    """Triple -> delay of its first delivery; None when not observed."""
    system: object = None
    shard: object = None
    churn: dict | None = None
    facts: dict | None = None
    """Simulated-outcome counts, filled in by the harness."""


def _build(prep: Prepared):
    """The serial stack, its delivery collector and churn driver."""
    workload, config = prep.workload, prep.config
    telemetry = Telemetry() if workload.telemetry else None
    sim, system = build_system(config, RandomStreams(config.seed), telemetry)
    delivered: dict[tuple[int, int, int], float] = {}

    def collect(node_id, notifications) -> None:
        now = sim.now
        for note in notifications:
            delivered.setdefault(
                (node_id, note.event.event_id, note.subscription_id),
                now - note.published_at,
            )

    system.set_global_notify_handler(collect)
    horizon = prep.horizon
    for sample in range(1, STORAGE_SAMPLES + 1):
        sim.schedule_at(horizon * sample / STORAGE_SAMPLES, system.snapshot_storage)
    if telemetry is not None:
        telemetry.sample(0.0)
        for sample in range(1, TELEMETRY_SAMPLES + 1):
            at = horizon * sample / TELEMETRY_SAMPLES
            sim.schedule_at(at, telemetry.sample, at)
    churn = None
    if workload.churn is not None:
        churn = ChurnDriver(
            system, workload.churn(config.nodes),
            RandomStreams(config.seed).stream("churn"),
            protected=set(prep.endpoints),
        )
    return sim, system, churn, delivered


def run_serial(prep: Prepared, root=None) -> Rep:
    """Build the stack, replay the trace, collect every delivery.

    ``root`` is an optional context manager (the traced run's root span)
    entered around the replay only.
    """
    gc.collect()
    reset_peak_rss()
    sim, system, churn, delivered = _build(prep)
    with root if root is not None else nullcontext():
        start = perf_counter()
        if churn is not None:
            churn.start()
        prep.trace.replay(system, horizon_slack=HORIZON_SLACK)
        if churn is not None:
            churn.stop()
        replay_s = perf_counter() - start
    return Rep(
        replay_s=replay_s,
        digest=behavior_digest(system.recorder),
        rss_bytes=peak_rss_bytes(),
        recorder=system.recorder,
        events=sim.events_processed,
        delivered=delivered,
        system=system,
        churn=None if churn is None else {
            "joins": churn.joins, "leaves": churn.leaves,
            "crashes": churn.crashes,
        },
    )


def run_fork(prep: Prepared, root=None, observe: bool = False) -> Rep:
    """One ``run_sharded`` execution over forked workers.

    With ``observe`` the workers record the application hook stream the
    sharded post-hoc oracle consumes (``AuditTap``), and the merged
    stream is taken from that oracle's entry point instead of being
    replayed into an auditor: it yields the delivered triples for this
    benchmark's own oracle.  Observing is off in every timed repetition.
    """
    from repro.audit import AuditConfig

    captured: list = []
    original = shard_module.replay_audit

    def capture(config, recorder, records, horizon, audit, telemetry=None):
        captured.extend(records)
        return None

    gc.collect()
    reset_peak_rss()
    if observe:
        shard_module.replay_audit = capture
    try:
        with root if root is not None else nullcontext():
            start = perf_counter()
            outcome = run_sharded(
                prep.config, prep.trace, prep.workload.shards,
                audit=AuditConfig() if observe else None,
                horizon_slack=HORIZON_SLACK,
                storage_samples=STORAGE_SAMPLES,
            )
            replay_s = perf_counter() - start
    finally:
        shard_module.replay_audit = original
    coordinator = peak_rss_bytes()
    delivered = None
    if observe:
        delivered = {}
        for time, _shard, _seq, kind, args in captured:
            if kind == "notifications":
                node_id, notifications = args
                for note in notifications:
                    delivered.setdefault(
                        (node_id, note.event.event_id, note.subscription_id),
                        time - note.published_at,
                    )
    return Rep(
        replay_s=replay_s,
        digest=behavior_digest(outcome.recorder),
        rss_bytes=coordinator + sum(outcome.peak_rss_by_shard),
        recorder=outcome.recorder,
        events=sum(outcome.events_per_shard),
        delivered=delivered,
        shard=outcome,
    )


def setup_once(prep: Prepared) -> float:
    """Wall time of one stack build, with nothing replayed on it.

    For ``scale-sharded`` this is the slowest shard worker's build: each
    forked worker builds its own stack in parallel after the fork, so
    the longest build is what the run waits for.  It is built here in
    process from the same arguments ``run_sharded`` hands each worker.
    """
    if prep.workload.shards == 1:
        start = perf_counter()
        _build(prep)
        return perf_counter() - start
    config, shards = prep.config, prep.workload.shards
    ring = ring_node_ids(config)
    arcs, shard_of = partition_ring(ring, shards)
    per_shard = [[] for _ in range(shards)]
    for op in prep.trace.ops:
        per_shard[shard_of[op.node]].append(op)
    horizon = prep.horizon
    snapshots = [horizon * s / STORAGE_SAMPLES for s in range(1, STORAGE_SAMPLES + 1)]
    slowest = 0.0
    for shard in range(shards):
        start = perf_counter()
        ShardWorker(
            config, shard, shards, ring, arcs[shard], per_shard[shard],
            snapshots, False,
        )
        slowest = max(slowest, perf_counter() - start)
    return slowest
