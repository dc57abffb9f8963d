"""Experiment configuration.

Defaults follow Section 5.1: key space 2^13, n = 500 nodes, 50 ms hop
delay, subscriptions every 5 s, Poisson publications (mean 5 s),
matching probability 0.5, 4 non-selective attributes.
"""

from __future__ import annotations

import dataclasses

from repro.core.system import PubSubConfig, RoutingMode
from repro.errors import ConfigurationError
from repro.workload.spec import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one simulation run.

    Attributes:
        mapping: ``"attribute-split"`` / ``"keyspace-split"`` /
            ``"selective-attribute"``.
        routing: Propagation mode for multi-key requests.
        overlay: Routing substrate (``"chord"`` / ``"pastry"`` /
            ``"can"``); all three implement the same overlay contract.
        nodes: Ring size n.
        key_bits: m; the paper's key space is 2^13.
        message_delay: One-hop latency in seconds.
        cache_capacity: Per-node location-cache size (the "finger
            caching" that yields ~2.5 unicast hops at n=500).
        seed: Root seed; every random stream derives from it.
        subscriptions: Number of subscriptions to inject.
        publications: Number of publications to inject.
        workload: Section 5.1 workload parameters.
        buffering / collecting / buffer_period: Section 4.3.2 switches.
        discretization_width: Section 4.3.3 interval width in attribute
            value units (1 = no discretization), applied uniformly.
        replication_factor: Successor replicas per stored subscription.
        matcher: Rendezvous matching engine ("grid" or "brute").
        covering: Covering-aware rendezvous stores (None = on unless
            the matcher is "brute"; see
            :class:`~repro.core.system.PubSubConfig`).
        event_attribute: The attribute Mapping 1 hashes events by.
        shards: Parallel shard workers for the run (1 = the serial
            kernel).  Sharded runs pre-generate the workload as a
            trace and execute it with :mod:`repro.sim.shard`.
        shard_profile: Attach the shard execution profiler
            (:mod:`repro.telemetry.profile`) to the run: per-round
            busy/stall timelines, critical-path summary, rebalance
            advisor.  Pure wall-clock observation — the simulated
            outcome is bit-for-bit identical either way.  Requires
            ``shards > 1``.
        shard_cuts: Explicit arc start offsets for ``partition_ring``
            (the rebalance advisor's suggested cut points); None keeps
            the default near-equal node-count split.  Requires
            ``shards > 1``.
    """

    mapping: str = "selective-attribute"
    routing: RoutingMode = RoutingMode.MCAST
    overlay: str = "chord"
    nodes: int = 500
    key_bits: int = 13
    message_delay: float = 0.05
    cache_capacity: int = 128
    seed: int = 42
    subscriptions: int = 500
    publications: int = 500
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)
    buffering: bool = False
    collecting: bool = False
    buffer_period: float = 5.0
    discretization_width: int = 1
    replication_factor: int = 0
    matcher: str = "grid"
    covering: bool | None = None
    event_attribute: int = 0
    shards: int = 1
    shard_profile: bool = False
    shard_cuts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("need at least one shard")
        if self.shard_profile and self.shards < 2:
            raise ConfigurationError(
                "shard_profile requires shards > 1: the profiler rides the "
                "sharded kernel's barrier rounds"
            )
        if self.shard_cuts is not None and self.shards < 2:
            raise ConfigurationError(
                "shard_cuts requires shards > 1"
            )
        if self.shards > 1 and self.message_delay <= 0:
            raise ConfigurationError(
                "sharded runs need message_delay > 0 (the conservative "
                "window's lookahead)"
            )
        if self.shards > self.nodes:
            raise ConfigurationError(
                f"{self.shards} shards for {self.nodes} nodes: every shard "
                "needs at least one node"
            )
        if self.overlay not in ("chord", "pastry", "can"):
            raise ConfigurationError(
                f"unknown overlay {self.overlay!r} "
                "(choose chord, pastry or can)"
            )
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.nodes > (1 << self.key_bits):
            raise ConfigurationError(
                f"{self.nodes} nodes do not fit a {self.key_bits}-bit key space"
            )
        if self.discretization_width < 1:
            raise ConfigurationError("discretization_width must be >= 1")
        # Section 4.3.3's sizing rule: the total number of possible
        # intervals of the (d-dimensional) event space — its total size
        # divided by the interval size — should stay above the number
        # of nodes, or some nodes can never be rendezvous and load
        # imbalance follows.
        per_attribute = max(1, self.workload.domain_size // self.discretization_width)
        total_intervals = 1
        for _ in range(self.workload.dimensions):
            total_intervals *= per_attribute
            if total_intervals >= self.nodes:
                break
        if total_intervals < self.nodes:
            raise ConfigurationError(
                f"discretization width {self.discretization_width} leaves only "
                f"{total_intervals} event-space intervals for {self.nodes} "
                "nodes (Section 4.3.3 sizing rule)"
            )

    def pubsub_config(self) -> PubSubConfig:
        """The derived CB-pub/sub layer configuration."""
        return PubSubConfig(
            routing=self.routing,
            buffering=self.buffering,
            collecting=self.collecting,
            buffer_period=self.buffer_period,
            default_ttl=self.workload.subscription_ttl,
            replication_factor=self.replication_factor,
            matcher=self.matcher,
            covering=self.covering,
        )
