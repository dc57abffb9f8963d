"""The sharded kernel: window primitives, partitioning, parity, audit.

The contract under test (see ``repro/sim/shard.py``):

- ``--shards 1`` reproduces a serial :meth:`Trace.replay` of the same
  trace **bit for bit** (behavior digest over every send, trace and
  delivery), for all three overlays.
- K > 1 is deterministic across repeats and across worker modes
  (inline vs fork), and the post-hoc delivery-oracle audit reports
  zero violations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import AuditConfig
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.metrics.fingerprint import behavior_digest
from repro.metrics.recorder import MetricsRecorder
from repro.overlay.api import MessageKind, OverlayMessage
from repro.overlay.network import FixedDelay, ShardNetwork
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import partition_ring, ring_node_ids, run_sharded
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


# -- kernel window primitives ------------------------------------------------


def test_next_event_time_peeks_without_firing():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "a")
    sim.schedule_at(1.0, fired.append, "b")
    assert sim.next_event_time() == 1.0
    assert fired == []
    assert sim.now == 0.0


def test_next_event_time_skips_cancelled_tops():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    handle.cancel()
    assert sim.next_event_time() == 2.0
    assert sim.next_event_time() == 2.0  # idempotent peek


def test_next_event_time_empty():
    assert Simulator().next_event_time() is None


def test_run_before_fires_strictly_below_bound():
    sim = Simulator()
    fired = []
    for time in (1.0, 2.0, 3.0):
        sim.schedule_at(time, fired.append, time)
    assert sim.run_before(3.0) == 2
    assert fired == [1.0, 2.0]
    # The clock stays at the last fired event, never at the bound:
    # remote messages may still be injected at exactly the bound.
    assert sim.now == 2.0
    assert sim.next_event_time() == 3.0


def test_run_before_processes_events_scheduled_during_window():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        sim.schedule_at(sim.now + 0.4, chain)

    sim.schedule_at(0.1, chain)
    sim.run_before(1.0)
    assert fired == [0.1, 0.5, 0.9]


def test_run_before_rejects_past_bound():
    sim = Simulator()
    sim.schedule_at(5.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_before(4.0)


# -- ring partitioning -------------------------------------------------------


def test_partition_ring_contiguous_and_complete():
    rng = random.Random(3)
    ids = rng.sample(range(8192), 100)
    locals_, shard_of = partition_ring(ids, 4)
    assert sum(len(arc) for arc in locals_) == 100
    assert set().union(*locals_) == set(ids)
    ordered = sorted(ids)
    # Each arc is a contiguous run of the sorted ring.
    start = 0
    for shard, arc in enumerate(locals_):
        run = ordered[start:start + len(arc)]
        assert set(run) == arc
        assert all(shard_of[node] == shard for node in run)
        start += len(arc)


def test_partition_ring_near_equal_sizes():
    locals_, _ = partition_ring(list(range(10)), 3)
    assert sorted(len(arc) for arc in locals_) == [3, 3, 4]


def test_partition_ring_rejects_bad_counts():
    with pytest.raises(ConfigurationError):
        partition_ring([1, 2, 3], 0)
    with pytest.raises(ConfigurationError):
        partition_ring([1, 2, 3], 4)


# -- shard network -----------------------------------------------------------


def _message(kind=MessageKind.CONTROL):
    return OverlayMessage(kind=kind, payload=None, request_id=1, origin=7)


def test_shard_network_outboxes_remote_charges_send():
    sim = Simulator()
    network = ShardNetwork(sim, FixedDelay(0.05), local=frozenset({1}))
    got = []
    network.register(1, got.append)
    network.transmit(1, 99, _message())  # 99 is remote
    assert network.recorder.messages.total_sends(MessageKind.CONTROL) == 1
    outbox = network.drain_outbox()
    assert [(dst, arrival) for dst, arrival, _ in outbox] == [(99, 0.05)]
    assert network.drain_outbox() == []  # drained
    sim.run()
    assert got == []  # nothing entered the local inbox


def test_shard_network_local_transmit_unchanged():
    sim = Simulator()
    network = ShardNetwork(sim, FixedDelay(0.05), local=frozenset({1, 2}))
    got = []
    network.register(2, got.append)
    message = _message()
    network.transmit(1, 2, message)
    sim.run()
    assert got == [message]
    assert network.drain_outbox() == []


def test_shard_network_inject_delivers_in_merge_order():
    sim = Simulator()
    network = ShardNetwork(sim, FixedDelay(0.05), local=frozenset({5}))
    got = []
    network.register(5, got.append)
    first, second = _message(), _message()
    network.inject([(5, 1.0, first), (5, 1.0, second)])
    sim.run()
    assert got == [first, second]
    assert sim.now == 1.0


# -- serial parity and determinism ------------------------------------------


def _make_trace(config: ExperimentConfig) -> Trace:
    streams = RandomStreams(config.seed)
    return Trace.generate(
        config.workload,
        streams.stream("workload"),
        ring_node_ids(config),
        config.subscriptions,
        config.publications,
    )


def _serial_digest(config: ExperimentConfig, trace: Trace) -> str:
    _, system = build_system(config, RandomStreams(config.seed))
    trace.replay(system)
    return behavior_digest(system.recorder)


@pytest.mark.parametrize("overlay", ["chord", "pastry", "can"])
def test_one_shard_reproduces_serial_replay(overlay):
    config = ExperimentConfig(
        overlay=overlay, nodes=500, subscriptions=200, publications=200,
        seed=20260808,
    )
    trace = _make_trace(config)
    outcome = run_sharded(config, trace, 1, mode="inline", audit=AuditConfig())
    assert behavior_digest(outcome.recorder) == _serial_digest(config, trace)
    assert outcome.audit is not None and outcome.audit.violations == []
    assert outcome.barrier_rounds == 0  # a lone shard never barriers
    assert outcome.remote_messages == 0


@pytest.mark.parametrize("overlay", ["chord", "pastry", "can"])
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_runs_deterministic_and_audit_clean(overlay, shards):
    config = ExperimentConfig(
        overlay=overlay, nodes=500, subscriptions=150, publications=150,
        seed=20260808,
    )
    trace = _make_trace(config)
    first = run_sharded(
        config, trace, shards, mode="fork", audit=AuditConfig()
    )
    again = run_sharded(config, trace, shards, mode="fork")
    inline = run_sharded(config, trace, shards, mode="inline")
    digest = behavior_digest(first.recorder)
    assert digest == behavior_digest(again.recorder)
    assert digest == behavior_digest(inline.recorder)
    assert first.audit is not None and first.audit.violations == []
    assert first.remote_messages > 0  # the workload does cross shards
    assert sum(first.events_per_shard) > 0
    # Every trace and delivery accounted for across the shard merge.
    assert len(first.recorder.messages.requests_of_kind(
        MessageKind.PUBLICATION
    )) == config.publications


def test_per_shard_load_totals_sum_to_merged_sends():
    config = ExperimentConfig(
        nodes=200, subscriptions=80, publications=80, seed=20260808,
    )
    trace = _make_trace(config)
    outcome = run_sharded(config, trace, 3, mode="inline")
    assert len(outcome.load_by_shard) == 3
    # Per-shard loads are the pre-merge recorder send counts, so their
    # sum must equal the merged recorder's total exactly.
    assert sum(outcome.load_by_shard) == outcome.recorder.messages.total_sends()
    assert outcome.load_imbalance >= 1.0
    # ... and equal the serial replay's total: sharding moves work
    # between workers but never changes what the simulation sends.
    _, system = build_system(config, RandomStreams(config.seed))
    trace.replay(system)
    assert sum(outcome.load_by_shard) == system.recorder.messages.total_sends()


def test_load_imbalance_ratio():
    from repro.sim.shard import ShardRunReport

    def report(loads):
        return ShardRunReport(
            recorder=MetricsRecorder(), audit=None, num_shards=len(loads),
            horizon=0.0, barrier_rounds=0, remote_messages=0,
            barrier_stalls=0, events_per_shard=[], peak_rss_by_shard=[],
            load_by_shard=loads,
        )

    assert report([]).load_imbalance == 0.0
    assert report([0, 0]).load_imbalance == 0.0
    assert report([10, 10, 10]).load_imbalance == 1.0
    # Median of [2, 10, 30] is 10; max/median = 3.
    assert report([30, 2, 10]).load_imbalance == 3.0
    # Even count averages the middle two: median of [1, 3] is 2.
    assert report([1, 3]).load_imbalance == 1.5


def test_sharded_storage_snapshots_cover_all_nodes():
    config = ExperimentConfig(
        nodes=120, subscriptions=80, publications=40, seed=11,
        workload=WorkloadSpec(subscription_ttl=None),
    )
    trace = _make_trace(config)
    outcome = run_sharded(config, trace, 3, mode="inline")
    final = outcome.recorder.storage.latest()
    assert len(final) == config.nodes
    assert sum(final.values()) > 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    overlay=st.sampled_from(["chord", "pastry", "can"]),
    shards=st.integers(min_value=2, max_value=4),
)
def test_shard_property_small_rings(seed, overlay, shards):
    """K=1 parity + K>1 determinism on randomized small configurations."""
    config = ExperimentConfig(
        overlay=overlay, nodes=60, subscriptions=40, publications=30,
        seed=seed,
    )
    trace = _make_trace(config)
    one = run_sharded(config, trace, 1, mode="inline")
    assert behavior_digest(one.recorder) == _serial_digest(config, trace)
    many = run_sharded(config, trace, shards, mode="inline",
                       audit=AuditConfig())
    again = run_sharded(config, trace, shards, mode="inline")
    assert behavior_digest(many.recorder) == behavior_digest(again.recorder)
    assert many.audit is not None and many.audit.violations == []


@pytest.mark.parametrize(
    "overlay,seed",
    [("chord", 40), ("chord", 288), ("pastry", 40), ("can", 111), ("can", 288)],
)
@pytest.mark.parametrize("shards", [1, 2])
def test_self_notifying_publisher_is_audited_clean(overlay, seed, shards):
    """Seeds where a publisher is its own rendezvous node and subscriber.

    Its notification arrives synchronously inside ``publish``; the
    oracle must already expect it, or it reports a missed delivery.
    """
    config = ExperimentConfig(
        overlay=overlay, nodes=60, subscriptions=40, publications=30,
        seed=seed,
    )
    outcome = run_sharded(config, _make_trace(config), shards, mode="inline",
                          audit=AuditConfig())
    assert outcome.audit is not None and outcome.audit.violations == []


# -- configuration and runner dispatch --------------------------------------


def test_config_validates_shards():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(shards=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(shards=2, message_delay=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(shards=8, nodes=4)


def test_config_profile_and_cuts_require_sharding():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(shard_profile=True)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(shard_cuts=(0, 50))
    config = ExperimentConfig(shards=2, shard_profile=True,
                              shard_cuts=(0, 50))
    assert config.shard_cuts == (0, 50)


def test_run_sharded_rejects_zero_delay_and_bad_mode():
    config = ExperimentConfig(nodes=20, subscriptions=5, publications=5)
    trace = _make_trace(config)
    zero_delay = ExperimentConfig(
        nodes=20, subscriptions=5, publications=5, message_delay=0.0
    )
    with pytest.raises(ConfigurationError):
        run_sharded(zero_delay, trace, 2, mode="inline")
    with pytest.raises(ConfigurationError):
        run_sharded(config, trace, 2, mode="threads")


def test_run_experiment_dispatches_to_sharded_kernel():
    config = ExperimentConfig(
        nodes=100, subscriptions=60, publications=60, seed=5, shards=2
    )
    result = run_experiment(config, audit=AuditConfig())
    assert result.subscriptions_sent == 60
    assert result.publications_sent == 60
    assert result.audit is not None and result.audit.ok
    assert result.pub_hops.mean > 0
    assert result.keys_per_publication > 0
