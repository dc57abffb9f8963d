"""Self-tests of the benchmark: metric coverage, oracle, span accounting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

import harness
import oracle
import probes
import workloads

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result = harness.measure(workload, 3, 0.05, trace, size="tiny",
                             out_dir=tmp_path, min_beyond=0)
    wanted = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == wanted
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workloads.WORKLOADS[workload].churn is None:
        # Under churn, notifications lost to crashes are measured as
        # failed publications; elsewhere nothing may fail.
        assert result["failed"] == 0


def test_benchmark_json_names_the_workloads_this_code_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert harness.why(entry["name"]) == entry["why"]



def test_a_thin_delay_tail_stops_the_run():
    # 15 delays lie beyond p90 but none beyond p95.
    delays = [0.05] * 60 + [0.10] * 30 + [0.15] * 15
    assert harness.delay_stats(delays, 0.05, 90)["tail_pct"] == 90
    with pytest.raises(harness.ThinTail):
        harness.delay_stats(delays, 0.05, 95)

@pytest.fixture(scope="module")
def attr_split_rep():
    bench = harness.Bench("attr-split", 5, size="tiny")
    rep = bench.once()
    return bench, rep


def test_oracle_accepts_the_real_delivery_stream(attr_split_rep):
    bench, rep = attr_split_rep
    verdict = oracle.check(bench.expectation, rep.delivered)
    assert verdict.expected > 0
    assert (verdict.missed, verdict.false, verdict.failed_pubs) == (0, 0, 0)


def test_oracle_flags_a_dropped_notification(attr_split_rep):
    bench, rep = attr_split_rep
    delivered = set(rep.delivered)
    dropped = sorted(bench.expectation.expected)[0]
    delivered.discard(dropped)
    verdict = oracle.check(bench.expectation, delivered)
    assert verdict.missed == 1
    assert verdict.false == 0
    assert verdict.failed_pubs == 1
    assert verdict.miss_share == pytest.approx(1 / verdict.expected)


def test_oracle_flags_a_forged_notification(attr_split_rep):
    bench, rep = attr_split_rep
    node, event_id, _ = sorted(bench.expectation.expected)[0]
    known = bench.expectation.expected | bench.expectation.indeterminate
    sids = sorted(
        op.subscription.subscription_id
        for op in bench.prep.trace.ops if op.kind == "sub"
    )
    forged = next(
        (node, event_id, sid) for sid in sids
        if (node, event_id, sid) not in known
    )
    verdict = oracle.check(bench.expectation, set(rep.delivered) | {forged})
    assert verdict.false == 1
    assert verdict.missed == 0
    assert verdict.failed_pubs == 1


def test_oracle_grace_covers_installs_racing_a_publication():
    from repro.core.subscriptions import Subscription
    from repro.workload.spec import WorkloadSpec
    from repro.workload.trace import TraceOp

    space = WorkloadSpec().make_space()
    event = space.make_event(a1=5, a2=5, a3=5, a4=5)

    def sub(time, node):
        return TraceOp(time=time, kind="sub", node=node,
                       subscription=Subscription.build(space, a1=(0, 10)))

    ops = [sub(1.0, 1), sub(9.0, 2), TraceOp(time=10.0, kind="pub", node=9,
           event=event), sub(10.5, 3), sub(13.0, 4)]
    got = oracle.expect(ops)
    sids = {op.node: op.subscription.subscription_id
            for op in ops if op.kind == "sub"}
    eid = event.event_id
    assert got.expected == {(1, eid, sids[1])}
    # Installed 1 s before, or 0.5 s after (it may overtake the
    # publication to the rendezvous): either outcome is legitimate.
    assert got.indeterminate == {(2, eid, sids[2]), (3, eid, sids[3])}



def test_oracle_grace_covers_expiries_on_both_sides():
    from repro.core.subscriptions import Subscription
    from repro.workload.spec import WorkloadSpec
    from repro.workload.trace import TraceOp

    space = WorkloadSpec().make_space()
    event = space.make_event(a1=5, a2=5, a3=5, a4=5)

    def sub(node, ttl):
        return TraceOp(time=1.0, kind="sub", node=node, ttl=ttl,
                       subscription=Subscription.build(space, a1=(0, 10)))

    # Trace-time expiries at 6.0, 9.5, 11.5 and 13.0; published at 10.0.
    ops = [sub(1, 5.0), sub(2, 8.5), sub(3, 10.5), sub(4, 12.0),
           TraceOp(time=10.0, kind="pub", node=9, event=event)]
    got = oracle.expect(ops)
    sids = {op.node: op.subscription.subscription_id
            for op in ops if op.kind == "sub"}
    eid = event.event_id
    assert got.expected == {(4, eid, sids[4])}
    # Expired 0.5 s before the publication by the trace's clock, but the
    # rendezvous copy may still live (its TTL starts on arrival there);
    # or expiring 1.5 s after it: either outcome is legitimate.
    assert got.indeterminate == {(2, eid, sids[2]), (3, eid, sids[3])}

def test_fingerprint_drift_is_fatal(attr_split_rep):
    bench, rep = attr_split_rep
    drifted = dataclasses.replace(rep, digest="0" * 64)
    with pytest.raises(harness.FingerprintDrift):
        bench.check(drifted)


def test_delivery_drift_is_fatal(attr_split_rep):
    bench, rep = attr_split_rep
    delivered = dict(rep.delivered)
    del delivered[sorted(bench.expectation.expected)[0]]
    with pytest.raises(harness.FingerprintDrift):
        bench.check(dataclasses.replace(rep, delivered=delivered))


def test_attempted_and_failed_do_not_depend_on_the_repetition_count():
    bench = harness.Bench("churn", 4, size="tiny")
    bench.once()
    once = harness.correctness(bench)
    bench.once()
    bench.once()
    thrice = harness.correctness(bench)
    assert once["attempted"] == thrice["attempted"] == bench.prep.ops
    assert once["failed"] == thrice["failed"]
    assert thrice["oracle"]["checked_repetitions"] == 3


@pytest.mark.parametrize("workload", ["flash-crowd", "churn"])
def test_self_times_and_remainder_sum_to_the_traced_wall(workload, tmp_path):
    bench = harness.Bench(workload, 7, size="tiny")
    untraced = bench.once()
    rec = probes.SpanRecorder()
    patched = [
        (probes._resolve(module, cls), method)
        for _, module, cls, method in probes.PROBES
    ] + [
        (probes._resolve("repro.core.subscriptions", "Subscription"), "covers"),
        (probes.importlib.import_module("repro.core.system"), "next_request_id"),
    ]
    originals = [vars(owner).get(attr) for owner, attr in patched]
    with probes.Probes(rec):
        traced = bench.once(root=rec.root())
    # Probing must not perturb the simulated outcome, and must leave
    # every class exactly as it found it.
    assert traced.digest == untraced.digest
    assert [vars(owner).get(attr) for owner, attr in patched] == originals
    summary = rec.summary()
    wall = summary["wall_s"]
    assert wall > 0
    assert summary["spans"] > 100
    total = sum(summary["layer_self_s"].values())
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert all(v >= -1e-9 for v in rec.self_times())
    # Spans nest: every child lies inside its parent's interval.
    start, end = rec.start, rec.end
    for idx, parent in enumerate(rec.parent):
        if parent >= 0:
            assert start[parent] <= start[idx] <= end[idx] <= end[parent]
    roots = [i for i, p in enumerate(rec.parent) if p < 0]
    assert [rec.names[rec.name_id[i]] for i in roots] == [probes.ROOT]
