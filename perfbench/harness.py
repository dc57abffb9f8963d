"""Measurement logic of the benchmark (the CLI is ``perfbench/run.py``).

One run pre-generates the workload's trace from the seed (untimed), then
repeats *build the stack, replay the trace* for about the given number of
seconds.  Every repetition is checked against the first one's behaviour
fingerprint and, where its deliveries are observable, against the
delivery oracle.  End-to-end metrics are medians over the untraced
repetitions.  A traced run (``--trace 1``) also replays under the layer
probes and reports per-layer counts, self times and per-component
memory; the traced-minus-untraced wall is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import footprint
import oracle
import probes
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = HERE.parent / "BENCHMARK.json"

#: Untimed repetitions per untraced run, at least (medians need three).
MIN_REPS = 3

#: Stack builds behind each ``setup_s`` median, at least.
SETUP_SAMPLES = 15

#: Stack builds timed after each untraced repetition, so the ``setup_s``
#: samples are spread over the whole run.
SETUP_PER_REP = 4

#: Notifications that must lie beyond the delay-tail percentile.
MIN_BEYOND = 10

#: Entry points whose inclusive time is reported.
INCLUSIVE = frozenset({
    "SubscriptionStore.put", "SubscriptionStore.match", "CoveringIndex.add",
    "GridIndexMatcher.match", "RingOverlay.join", "RingOverlay.leave",
    "RingOverlay.crash",
})

SHARDED_NOTE = (
    "scale-sharded: forked shard workers cannot ship spans home without "
    "program changes, so its traced run records one span around the whole "
    "run_sharded call; per-layer self times and entry-point counts read 0, "
    "counts come from the run_sharded outcome and the merged recorder, and "
    "memory is measured inside each worker after its run"
)


class FingerprintDrift(RuntimeError):
    """Two repetitions of one workload and seed behaved differently."""


class ThinTail(RuntimeError):
    """Too few notifications lie beyond the workload's delay percentile."""


def why(workload: str) -> str | None:
    """The workload's description, kept only in ``BENCHMARK.json``."""
    if not SPEC.is_file():
        return None
    for entry in json.loads(SPEC.read_text())["workloads"]:
        if entry["name"] == workload:
            return entry["why"]
    return None


def calibrate(rounds: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop: the machine-speed leg."""
    times = []
    for _ in range(rounds):
        start = perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        times.append(perf_counter() - start)
    return statistics.median(times)


def grouped_quantile(ordered: list[float], pct: float, width: float) -> float:
    """The ``pct`` percentile of grouped data, interpolated in its class.

    Simulated delays are whole multiples of the one-hop delay, so an
    order-statistic percentile jumps a whole hop when a few samples move
    across a class boundary.  Treating each class (one hop delay wide,
    centred on its multiple) as uniformly filled gives the textbook
    grouped-data percentile, which moves continuously with the counts.
    """
    classes: dict[int, int] = {}
    for value in ordered:
        index = int(value / width + 0.5)
        classes[index] = classes.get(index, 0) + 1
    rank = pct / 100.0 * len(ordered)
    below = 0
    for index in sorted(classes):
        count = classes[index]
        if below + count >= rank:
            return (index - 0.5 + (rank - below) / count) * width
        below += count
    return (max(classes) + 0.5) * width


def delay_stats(delays, width: float, tail_pct: int,
                min_beyond: int = MIN_BEYOND) -> dict:
    """Median and ``tail_pct`` percentile of notification delays (ms).

    The tail percentile is fixed per workload, so the metric means the
    same thing at every seed and on every tree.  Fewer than
    ``min_beyond`` notifications beyond it would make it an extreme
    value rather than a percentile: that raises :class:`ThinTail`
    instead of changing which percentile is reported.
    """
    ordered = sorted(delays)
    p50 = grouped_quantile(ordered, 50, width) if ordered else 0.0
    tail = grouped_quantile(ordered, tail_pct, width) if ordered else 0.0
    beyond = sum(1 for d in ordered if d > tail)
    if beyond < min_beyond:
        raise ThinTail(
            f"{beyond} of {len(ordered)} notifications lie beyond p{tail_pct}; "
            f"the delay tail needs at least {min_beyond}"
        )
    return {
        "p50_ms": p50 * 1000.0,
        "tail_ms": tail * 1000.0,
        "tail_pct": tail_pct,
        "beyond": beyond,
        "samples": len(ordered),
    }


def time_setups(prep, count: int) -> list[float]:
    """``count`` stack builds, each from a freshly collected heap."""
    times = []
    for _ in range(count):
        gc.collect()
        times.append(workloads.setup_once(prep))
    return times


class Bench:
    """One workload at one seed: its inputs and its checked repetitions."""

    def __init__(self, workload: str, seed: int, size: str = "full") -> None:
        self.workload = workloads.WORKLOADS[workload]
        self.prep = workloads.prepare(self.workload, seed, size)
        self.expectation = oracle.expect(self.prep.trace.ops)
        self.digest: str | None = None
        self.verdicts: list[oracle.Verdict] = []
        self.setups: list[float] = []

    @property
    def sharded(self) -> bool:
        return self.workload.shards > 1

    def check(self, rep) -> None:
        """Fingerprint agreement, then the oracle where deliveries were seen."""
        if self.digest is None:
            self.digest = rep.digest
        elif rep.digest != self.digest:
            raise FingerprintDrift(
                f"{self.workload.name}: fingerprint {rep.digest[:16]} "
                f"differs from the first repetition's {self.digest[:16]}"
            )
        if rep.delivered is not None:
            verdict = oracle.check(self.expectation, rep.delivered)
            if self.verdicts and verdict != self.verdicts[0]:
                raise FingerprintDrift(
                    f"{self.workload.name}: deliveries {verdict} differ from "
                    f"the first repetition's {self.verdicts[0]}"
                )
            self.verdicts.append(verdict)

    def facts(self, rep) -> dict:
        """Simulated-outcome counts of a repetition (identical in all)."""
        recorder = rep.recorder
        messages = recorder.messages
        facts = {
            "sends": messages.total_sends(),
            "requests": len(messages.traces),
            "notifications": recorder.matched_notifications,
            "live_peak": max(
                (sum(c.values()) for _, c in recorder.storage.snapshots),
                default=0,
            ),
            "events": rep.events,
            "maintenance": {},
        }
        if rep.system is not None:
            facts["maintenance"] = rep.system.overlay.maintenance_totals()
        return facts

    def once(self, root=None, observe: bool = False):
        if self.sharded:
            rep = workloads.run_fork(self.prep, root=root, observe=observe)
        else:
            rep = workloads.run_serial(self.prep, root=root)
        self.check(rep)
        rep.facts = self.facts(rep)
        return rep

    def untraced(self, budget: float, minimum: int) -> list:
        """Untraced repetitions until about ``budget`` seconds are used.

        Each is followed by :data:`SETUP_PER_REP` timed stack builds.
        """
        reps = []
        start = perf_counter()
        while True:
            rep = self.once()
            rep.recorder = rep.system = rep.shard = None
            reps.append(rep)
            self.setups.extend(time_setups(self.prep, SETUP_PER_REP))
            elapsed = perf_counter() - start
            if len(reps) >= minimum and elapsed / len(reps) * (len(reps) + 1) > budget:
                return reps

    def traced(self, out_dir: Path):
        """One repetition under the layer probes.

        Returns ``(rep, summary, memory)``; the spans are written to
        ``out_dir`` when the repetition ends.
        """
        rec = probes.SpanRecorder()
        for index, op in enumerate(self.prep.trace.ops):
            if op.kind == "sub":
                rec.sub_op[op.subscription.subscription_id] = index
            else:
                rec.event_op[op.event.event_id] = index
        if self.sharded:
            rep, memory = self._traced_fork(rec, out_dir)
        else:
            with probes.Probes(rec):
                rep = self.once(root=rec.root())
            memory = footprint.measure(rep.system)
        summary = rec.summary(INCLUSIVE)
        rec.write(
            out_dir / f"{self.workload.name}-spans",
            {"workload": self.workload.name, "seed": self.prep.config.seed},
        )
        rep.recorder = rep.system = None
        return rep, summary, memory

    def _traced_fork(self, rec, out_dir: Path):
        """Root span around the sharded run; memory from inside each worker."""
        from repro.sim.shard import ShardWorker

        mem_dir = out_dir / "shard-memory"
        shutil.rmtree(mem_dir, ignore_errors=True)
        mem_dir.mkdir(parents=True)
        finish = ShardWorker.finish

        def measured_finish(worker, horizon):
            result = finish(worker, horizon)
            (mem_dir / f"shard{worker.shard}.json").write_text(
                json.dumps(footprint.measure(worker.system))
            )
            return result

        ShardWorker.finish = measured_finish
        try:
            rep = self.once(root=rec.root())
        finally:
            ShardWorker.finish = finish
        memory: dict[str, int] = {}
        for path in sorted(mem_dir.glob("shard*.json")):
            for key, value in json.loads(path.read_text()).items():
                memory[key] = memory.get(key, 0) + value
        return rep, memory

    def mapping_keys(self) -> tuple[float, float]:
        """Mean |SK(sub)| and |EK(pub)| over the trace."""
        from repro.sim.shard import build_shard_mapping

        mapping = build_shard_mapping(self.prep.config)
        subs = [len(mapping.subscription_keys(op.subscription))
                for op in self.prep.trace.ops if op.kind == "sub"]
        pubs = [len(mapping.event_keys(op.event))
                for op in self.prep.trace.ops if op.kind == "pub"]
        return statistics.fmean(subs), statistics.fmean(pubs)


def end_to_end(bench: Bench, reps: list, observed,
               min_beyond: int) -> tuple[dict, dict, list]:
    """End-to-end metrics: medians over the untraced repetitions."""
    ops = bench.prep.ops
    source = observed if observed is not None else reps[0]
    delays = delay_stats(
        source.delivered.values(), bench.prep.config.message_delay,
        bench.workload.tail_pct, min_beyond,
    )
    setups = bench.setups
    setups.extend(time_setups(bench.prep, SETUP_SAMPLES - len(setups)))
    metrics = {
        "ops_per_s": (statistics.median(ops / r.replay_s for r in reps), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (
            statistics.median(r.rss_bytes for r in reps) / 2**20, "MiB"
        ),
        "notify_delay_p50_ms": (delays["p50_ms"], "ms"),
        "notify_delay_tail_ms": (delays["tail_ms"], "ms"),
        "msgs_per_op": (reps[0].facts["sends"] / ops, "count"),
    }
    return metrics, delays, setups


def correctness(bench: Bench) -> dict:
    """The oracle's verdict on the seed's behaviour.

    Every checked repetition gave the same verdict (:meth:`Bench.check`
    stops the run otherwise), so ``attempted`` and ``failed`` count the
    trace's operations once and depend on the seed alone, not on how
    many repetitions fitted in the run.  A false notification is an
    error everywhere.  A missed one is an error on the static-ring
    workloads; under churn, notifications lost to crashes are the
    measured delivery loss (``notify_miss_share``) and count as failed
    operations without making the run incorrect.
    """
    verdict = bench.verdicts[0]
    missed_ok = bench.workload.churn is not None
    return {
        "correct": verdict.false == 0 and (missed_ok or verdict.missed == 0),
        "attempted": bench.prep.ops,
        "failed": verdict.failed_pubs,
        "oracle": {
            "expected": verdict.expected,
            "indeterminate": len(bench.expectation.indeterminate),
            "delivered": verdict.delivered,
            "missed": verdict.missed,
            "false": verdict.false,
            "checked_repetitions": len(bench.verdicts),
        },
        "notify_miss_share": verdict.miss_share,
        "notify_false_share": verdict.false_share,
    }


def per_layer(bench: Bench, rep, summary: dict, memory: dict,
              overhead_s: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    ops = bench.prep.ops
    facts = rep.facts
    calls, counts = summary["calls"], summary["counts"]
    layer, inclusive = summary["layer_self_s"], summary["inclusive_s"]
    name_self = summary["self_s"]
    shard = rep.shard
    events = facts["events"]
    transmits = facts["sends"]
    covers = counts.get("covering.covers_calls", 0)
    collapsed = counts.get("covering.collapsed", 0)
    match_calls = calls.get("GridIndexMatcher.match", 0)
    maintenance = facts["maintenance"]
    keys_per_sub, keys_per_pub = bench.mapping_keys()
    nodes = max(1, memory.get("nodes", 0))
    metrics = {
        "sim.events": (events, "count"),
        "sim.self_s": (layer["sim"], "s"),
        "sim.events_per_op": (events / ops, "count"),
        "shard.barrier_rounds": (shard.barrier_rounds if shard else 0, "count"),
        "shard.remote_msgs": (shard.remote_messages if shard else 0, "count"),
        "shard.barrier_stalls": (shard.barrier_stalls if shard else 0, "count"),
        "shard.load_imbalance": (
            shard.load_imbalance if shard else 1.0, "ratio"
        ),
        "shard.worker_rss_mib_max": (
            max(shard.peak_rss_by_shard) / 2**20 if shard else 0.0, "MiB"
        ),
        "network.transmits": (transmits, "count"),
        "network.self_s": (layer["network"], "s"),
        "network.transmits_per_event": (transmits / max(1, events), "count"),
        "chord.route_self_s": (layer["chord"], "s"),
        "chord.hops_per_request": (
            transmits / max(1, facts["requests"]), "count"
        ),
        "chord.mcast_calls": (calls.get("ChordNode.continue_mcast", 0), "count"),
        "chord.membership_s": (
            sum(inclusive.get(f"RingOverlay.{m}", 0.0)
                for m in ("join", "leave", "crash")), "s"
        ),
        "chord.table_rebuilds": (maintenance.get("table_rebuilds", 0), "count"),
        "chord.table_patches": (maintenance.get("table_patches", 0), "count"),
        "mapping.keys_per_sub": (keys_per_sub, "count"),
        "mapping.keys_per_pub": (keys_per_pub, "count"),
        "mapping.self_s": (layer["mapping"], "s"),
        "core.self_s": (layer["core"], "s"),
        "core.deliver_self_s": (
            name_self.get("PubSubNode.on_deliver", 0.0)
            + name_self.get("PubSubSystem.deliver_notifications", 0.0), "s"
        ),
        "core.notifications": (facts["notifications"], "count"),
        "store.self_s": (layer["store"], "s"),
        "store.puts": (calls.get("SubscriptionStore.put", 0), "count"),
        "store.put_s": (inclusive.get("SubscriptionStore.put", 0.0), "s"),
        "store.matches": (calls.get("SubscriptionStore.match", 0), "count"),
        "store.match_s": (inclusive.get("SubscriptionStore.match", 0.0), "s"),
        "store.removes": (calls.get("SubscriptionStore.remove", 0), "count"),
        "store.live_peak": (facts["live_peak"], "count"),
        "covering.self_s": (layer["covering"], "s"),
        "covering.covers_calls": (covers, "count"),
        "covering.add_s": (inclusive.get("CoveringIndex.add", 0.0), "s"),
        "covering.collapsed": (collapsed, "count"),
        "covering.collapsed_per_kcover": (
            1000.0 * collapsed / covers if covers else 0.0, "count"
        ),
        "matcher.self_s": (layer["matcher"], "s"),
        "matcher.adds": (calls.get("GridIndexMatcher.add", 0), "count"),
        "matcher.match_calls": (match_calls, "count"),
        "matcher.match_s": (inclusive.get("GridIndexMatcher.match", 0.0), "s"),
        "matcher.hits_per_match": (
            counts.get("matcher.hits", 0) / match_calls if match_calls else 0.0,
            "count",
        ),
        "telemetry.self_s": (layer["telemetry"], "s"),
        "telemetry.hook_calls": (
            summary["layer_calls"].get("telemetry", 0), "count"
        ),
        "trace.wall_s": (summary["wall_s"], "s"),
        "trace.remainder_s": (layer["bench"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (summary["spans"], "count"),
    }
    for component in footprint.COMPONENTS:
        metrics[f"mem.{component}_bytes_per_node"] = (
            memory.get(component, 0) / nodes, "B"
        )
    return metrics


def _median_metrics(runs: list[dict]) -> dict:
    return {
        name: (statistics.median(run[name][0] for run in runs), unit)
        for name, (_, unit) in runs[0].items()
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", out_dir: Path = OUT,
            min_beyond: int = MIN_BEYOND) -> dict:
    """One benchmark run; returns the result plus the full report.

    ``size="tiny"`` and a lower ``min_beyond`` are for the self-tests:
    a toy-size run has too few notifications for a delay tail.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, seed, size)
    calibration_s = calibrate()
    notes: list[str] = []
    if trace:
        reps = bench.untraced(seconds * 0.4, 1)
        untraced_wall = statistics.median(r.replay_s for r in reps)
        layer_runs = []
        start = perf_counter()
        while True:
            rep, summary, memory = bench.traced(out_dir)
            layer_runs.append(per_layer(
                bench, rep, summary, memory, summary["wall_s"] - untraced_wall
            ))
            rep.shard = None
            used = perf_counter() - start
            if used / len(layer_runs) * (len(layer_runs) + 1) > seconds * 0.6:
                break
        metrics = _median_metrics(layer_runs)
        accounting = {
            "layer_self_s": summary["layer_self_s"],
            "wall_s": summary["wall_s"],
        }
        if bench.sharded:
            notes.append(SHARDED_NOTE)
    else:
        reps = bench.untraced(seconds, MIN_REPS)
        accounting = None
    observed = bench.once(observe=True) if bench.sharded else None
    e2e, delays, setups = end_to_end(bench, reps, observed, min_beyond)
    if not trace:
        metrics = e2e
    verdict = correctness(bench)
    if bench.sharded:
        notes.append(
            "oracle input: the merged application hook stream of the sharded "
            "post-hoc oracle (AuditTap records), from one extra untimed run; "
            "its fingerprint must equal the timed runs'"
        )
    if bench.workload.churn is not None and verdict["oracle"]["missed"]:
        notes.append(
            "churn: missed notifications are the measured delivery loss "
            "under joins, leaves and crashes; they count as failed "
            "publications"
        )
    ops_per_s = e2e["ops_per_s"][0]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "why": why(workload),
        "config": {
            "nodes": bench.prep.config.nodes,
            "subscriptions": bench.prep.config.subscriptions,
            "publications": bench.prep.config.publications,
            "mapping": bench.prep.config.mapping,
            "shards": bench.workload.shards,
            "telemetry": bench.workload.telemetry,
            "churn": bench.workload.churn is not None,
        },
        "trace_ops": bench.prep.ops,
        "fingerprint": bench.digest,
        "calibration": {
            "loop_s": calibration_s,
            "ops_per_calibration_loop": ops_per_s * calibration_s,
        },
        "repetitions": {
            "replay_s": [r.replay_s for r in reps],
            "setup_s": setups,
            "rss_mib": [r.rss_bytes / 2**20 for r in reps],
        },
        "delay": delays,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "correctness": verdict,
        "accounting": accounting,
        "notes": notes,
    }
    if reps[0].churn is not None:
        report["churn_events"] = reps[0].churn
    (out_dir / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


def _print_human(result: dict) -> None:
    report = result["report"]
    print(f"# perfbench {report['workload']} seed={report['seed']} "
          f"trace={int(report['trace'])} ops={report['trace_ops']} "
          f"fingerprint={report['fingerprint'][:16]}")
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    if report["trace"]:
        for name, entry in report["end_to_end"].items():
            print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    verdict = report["correctness"]
    print(f"{'notify_miss_share':34s} {verdict['notify_miss_share']:>16.6g} share")
    print(f"{'notify_false_share':34s} {verdict['notify_false_share']:>16.6g} share")
    delay = report["delay"]
    print(f"# delay tail = p{delay['tail_pct']} with {delay['beyond']} of "
          f"{delay['samples']} samples beyond it")
    print(f"# oracle {json.dumps(verdict['oracle'])}")
    print(f"# calibration loop {report['calibration']['loop_s']:.6f} s")
    for note in report["notes"]:
        print(f"# note: {note}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except FingerprintDrift as drift:
        print(f"perfbench: {drift}", file=sys.stderr)
        return 3
    except ThinTail as thin:
        print(f"perfbench: {args.workload}: {thin}", file=sys.stderr)
        return 4
    _print_human(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0
