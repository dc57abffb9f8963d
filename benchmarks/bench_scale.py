#!/usr/bin/env python
"""Scale bench for the sharded simulation kernel (large Chord rings).

Where ``bench_throughput.py`` measures the hot paths at workbench sizes,
this harness measures the *sharded* kernel at ring sizes the serial
kernel was never meant for — 4 000, 20 000 and 100 000 nodes — using
the paper's own at-scale configuration: Section 4.3.3 interval
discretization (width 256, so subscription installs touch interval
keys instead of thousands of raw values) and large location caches.
Scenarios are Chord-only: CAN's zone tessellation is quadratic in the
key space and is scale-benched separately at n=2000 in the throughput
harness.

Each scenario pre-generates one seeded trace, then replays it through
``run_sharded`` once per configured shard count (``shards1`` is the
serial kernel: a lone worker, zero barriers).  Per leg it records wall
clock, kernel events/s, barrier round/remote-message/stall counts, the
behavior digest, and peak memory — each forked worker's RSS
high-water mark plus ``bytes_per_node`` (summed worker peaks over ring
size), the scale points' memory-footprint headline.  Each leg also
records per-shard load totals (one-hop sends per shard, read from the
per-shard recorders before the merge) and the max/median
``load_imbalance`` ratio; the harness prints a warning when a sharded
leg's ratio exceeds 2x.

Digests are machine-independent; wall clocks are not.  ``--check``
against a committed baseline therefore gates:

- every (scenario, leg) digest shared with the baseline must match bit
  for bit — the K=1 legs pin serial parity, the K>1 legs pin the
  deterministic barrier merge;
- on the smoke scenario, sharded throughput must stay above an
  availability-aware floor of the same run's serial leg: 0.4x on a
  single-CPU runner (the fork + barrier overhead bound — no parallel
  win is possible there), 0.8x with two or more CPUs;
- with ``--require-speedup X`` (multi-core hardware), at least one
  scenario that ran both legs must reach an X-fold events/s speedup
  over serial.

Usage:
    PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_PR7.json
    PYTHONPATH=src python benchmarks/bench_scale.py \
        --scenario smoke --repeat 2 \
        --baseline benchmarks/baselines/bench_scale_baseline.json --check
    PYTHONPATH=src python benchmarks/bench_scale.py --require-speedup 2.0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.metrics.fingerprint import behavior_digest  # noqa: E402
from repro.metrics.memory import peak_rss_bytes, reset_peak_rss  # noqa: E402
from repro.sim.rng import RandomStreams  # noqa: E402
from repro.sim.shard import ring_node_ids, run_sharded  # noqa: E402
from repro.telemetry.profile import ShardProfiler  # noqa: E402
from repro.workload.spec import WorkloadSpec  # noqa: E402
from repro.workload.trace import Trace  # noqa: E402

SEED = 20260808

#: Few storage snapshots: each one walks every node's store, which at
#: 100k nodes would otherwise dominate the measured run.
STORAGE_SAMPLES = 4

DISCRETIZATION_WIDTH = 256
CACHE_CAPACITY = 1024
SUBSCRIPTION_TTL = 20.0

SCENARIOS: dict[str, dict] = {
    # CI smoke leg (make verify): small enough for every push, dense
    # enough that cross-shard traffic is exercised on every window.
    "scale-smoke-n4000": {
        "nodes": 4_000,
        "key_bits": 13,
        "subscriptions": 400,
        "publications": 4_000,
        "subscription_period": 0.05,
        "publication_mean_period": 0.01,
        "shard_counts": (1, 2),
    },
    # The serial-vs-sharded comparison point: the >=2x events/s
    # speedup target for 4 shards applies here on >=4-CPU hardware.
    "scale-n20k": {
        "nodes": 20_000,
        "key_bits": 17,
        "subscriptions": 2_000,
        "publications": 50_000,
        "subscription_period": 0.02,
        "publication_mean_period": 0.004,
        "shard_counts": (1, 4),
    },
    # The headline scale point: 10^6 publications over a 100k-node
    # ring, sharded only — a serial leg at this size is pure wall-clock
    # tax (the n20k scenario already pins the serial comparison).
    "scale-n100k": {
        "nodes": 100_000,
        "key_bits": 20,
        "subscriptions": 2_000,
        "publications": 1_000_000,
        "subscription_period": 0.02,
        "publication_mean_period": 0.002,
        "shard_counts": (4,),
    },
}


def build_config(spec: dict) -> ExperimentConfig:
    return ExperimentConfig(
        nodes=spec["nodes"],
        key_bits=spec["key_bits"],
        subscriptions=spec["subscriptions"],
        publications=spec["publications"],
        seed=SEED,
        discretization_width=DISCRETIZATION_WIDTH,
        cache_capacity=CACHE_CAPACITY,
        workload=WorkloadSpec(
            subscription_period=spec["subscription_period"],
            publication_mean_period=spec["publication_mean_period"],
            subscription_ttl=SUBSCRIPTION_TTL,
        ),
    )


def run_leg(
    config: ExperimentConfig, trace: Trace, shards: int, repeat: int
) -> dict:
    """One (scenario, shard count) measurement; best wall of ``repeat``.

    Every repeat must produce the same behavior digest — the sharded
    determinism contract — and brackets the run with an RSS
    high-water-mark reset so the coordinator peak is the leg's own.
    """
    best: dict | None = None
    for _ in range(max(1, repeat)):
        reset_peak_rss()
        # Sharded legs run with the execution profiler attached: pure
        # wall-clock observation, so the digest check against baselines
        # recorded unprofiled doubles as a profiling-neutrality gate.
        profiler = ShardProfiler(shards) if shards > 1 else None
        start = time.perf_counter()
        outcome = run_sharded(
            config, trace, shards, mode="fork",
            storage_samples=STORAGE_SAMPLES,
            profile=profiler,
        )
        wall = time.perf_counter() - start
        events = sum(outcome.events_per_shard)
        result = {
            "shards": shards,
            "wall_s": round(wall, 3),
            "sim_events": events,
            "sim_events_per_s": round(events / wall, 2) if wall > 0 else None,
            "horizon": outcome.horizon,
            "barrier_rounds": outcome.barrier_rounds,
            "remote_messages": outcome.remote_messages,
            "barrier_stalls": outcome.barrier_stalls,
            "events_per_shard": outcome.events_per_shard,
            "load_by_shard": outcome.load_by_shard,
            "load_imbalance": round(outcome.load_imbalance, 3),
            "digest": behavior_digest(outcome.recorder),
            "worker_peak_rss_bytes": outcome.peak_rss_by_shard,
            "coordinator_peak_rss_bytes": peak_rss_bytes(),
            "bytes_per_node": round(
                sum(outcome.peak_rss_by_shard) / config.nodes
            ),
        }
        if profiler is not None:
            path = profiler.critical_path()
            result["critical_path"] = path.as_dict()
            result["suggested_cuts"] = profiler.suggest_partition()
        if best is not None and result["digest"] != best["digest"]:
            raise AssertionError(
                "non-deterministic sharded run: digest changed across repeats"
            )
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    assert best is not None
    return best


def run_scenario(key: str, spec: dict, repeat: int) -> dict:
    config = build_config(spec)
    start = time.perf_counter()
    trace = Trace.generate(
        config.workload,
        RandomStreams(config.seed).stream("workload"),
        ring_node_ids(config),
        config.subscriptions,
        config.publications,
    )
    trace_gen_s = round(time.perf_counter() - start, 3)
    legs: dict[str, dict] = {}
    for shards in spec["shard_counts"]:
        print(f"[scale] {key} shards={shards}: ...", flush=True)
        leg = run_leg(config, trace, shards, repeat)
        legs[f"shards{shards}"] = leg
        print(
            f"[scale] {key} shards={shards}: wall={leg['wall_s']:.1f}s "
            f"sim_events/s={leg['sim_events_per_s']:,} "
            f"remote={leg['remote_messages']:,} "
            f"stalls={leg['barrier_stalls']:,} "
            f"mem/node={leg['bytes_per_node']:,}B "
            f"digest={leg['digest'][:12]}",
            flush=True,
        )
        if shards > 1 and leg["load_imbalance"] > 2.0:
            print(
                f"[scale] WARNING: {key} shards={shards} load imbalance "
                f"{leg['load_imbalance']}x (max/median > 2x); "
                f"load_by_shard={leg['load_by_shard']}",
                flush=True,
            )
        path = leg.get("critical_path")
        if path is not None:
            print(
                f"[scale] {key} shards={shards}: critical path shard "
                f"{path['dominant_shard']} ({path['dominant_phase']}-bound); "
                f"busy={path['busy_s']} wait={path['barrier_wait_s']} "
                f"pipe={path['pipe_s']}; suggested cuts "
                f"{leg['suggested_cuts']}",
                flush=True,
            )
    serial = legs.get("shards1")
    if serial is not None:
        for leg_key, leg in legs.items():
            if leg_key != "shards1" and serial["sim_events_per_s"]:
                leg["speedup_vs_serial"] = round(
                    leg["sim_events_per_s"] / serial["sim_events_per_s"], 3
                )
    return {
        "nodes": spec["nodes"],
        "key_bits": spec["key_bits"],
        "subscriptions": spec["subscriptions"],
        "publications": spec["publications"],
        "subscription_period": spec["subscription_period"],
        "publication_mean_period": spec["publication_mean_period"],
        "discretization_width": DISCRETIZATION_WIDTH,
        "cache_capacity": CACHE_CAPACITY,
        "subscription_ttl": SUBSCRIPTION_TTL,
        "trace_gen_s": trace_gen_s,
        "trace_ops": len(trace.ops),
        "legs": legs,
    }


def check(report: dict, baseline: dict, require_speedup: float | None) -> int:
    """The CI gate; returns a process exit code."""
    cpus = report["meta"]["available_cpus"]
    scenarios = report["scenarios"]
    base_scenarios = baseline.get("scenarios", {})
    shared = False
    failures: list[str] = []
    for key, result in scenarios.items():
        before = base_scenarios.get(key)
        if before is None:
            continue
        for leg_key, leg in result["legs"].items():
            base_leg = before.get("legs", {}).get(leg_key)
            if base_leg is None:
                continue
            shared = True
            if base_leg["digest"] != leg["digest"]:
                failures.append(
                    f"{key}/{leg_key}: behavior digest diverged from baseline"
                )
    if not shared:
        print("[check] FAIL: no shared (scenario, leg) with baseline", flush=True)
        return 1
    # Availability-aware perf floor: a single CPU cannot show a
    # parallel win, but fork + barrier overhead must stay bounded.
    floor = 0.4 if cpus <= 1 else 0.8
    for key, result in scenarios.items():
        serial = result["legs"].get("shards1")
        if serial is None or not serial["sim_events_per_s"]:
            continue
        for leg_key, leg in result["legs"].items():
            if leg_key == "shards1":
                continue
            if leg["sim_events_per_s"] < floor * serial["sim_events_per_s"]:
                failures.append(
                    f"{key}/{leg_key}: {leg['sim_events_per_s']:,} events/s "
                    f"< {floor} x serial {serial['sim_events_per_s']:,} "
                    f"({cpus} CPUs available)"
                )
    if require_speedup is not None:
        best = max(
            (
                leg.get("speedup_vs_serial", 0.0)
                for result in scenarios.values()
                for leg in result["legs"].values()
            ),
            default=0.0,
        )
        if best < require_speedup:
            failures.append(
                f"no scenario reached a {require_speedup}x events/s speedup "
                f"over its serial leg (best: {best}x, {cpus} CPUs available)"
            )
    if failures:
        for failure in failures:
            print(f"[check] FAIL: {failure}", flush=True)
        return 1
    print(
        f"[check] OK: digests match baseline; sharded legs within the "
        f"{floor}x perf floor ({cpus} CPUs available)",
        flush=True,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="earlier output of this harness to gate against",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="with --baseline: exit non-zero on digest drift or a "
        "sharded-throughput floor violation (CI gate)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="timed runs per leg, fastest wall kept (digest asserted "
        "identical across repeats)",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="SUBSTRING",
        help="only run scenarios whose key contains this substring",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None,
        help="with --check: fail unless some scenario's sharded leg "
        "reached this events/s multiple of its serial leg "
        "(meaningful on multi-core hardware only)",
    )
    args = parser.parse_args(argv)
    if args.check and not args.baseline:
        parser.error("--check requires --baseline")

    baseline = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            parser.error(f"--baseline file not found: {baseline_path}")
        try:
            baseline = json.loads(baseline_path.read_text())
        except json.JSONDecodeError as exc:
            parser.error(f"--baseline is not valid JSON ({baseline_path}): {exc}")

    selected = {
        key: spec
        for key, spec in SCENARIOS.items()
        if args.scenario is None or args.scenario in key
    }
    if not selected:
        parser.error(f"no scenario key contains {args.scenario!r}")

    scenarios = {
        key: run_scenario(key, spec, args.repeat)
        for key, spec in selected.items()
    }
    report = {
        "meta": {
            "seed": SEED,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "available_cpus": len(os.sched_getaffinity(0)),
            "storage_samples": STORAGE_SAMPLES,
        },
        "scenarios": scenarios,
    }
    for key, result in scenarios.items():
        for leg_key, leg in result["legs"].items():
            if "speedup_vs_serial" in leg:
                print(
                    f"[scale] {key} {leg_key}: {leg['speedup_vs_serial']}x "
                    f"events/s vs serial",
                    flush=True,
                )

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[scale] wrote {args.out}", flush=True)

    if args.check:
        assert baseline is not None
        return check(report, baseline, args.require_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
