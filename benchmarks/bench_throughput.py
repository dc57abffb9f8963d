#!/usr/bin/env python
"""Wall-clock throughput harness for the pub/sub hot paths.

Runs a fixed, fully seeded workload (subscriptions + publications over
a converged Chord ring) for every (ring size, ak-mapping) scenario and
measures how fast the simulator chews through it on real hardware:

- ``wall_s``            — wall-clock seconds for the simulation run;
- ``sim_events_per_s``  — kernel events fired per wall-clock second;
- ``app_msgs_per_s``    — one-hop overlay messages per wall-clock second.

Because the workload is seeded and the network delay is fixed, the
*simulated* outcome (delivery counts, per-request hop counts,
notification delays) must be identical run-to-run and across purely
mechanical optimizations.  Each scenario therefore also records a
``fingerprint`` — a SHA-256 over the canonicalized metric multisets —
so a perf PR can prove it did not change behavior: run this harness on
the old tree, then on the new tree with ``--baseline old.json``, and
the output JSON reports per-scenario speedups plus ``metrics_equal``.

Scenarios cover the steady-state hot paths (converged ring, one run
per ring size × AK-mapping) plus churn-heavy scenarios (shaped like
``examples/churn_resilience.py``) that join, remove and crash nodes
as Poisson processes *while* the workload runs — the stress case for
routing-table invalidation and same-tick delivery batching.  The churn
scenarios run once per overlay (Chord, Pastry, CAN) and report the
rebuild/patch/seed maintenance totals alongside the throughput; with
``--check``, a churn scenario that recorded zero patches fails the
gate (incremental maintenance regressed to wholesale rebuilds).

Both suites run ``flash-crowd-n2000`` at full size: Zipf-skewed
subscriptions plus celebrity-key publications with the load
observatory *enabled*, recording the skew analytics (hot rendezvous
keys/nodes, Gini, overload events) and the covering-index
effectiveness (collapsed installs, matcher-work skew vs an untimed
uncollapsed reference leg) in the output JSON; ``--check`` gates on a
perf floor, on subscriptions actually collapsing, and on the covering
run's fingerprint equalling the uncollapsed store's bit for bit.
Every other scenario runs telemetry-disabled, so the ``--check``
fingerprint comparison doubles as the observatory's zero-overhead
gate.

Usage:
    PYTHONPATH=src python benchmarks/bench_throughput.py --out BENCH_PR1.json
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --baseline /tmp/bench_seed.json --out BENCH_PR1.json
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick --profile
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick \
        --baseline benchmarks/baselines/bench_quick_baseline.json --check
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import pstats
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.system import PubSubConfig, PubSubSystem  # noqa: E402
from repro.core.mappings import make_mapping  # noqa: E402
from repro.metrics.fingerprint import behavior_fingerprint  # noqa: E402
from repro.metrics.memory import peak_rss_bytes, reset_peak_rss  # noqa: E402
from repro.metrics.skew import skew_summary  # noqa: E402
from repro.metrics.stats import summarize  # noqa: E402
from repro.overlay.can import CanOverlay  # noqa: E402
from repro.overlay.chord import ChordOverlay  # noqa: E402
from repro.overlay.ids import KeySpace  # noqa: E402
from repro.overlay.network import Network  # noqa: E402
from repro.overlay.pastry import PastryOverlay  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.workload.churn import ChurnDriver, ChurnSpec  # noqa: E402
from repro.workload.driver import WorkloadDriver  # noqa: E402
from repro.workload.generator import SubscriptionGenerator  # noqa: E402
from repro.workload.spec import WorkloadSpec  # noqa: E402

SEED = 20260805
BITS = 13
MAPPINGS = ("attribute-split", "keyspace-split", "selective-attribute")
PROFILE_TOP = 15

#: Overlay factories the churn scenarios cycle through — all three
#: consume the membership delta log, so each gets a churn scenario
#: proving its incremental maintenance holds up (and a maintenance
#: counter summary proving it actually patches instead of rebuilding).
OVERLAYS = {
    "chord": lambda sim, keyspace: ChordOverlay(sim, keyspace, cache_capacity=128),
    "pastry": lambda sim, keyspace: PastryOverlay(sim, keyspace),
    "can": lambda sim, keyspace: CanOverlay(sim, keyspace),
}


def scenario_key(nodes: int, mapping: str) -> str:
    return f"n{nodes}-{mapping}"


def maintenance_counts(overlay) -> dict:
    """Routing-table maintenance totals, live nodes plus departed ones.

    The bench runs with telemetry disabled (NullRegistry), so the
    counters cannot be aggregated centrally.  ``maintenance_totals``
    sums the live nodes' counters on top of the counts the overlay
    accumulated from departed nodes at unregister time, so a churn
    run's totals no longer shrink when a heavily-patched node leaves
    or crashes mid-run.
    """
    return overlay.maintenance_totals()


def hop_percentiles(system: PubSubSystem) -> dict:
    """Path-length distribution over delivered requests.

    One sample per request trace that delivered anywhere: its deepest
    delivery path (``max_path_hops``).  Recorded next to the wall-clock
    numbers so routing shortcuts (e.g. the CAN express links) show up
    as a hop-count drop, not just a throughput bump.  Deliberately
    *outside* the behavior fingerprint: the fingerprint already pins
    per-trace hop counts bit-for-bit, and keeping the summary separate
    lets baselines compare distributions without re-deriving them.
    """
    traces = system.recorder.messages.traces
    summary = summarize(
        trace.max_path_hops
        for trace in traces.values()
        if trace.deliveries
    )
    return {
        "count": summary.count,
        "mean": round(summary.mean, 3),
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
        "max": summary.maximum,
    }


def fingerprint(system: PubSubSystem) -> dict:
    """Canonical digest of the run's simulated-outcome metrics.

    Delegates to the shared canonicalization in
    :mod:`repro.metrics.fingerprint` — the same frozen digest the
    sharded kernel's determinism contract is stated in — so the bench
    baselines and the shard parity tests can never drift apart.
    """
    return behavior_fingerprint(system.recorder)


def run_one(
    nodes: int, mapping: str, subs: int, pubs: int, overlay_kind: str = "chord"
) -> dict:
    # The chord seeds predate the overlay parameter and keep their
    # original strings so historical baselines stay comparable.
    tag = (
        f"{nodes}:{mapping}"
        if overlay_kind == "chord"
        else f"{overlay_kind}:{nodes}:{mapping}"
    )
    rng = random.Random(f"{SEED}:{tag}")
    sim = Simulator()
    keyspace = KeySpace(BITS)
    overlay = OVERLAYS[overlay_kind](sim, keyspace)
    overlay.build_ring(rng.sample(range(keyspace.size), nodes))
    spec = WorkloadSpec()
    driver_rng = random.Random(f"{SEED}:driver:{tag}")
    config = PubSubConfig()
    # The mapping and the workload driver must agree on the event
    # space; both derive it deterministically from the spec.
    space = SubscriptionGenerator(spec, random.Random(0)).space
    mapping_obj = make_mapping(mapping, space, keyspace)
    system = PubSubSystem(sim, overlay, mapping_obj, config)
    driver = WorkloadDriver(
        system,
        spec,
        driver_rng,
        max_subscriptions=subs,
        max_publications=pubs,
    )
    start = time.perf_counter()
    driver.run_to_completion()
    wall = time.perf_counter() - start
    fp = fingerprint(system)
    events = sim.events_processed
    sends = fp["total_one_hop_sends"]
    return {
        "nodes": nodes,
        "overlay": overlay_kind,
        "mapping": mapping,
        "matcher": config.matcher,
        "subscriptions": subs,
        "publications": pubs,
        "wall_s": round(wall, 6),
        "sim_events": events,
        "sim_events_per_s": round(events / wall, 2) if wall > 0 else None,
        "app_msgs_per_s": round(sends / wall, 2) if wall > 0 else None,
        "hops": hop_percentiles(system),
        "fingerprint": fp,
    }


def run_eqdense(nodes: int, subs: int, pubs: int) -> dict:
    """Equality-dense scenario: every attribute constrained to one value.

    ``selective_range_fraction`` small enough that the max interval span
    is 1 turns every constraint into an equality — the grid matcher's
    worst-ish case (dense single-cell candidate lists), and the only
    fingerprint of the grid on an equality-dense store.
    """
    # The seed keeps its engine tag so the pinned fingerprint holds.
    rng = random.Random(f"{SEED}:eqdense:grid:{nodes}")
    sim = Simulator()
    keyspace = KeySpace(BITS)
    overlay = ChordOverlay(sim, keyspace, cache_capacity=128)
    overlay.build_ring(rng.sample(range(keyspace.size), nodes))
    spec = WorkloadSpec(
        selective_attributes=(0, 1, 2, 3),
        selective_range_fraction=1e-6,
    )
    config = PubSubConfig()
    space = SubscriptionGenerator(spec, random.Random(0)).space
    mapping_obj = make_mapping("selective-attribute", space, keyspace)
    system = PubSubSystem(sim, overlay, mapping_obj, config)
    driver = WorkloadDriver(
        system,
        spec,
        random.Random(f"{SEED}:eqdense-driver:{nodes}"),
        max_subscriptions=subs,
        max_publications=pubs,
    )
    start = time.perf_counter()
    driver.run_to_completion()
    wall = time.perf_counter() - start
    fp = fingerprint(system)
    events = sim.events_processed
    sends = fp["total_one_hop_sends"]
    return {
        "nodes": nodes,
        "mapping": "selective-attribute",
        "matcher": "grid",
        "subscriptions": subs,
        "publications": pubs,
        "wall_s": round(wall, 6),
        "sim_events": events,
        "sim_events_per_s": round(events / wall, 2) if wall > 0 else None,
        "app_msgs_per_s": round(sends / wall, 2) if wall > 0 else None,
        "hops": hop_percentiles(system),
        "fingerprint": fp,
    }


def _match_work_stats(load) -> dict:
    """Matcher-work skew over the active rendezvous nodes of one run."""
    loads = load.match_work_loads()
    summary = skew_summary(loads, 1)
    hottest = summary.top[0] if summary.top else None
    return {
        "active_nodes": summary.count,
        "total_work": summary.total,
        "gini": round(summary.gini, 6),
        "hottest_node": hottest[0] if hottest else None,
        "hottest_share": (
            round(hottest[1] / summary.total, 6)
            if hottest and summary.total
            else 0.0
        ),
    }


def _flash_run(nodes: int, subs: int, pubs: int, covering: bool | None):
    """One seeded flash-crowd run; returns (wall, fp, load, system, events)."""
    tag = f"flash:{nodes}"
    rng = random.Random(f"{SEED}:{tag}")
    sim = Simulator()
    keyspace = KeySpace(BITS)
    telemetry = Telemetry()
    network = Network(sim, telemetry=telemetry)
    overlay = ChordOverlay(sim, keyspace, network=network, cache_capacity=128)
    overlay.build_ring(rng.sample(range(keyspace.size), nodes))
    spec = WorkloadSpec(
        selective_attributes=(0, 1),
        zipf_exponent=1.6,
        temporal_locality=0.9,
        # Partially defined interest (Section 4.2): the crowd states
        # the hot selective attributes and flips a coin per remaining
        # attribute — the workload shape under which subscription
        # covering actually occurs at the hot rendezvous nodes.
        constraint_probability=0.5,
    )
    config = PubSubConfig(covering=covering)
    space = SubscriptionGenerator(spec, random.Random(0)).space
    mapping_obj = make_mapping("selective-attribute", space, keyspace)
    system = PubSubSystem(sim, overlay, mapping_obj, config)
    driver = WorkloadDriver(
        system,
        spec,
        random.Random(f"{SEED}:flash-driver:{nodes}"),
        max_subscriptions=subs,
        max_publications=pubs,
    )
    horizon = driver.estimated_duration()
    samples = 24
    telemetry.sample(0.0)
    for sample in range(1, samples + 1):
        at = horizon * sample / samples
        sim.schedule_at(at, telemetry.sample, at)
    start = time.perf_counter()
    driver.run_to_completion(horizon)
    wall = time.perf_counter() - start
    fp = fingerprint(system)
    load = telemetry.load
    assert load is not None
    return wall, fp, load, system, sim.events_processed


def run_flash_crowd(nodes: int, subs: int, pubs: int) -> dict:
    """Flash-crowd scenario: Zipf-skewed interest, celebrity publications.

    Two selective attributes with a steep Zipf exponent concentrate
    subscription range centers on a few hot values, and high temporal
    locality makes consecutive publications cluster around the same
    point — together the "everyone watches the same ticker" shape that
    drives rendezvous load skew.  Unlike every other scenario, this one
    runs with the load observatory *enabled* (telemetry + LoadMeter,
    sampled on the sim clock) and records the resulting skew analytics
    — top-k hot rendezvous keys/nodes, Gini, p99/mean, overload events
    — in the output JSON next to the throughput numbers.  The behavior
    fingerprint only hashes the MetricsRecorder, so the enabled
    observatory cannot perturb it.

    The timed leg runs with the covering index enabled (the default);
    an untimed *uncollapsed reference* leg then replays the identical
    seeded workload with covering off and the result records both legs'
    matcher-work skew plus a ``fingerprint_equal`` bit — the runtime
    proof that collapsing covered subscriptions is invisible to the
    delivery stream (``--check`` gates on it).
    """
    wall, fp, load, system, events = _flash_run(nodes, subs, pubs, None)
    sends = fp["total_one_hop_sends"]
    node_skew = skew_summary(load.node_loads(), k=10)
    key_skew = skew_summary(load.key_loads(), k=10)
    covering_totals = load.covering_totals()
    _, ref_fp, ref_load, _, _ = _flash_run(nodes, subs, pubs, False)
    return {
        "nodes": nodes,
        "overlay": "chord",
        "mapping": "selective-attribute",
        "matcher": "grid",
        "subscriptions": subs,
        "publications": pubs,
        "wall_s": round(wall, 6),
        "sim_events": events,
        "sim_events_per_s": round(events / wall, 2) if wall > 0 else None,
        "app_msgs_per_s": round(sends / wall, 2) if wall > 0 else None,
        "hops": hop_percentiles(system),
        "skew": {
            "node": node_skew.as_dict(),
            "key": key_skew.as_dict(),
            "skew_samples": len(load.skew_samples),
            "overload_events": len(load.detector.events),
            "overloaded_nodes": sorted(
                {event.node for event in load.detector.events}
            ),
        },
        "covering": {
            **covering_totals,
            "match_work": _match_work_stats(load),
            "uncollapsed_reference": {
                "fingerprint_equal": (
                    fp["sha256"] == ref_fp["sha256"]
                ),
                "match_work": _match_work_stats(ref_load),
            },
        },
        "fingerprint": fp,
    }


def run_churn(nodes: int, subs: int, pubs: int, overlay_kind: str = "chord") -> dict:
    """Churn-heavy scenario: continuous joins/leaves/crashes mid-workload.

    Shaped like ``examples/churn_resilience.py``: a replicated system
    keeps serving publications while Poisson churn perturbs the ring.
    Every membership change invalidates routing state, so this scenario
    is dominated by routing-table maintenance plus the m-cast fan-out —
    exactly the paths the batched delivery engine and the incremental
    table patching target.  ``overlay_kind`` picks the routing substrate
    (all three overlays patch against the same membership delta log);
    the chord seeds predate the parameter and keep their original
    strings so historical baselines stay comparable.
    """
    tag = nodes if overlay_kind == "chord" else f"{overlay_kind}:{nodes}"
    rng = random.Random(f"{SEED}:churn:{tag}")
    sim = Simulator()
    keyspace = KeySpace(BITS)
    overlay = OVERLAYS[overlay_kind](sim, keyspace)
    overlay.build_ring(rng.sample(range(keyspace.size), nodes))
    spec = WorkloadSpec()
    config = PubSubConfig(replication_factor=2, failure_detection_delay=0.3)
    space = SubscriptionGenerator(spec, random.Random(0)).space
    mapping_obj = make_mapping("selective-attribute", space, keyspace)
    system = PubSubSystem(sim, overlay, mapping_obj, config)
    driver = WorkloadDriver(
        system,
        spec,
        random.Random(f"{SEED}:churn-driver:{tag}"),
        max_subscriptions=subs,
        max_publications=pubs,
    )
    churn = ChurnDriver(
        system,
        ChurnSpec(
            join_period=2.0,
            leave_period=2.0,
            crash_period=10.0,
            min_ring_size=max(8, nodes // 2),
        ),
        random.Random(f"{SEED}:churn-events:{tag}"),
    )
    start = time.perf_counter()
    churn.start()
    driver.run_to_completion()
    churn.stop()
    wall = time.perf_counter() - start
    fp = fingerprint(system)
    events = sim.events_processed
    sends = fp["total_one_hop_sends"]
    return {
        "nodes": nodes,
        "overlay": overlay_kind,
        "mapping": "selective-attribute",
        "matcher": config.matcher,
        "subscriptions": subs,
        "publications": pubs,
        "churn_events": {
            "joins": churn.joins,
            "leaves": churn.leaves,
            "crashes": churn.crashes,
        },
        "maintenance": maintenance_counts(overlay),
        "wall_s": round(wall, 6),
        "sim_events": events,
        "sim_events_per_s": round(events / wall, 2) if wall > 0 else None,
        "app_msgs_per_s": round(sends / wall, 2) if wall > 0 else None,
        "hops": hop_percentiles(system),
        "fingerprint": fp,
    }


def best_of(repeat: int, fn, *args) -> dict:
    """Run a scenario ``repeat`` times, keep the fastest wall clock.

    The simulated outcome is seeded, so every repeat must produce the
    same fingerprint — asserted here — and min-wall is the standard
    noise filter for timing on shared machines.  Each repeat brackets
    the run with an RSS high-water-mark reset, so ``peak_rss_bytes``
    is the kept run's own footprint, not the harness's lifetime peak.
    """
    best: dict | None = None
    for _ in range(repeat):
        reset_peak_rss()
        result = fn(*args)
        result["peak_rss_bytes"] = peak_rss_bytes()
        if best is not None and (
            result["fingerprint"]["sha256"] != best["fingerprint"]["sha256"]
        ):
            raise AssertionError(
                "non-deterministic scenario: fingerprint changed across repeats"
            )
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    assert best is not None
    return best


def profiled(fn, *args) -> dict:
    """Run one scenario under cProfile and print the top entries."""
    profiler = cProfile.Profile()
    reset_peak_rss()
    profiler.enable()
    result = fn(*args)
    profiler.disable()
    result["peak_rss_bytes"] = peak_rss_bytes()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small smoke sizes")
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--baseline",
        default=None,
        help="earlier output of this harness to diff against (before/after)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=f"wrap each scenario in cProfile and print the top "
        f"{PROFILE_TOP} cumulative entries",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timed runs per scenario; the fastest wall clock is kept "
        "(noise filter — the simulated outcome is identical every run)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with --baseline: exit non-zero if any shared scenario's "
        "behavior fingerprint differs (CI regression gate; the bench "
        "runs with telemetry/load metering disabled, so this doubles "
        "as the observatory's zero-overhead gate)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="SUBSTRING",
        help="only run scenarios whose key contains this substring "
        "(e.g. 'churn' for targeted before/after comparisons)",
    )
    args = parser.parse_args(argv)
    if args.check and not args.baseline:
        parser.error("--check requires --baseline")

    baseline = None
    if args.baseline:
        # Fail before the (long) measurement runs, not after.
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            parser.error(f"--baseline file not found: {baseline_path}")
        try:
            baseline = json.loads(baseline_path.read_text())
        except json.JSONDecodeError as exc:
            parser.error(f"--baseline is not valid JSON ({baseline_path}): {exc}")

    if args.quick:
        sizes, subs, pubs = (120,), 60, 120
        churn_nodes, churn_subs, churn_pubs = 100, 40, 80
    else:
        sizes, subs, pubs = (500, 2000), 400, 800
        churn_nodes, churn_subs, churn_pubs = 400, 300, 600

    runs: list[tuple[str, object, tuple]] = [
        (scenario_key(nodes, mapping), run_one, (nodes, mapping, subs, pubs))
        for nodes in sizes
        for mapping in MAPPINGS
    ]
    runs.append(
        (f"eqdense-grid-n{sizes[0]}", run_eqdense, (sizes[0], subs, pubs))
    )
    runs.append(
        (f"churn-n{churn_nodes}", run_churn, (churn_nodes, churn_subs, churn_pubs))
    )
    runs.extend(
        (
            f"churn-{kind}-n{churn_nodes}",
            run_churn,
            (churn_nodes, churn_subs, churn_pubs, kind),
        )
        for kind in ("pastry", "can")
    )
    if not args.quick:
        # CAN's large-n datapoint, comparable to the Chord scale runs
        # (same workload shape as n2000-selective-attribute).
        runs.append(
            (
                "scale-can-n2000",
                run_one,
                (2000, "selective-attribute", subs, pubs, "can"),
            )
        )
    # Flash-crowd load-skew datapoint: the only scenario that runs with
    # the load observatory enabled; its JSON carries the skew analytics
    # (hot keys/nodes, Gini, overload events) and the covering-index
    # effectiveness numbers (collapsed installs, matcher-work skew vs
    # the uncollapsed reference leg).  Full-size even under --quick: it
    # feeds the --check covering and perf gates, so the workload must
    # be the one whose skew the covering index is built to shed.
    runs.append(("flash-crowd-n2000", run_flash_crowd, (2000, 400, 800)))
    if args.scenario is not None:
        runs = [run for run in runs if args.scenario in run[0]]
        if not runs:
            parser.error(f"no scenario key contains {args.scenario!r}")

    scenarios: dict[str, dict] = {}
    for key, runner, run_args in runs:
        print(f"[bench] {key}: ...", flush=True)
        if args.profile:
            print(f"[profile] {key}:", flush=True)
            result = profiled(runner, *run_args)
        else:
            result = best_of(max(1, args.repeat), runner, *run_args)
        scenarios[key] = result
        print(
            f"[bench] {key}: wall={result['wall_s']:.3f}s "
            f"sim_events/s={result['sim_events_per_s']:,} "
            f"msgs/s={result['app_msgs_per_s']:,} "
            f"peak_rss={result['peak_rss_bytes'] / 2**20:.1f}MiB "
            f"fp={result['fingerprint']['sha256'][:12]}",
            flush=True,
        )

    report = {
        "meta": {
            "seed": SEED,
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scenarios": scenarios,
    }

    if baseline is not None:
        base_scenarios = baseline.get("scenarios", {})
        delta = {}
        for key, after in scenarios.items():
            before = base_scenarios.get(key)
            if before is None:
                continue
            speedup = (
                after["sim_events_per_s"] / before["sim_events_per_s"]
                if before["sim_events_per_s"]
                else None
            )
            wall_speedup = (
                before["wall_s"] / after["wall_s"] if after["wall_s"] else None
            )
            msgs_speedup = (
                after["app_msgs_per_s"] / before["app_msgs_per_s"]
                if before["app_msgs_per_s"]
                else None
            )
            delta[key] = {
                "before_sim_events_per_s": before["sim_events_per_s"],
                "after_sim_events_per_s": after["sim_events_per_s"],
                "before_wall_s": before["wall_s"],
                "after_wall_s": after["wall_s"],
                "speedup": round(speedup, 3) if speedup else None,
                "wall_speedup": round(wall_speedup, 3) if wall_speedup else None,
                "app_msgs_speedup": round(msgs_speedup, 3) if msgs_speedup else None,
                "metrics_equal": (
                    before["fingerprint"]["sha256"] == after["fingerprint"]["sha256"]
                ),
            }
        report["baseline"] = {
            "meta": baseline.get("meta"),
            "scenarios": base_scenarios,
        }
        report["delta"] = delta
        if not delta:
            print(
                "[delta] WARNING: baseline shares no scenarios with this run "
                "(quick vs full?) — no speedups computed",
                flush=True,
            )
        for key, d in delta.items():
            print(
                f"[delta] {key}: events/s {d['speedup']}x "
                f"wall {d['wall_speedup']}x msgs/s {d['app_msgs_speedup']}x "
                f"metrics_equal={d['metrics_equal']}",
                flush=True,
            )

    out = args.out
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[bench] wrote {out}", flush=True)

    if args.check:
        delta = report.get("delta", {})
        if not delta:
            print("[check] FAIL: no shared scenarios with baseline", flush=True)
            return 1
        # Every overlay's fingerprint must stay bit-for-bit identical.
        # These scenarios run with telemetry — and so load metering —
        # disabled, which makes this comparison the load observatory's
        # zero-overhead gate: a stray load hook on the disabled path
        # would perturb the event/message stream and flip the
        # fingerprints.
        mismatched = [k for k, d in delta.items() if not d["metrics_equal"]]
        if mismatched:
            print(
                f"[check] FAIL: behavior fingerprints diverged from baseline "
                f"in {', '.join(sorted(mismatched))}",
                flush=True,
            )
            return 1
        # Perf floors: the CAN fast path and the flash-crowd hot path
        # (covering + observatory) must not silently regress.  The
        # quick baseline records the machine it ran on; same-machine CI
        # runs must stay within 5% of its throughput on these keys.
        slowed = [
            (k, d)
            for k, d in delta.items()
            if k.startswith(("churn-can", "flash-crowd"))
            and d["before_sim_events_per_s"]
            and d["after_sim_events_per_s"]
            < 0.95 * d["before_sim_events_per_s"]
        ]
        if slowed:
            for key, d in slowed:
                print(
                    f"[check] FAIL: {key} throughput regressed: "
                    f"{d['after_sim_events_per_s']:,} events/s < 0.95 x "
                    f"baseline {d['before_sim_events_per_s']:,}",
                    flush=True,
                )
            return 1
        # Covering-effectiveness gate: the flash-crowd Zipf workload
        # must actually collapse subscriptions, the collapsed run's
        # delivery fingerprint must equal the uncollapsed reference
        # leg's bit for bit, and the hottest rendezvous node's share of
        # matcher work must be strictly below the uncollapsed store's.
        weak: list[str] = []
        for key, result in scenarios.items():
            cov = result.get("covering")
            if cov is None:
                continue
            ref = cov["uncollapsed_reference"]
            if cov["collapsed"] <= 0:
                weak.append(
                    f"{key}: no subscriptions collapsed on the Zipf workload"
                )
            if not ref["fingerprint_equal"]:
                weak.append(
                    f"{key}: covering run's fingerprint diverged from the "
                    f"uncollapsed store"
                )
            if not (
                cov["match_work"]["hottest_share"]
                < ref["match_work"]["hottest_share"]
            ):
                weak.append(
                    f"{key}: hottest-node matcher-work share did not drop "
                    f"({cov['match_work']['hottest_share']} vs uncollapsed "
                    f"{ref['match_work']['hottest_share']})"
                )
        if weak:
            for line in weak:
                print(f"[check] FAIL: {line}", flush=True)
            return 1
        # Maintenance gate: a churn scenario whose nodes never patched
        # has regressed to wholesale rebuilds — the incremental
        # delta-log path stopped being taken, even if behavior (and so
        # the fingerprint) is unchanged.
        unpatched = [
            key
            for key, result in scenarios.items()
            if "maintenance" in result
            and result["maintenance"]["table_patches"] == 0
        ]
        if unpatched:
            print(
                f"[check] FAIL: no incremental table patches recorded in "
                f"{', '.join(sorted(unpatched))} — churn maintenance "
                f"regressed to wholesale rebuilds",
                flush=True,
            )
            return 1
        print(
            f"[check] OK: {len(delta)} scenarios checked against baseline "
            f"(fingerprints identical, churn-can/flash-crowd "
            f"within the perf floor); churn scenarios patch "
            f"incrementally; covering collapses and preserves delivery",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
