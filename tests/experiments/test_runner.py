"""The experiment runner: determinism and result plumbing."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.system import RoutingMode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.workload.spec import WorkloadSpec


def small_config(**overrides):
    defaults = dict(
        mapping="selective-attribute",
        routing=RoutingMode.MCAST,
        nodes=100,
        subscriptions=40,
        publications=40,
        workload=WorkloadSpec(subscription_ttl=None),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_run_produces_complete_result():
    result = run_experiment(small_config())
    assert result.subscriptions_sent == 40
    assert result.publications_sent == 40
    assert result.sub_hops.count == 40
    assert result.pub_hops.count == 40
    assert result.keys_per_subscription > 1
    assert result.keys_per_publication == 4.0  # selective-attribute: d keys
    assert result.max_subscriptions_per_node >= 1
    assert result.mean_subscriptions_per_node > 0


def test_same_seed_same_results():
    a = run_experiment(small_config(seed=7))
    b = run_experiment(small_config(seed=7))
    assert a.sub_hops == b.sub_hops
    assert a.pub_hops == b.pub_hops
    assert a.max_subscriptions_per_node == b.max_subscriptions_per_node
    assert a.notification_messages == b.notification_messages


def test_different_seed_different_results():
    a = run_experiment(small_config(seed=7))
    b = run_experiment(small_config(seed=8))
    assert (
        a.sub_hops != b.sub_hops
        or a.max_subscriptions_per_node != b.max_subscriptions_per_node
    )


def test_notification_hops_per_publication():
    result = run_experiment(small_config())
    assert result.notification_hops_per_publication >= 0.0


def test_zero_publications():
    result = run_experiment(small_config(publications=0))
    assert result.publications_sent == 0
    assert result.notification_hops_per_publication == 0.0
    assert result.keys_per_publication == 0.0


def test_core_path_does_not_import_numpy():
    """The serial runner and the shard kernel stay pure-stdlib.

    Both import orders are tried, which also pins that the two modules
    import each other's dependencies without a cycle.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for first, second in (
        ("repro.experiments.runner", "repro.sim.shard"),
        ("repro.sim.shard", "repro.experiments.runner"),
    ):
        code = (
            f"import sys, {first}, {second}; "
            "sys.exit('numpy' in sys.modules)"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
