"""The one recipe that builds a simulated pub/sub stack from a config.

The serial runner (:func:`repro.experiments.runner.build_system`) and
every shard worker (:class:`repro.sim.shard.ShardWorker`) build their
stacks here.  They differ only in the network they pass in and in the
node ids they materialize, so ring membership, overlay parameters and
rendezvous keys agree across every copy by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from repro.core.mappings import make_mapping
from repro.core.mappings.base import AKMapping, Discretization
from repro.core.system import PubSubSystem
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.network import Network
from repro.overlay.pastry import PastryOverlay
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig


def ring_node_ids(
    config: "ExperimentConfig", streams: RandomStreams | None = None
) -> list[int]:
    """The run's ring membership, drawn from the ``ring`` substream.

    Every shard worker must insert the same ids in the same order (the
    CAN tessellation depends on insertion order), and the workload
    trace must draw injection nodes from the same population.

    Args:
        config: The experiment configuration.
        streams: The run's random substreams; defaults to a fresh
            ``RandomStreams(config.seed)``.
    """
    if streams is None:
        streams = RandomStreams(config.seed)
    return streams.stream("ring").sample(
        range(KeySpace(config.key_bits).size), config.nodes
    )


def build_mapping(config: "ExperimentConfig") -> AKMapping:
    """The ak-mapping of one configuration.

    Stateless, so the audit replay and the result summary can rebuild
    it and get the same keys as the stacks that ran.
    """
    space = config.workload.make_space()
    discretization = Discretization.uniform(
        space.dimensions, config.discretization_width
    )
    mapping_kwargs: dict[str, object] = {"discretization": discretization}
    if config.mapping == "attribute-split":
        mapping_kwargs["event_attribute"] = config.event_attribute
    return make_mapping(
        config.mapping, space, KeySpace(config.key_bits), **mapping_kwargs
    )


def build_stack(
    config: "ExperimentConfig",
    network: Network,
    ring_ids: list[int],
    local: Collection[int] | None = None,
) -> PubSubSystem:
    """Overlay, pre-built ring, mapping and pub/sub layer over ``network``.

    Args:
        config: The experiment configuration.
        network: The transport, already bound to its simulator: a
            :class:`~repro.overlay.network.Network` for serial runs, a
            :class:`~repro.overlay.network.ShardNetwork` per shard.
        ring_ids: Every ring member, in :func:`ring_node_ids` order.
        local: The ids to materialize (a shard's arc); None builds them
            all.  The ring's routing geometry always spans ``ring_ids``.
    """
    sim = network.sim
    keyspace = KeySpace(config.key_bits)
    if config.overlay == "pastry":
        overlay = PastryOverlay(sim, keyspace, network=network)
    elif config.overlay == "can":
        overlay = CanOverlay(sim, keyspace, network=network)
    else:
        overlay = ChordOverlay(
            sim, keyspace, network=network, cache_capacity=config.cache_capacity
        )
    overlay.build_ring(ring_ids, local=local)
    return PubSubSystem(sim, overlay, build_mapping(config), config.pubsub_config())
