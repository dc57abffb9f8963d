"""The OverlayNetwork contract, enforced uniformly across Chord, Pastry
and CAN — anything the pub/sub layer relies on must hold for all."""

import random

import pytest

from repro.errors import OverlayError
from repro.overlay.api import MessageKind, NeighborSide, OverlayMessage, next_request_id
from repro.overlay.can import CanOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import KeySpace
from repro.overlay.pastry import PastryOverlay
from repro.sim import Simulator

KS = KeySpace(13)
OVERLAYS = [ChordOverlay, PastryOverlay, CanOverlay]


def build(overlay_cls, n=60, seed=2):
    sim = Simulator()
    overlay = overlay_cls(sim, KS)
    overlay.build_ring(random.Random(seed).sample(range(KS.size), n))
    return sim, overlay


def message(src, kind=MessageKind.PUBLICATION):
    return OverlayMessage(
        kind=kind, payload=None, request_id=next_request_id(), origin=src
    )


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_every_key_has_exactly_one_owner(overlay_cls):
    _, overlay = build(overlay_cls)
    for key in range(0, KS.size, 61):
        owner = overlay.owner_of(key)
        assert overlay.is_alive(owner)
        assert overlay.covers(owner, key)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_nodes_cover_their_own_ids(overlay_cls):
    _, overlay = build(overlay_cls)
    for node_id in overlay.node_ids():
        assert overlay.covers(node_id, node_id)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_neighbor_pointers_are_mutual(overlay_cls):
    _, overlay = build(overlay_cls)
    for node_id in overlay.node_ids()[:20]:
        successor = overlay.neighbor_of(node_id, NeighborSide.SUCCESSOR)
        assert overlay.neighbor_of(successor, NeighborSide.PREDECESSOR) == node_id


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_heir_inherits_coverage_on_crash(overlay_cls):
    _, overlay = build(overlay_cls)
    victim = overlay.node_ids()[7]
    heir = overlay.heir_of(victim)
    probe_key = victim  # the victim covers its own id
    overlay.crash(victim)
    assert overlay.owner_of(probe_key) == heir


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_send_to_neighbor_is_exactly_one_hop(overlay_cls):
    sim, overlay = build(overlay_cls)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.hops)))
    src = overlay.node_ids()[0]
    overlay.send_to_neighbor(src, NeighborSide.SUCCESSOR, message(src))
    sim.run()
    assert delivered == [(overlay.neighbor_of(src, NeighborSide.SUCCESSOR), 1)]


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_empty_mcast_and_sequential_are_noops(overlay_cls):
    sim, overlay = build(overlay_cls)
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append(nid))
    src = overlay.node_ids()[0]
    overlay.mcast(src, [], message(src))
    overlay.sequential_cast(src, [], message(src))
    sim.run()
    assert delivered == []
    assert overlay.recorder.messages.total_sends() == 0


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_send_validates_key_range(overlay_cls):
    _, overlay = build(overlay_cls)
    src = overlay.node_ids()[0]
    with pytest.raises(Exception):
        overlay.send(src, KS.size, message(src))


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_unknown_source_rejected(overlay_cls):
    _, overlay = build(overlay_cls)
    missing = next(k for k in range(KS.size) if not overlay.is_alive(k))
    with pytest.raises(OverlayError):
        overlay.send(missing, 0, message(missing))


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_local_coverage_delivers_without_network(overlay_cls):
    sim, overlay = build(overlay_cls)
    src = overlay.node_ids()[0]
    delivered = []
    overlay.set_deliver(lambda nid, m: delivered.append((nid, m.hops)))
    overlay.send(src, src, message(src))  # own id: always local
    sim.run()
    assert delivered == [(src, 0)]
    assert overlay.recorder.messages.total_sends() == 0


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_state_transfer_hook_interval_matches_new_coverage(overlay_cls):
    """Whatever interval the hook hands over, the recipient must end up
    covering every key in it (open-left, closed-right convention)."""
    sim, overlay = build(overlay_cls, n=20, seed=4)
    calls = []
    overlay.set_state_transfer(lambda f, t, r: calls.append((f, t, r)))
    joiner = next(k for k in range(100, KS.size) if not overlay.is_alive(k))
    overlay.join(joiner)
    assert calls, "join must fire the state-transfer hook"
    from_node, to_node, (left, right) = calls[-1]
    assert to_node == joiner
    for key in KS.keys_in_range((left + 1) % KS.size, right)[:50]:
        assert overlay.covers(joiner, key), key


def _reference_covered(overlay, node_id, keys):
    return {key for key in keys if overlay.owner_of(key) == node_id}


def _probe_keys(overlay):
    """A key sweep plus the keys around zero and the ring's extremes
    (on a ring, the arc that wraps past zero ends at the smallest id)."""
    ids = overlay.node_ids()
    edges = {0, 1, KS.size - 1, min(ids), max(ids)}
    edges |= {(max(ids) + 1) % KS.size, (min(ids) - 1) % KS.size}
    return sorted(set(range(0, KS.size, 7)) | edges)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_covered_keys_is_owner_of_per_key(overlay_cls):
    _, overlay = build(overlay_cls)
    keys = _probe_keys(overlay)
    covered: set[int] = set()
    for node_id in overlay.node_ids():
        mine = overlay.covered_keys(node_id, keys)
        assert mine == _reference_covered(overlay, node_id, keys)
        assert not mine & covered
        covered |= mine
    assert covered == set(keys)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
def test_covered_keys_on_a_one_node_ring(overlay_cls):
    _, overlay = build(overlay_cls, n=1)
    (only,) = overlay.node_ids()
    keys = _probe_keys(overlay)
    assert overlay.covered_keys(only, keys) == set(keys)


@pytest.mark.parametrize("overlay_cls", OVERLAYS)
@pytest.mark.parametrize("departure", ["leave", "crash"])
def test_covered_keys_of_a_departed_node_is_empty(overlay_cls, departure):
    _, overlay = build(overlay_cls)
    victim = overlay.node_ids()[7]
    keys = _probe_keys(overlay)
    getattr(overlay, departure)(victim)
    assert overlay.covered_keys(victim, keys) == set()
    heir_keys = overlay.covered_keys(overlay.owner_of(victim), keys)
    assert heir_keys == _reference_covered(overlay, overlay.owner_of(victim), keys)
