"""The packet-level hop path keeps its schedule, draws and taps.

Links skip calling :func:`~repro.netsim.link.no_jitter`, and nodes skip
their taps when they have none.  These tests pin what that must not
change: a run over the Table 1 topology whose middle link draws
Gaussian jitter makes exactly as many ``link-jitter`` draws as before,
with the same arrivals, and a tap added mid-run to a node that had
none sees every later packet.
"""

from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.link import Link, no_jitter
from repro.netsim.node import Host, Router
from repro.netsim.topology import build_path_topology

#: Datagram sizes of the pinned run: one-packet and fragmented trains.
PINNED_SIZES = (1000, 4000, 500, 12000, 1400, 200, 30000, 64)
#: Arrival times of the pinned run, from the hop path before the
#: no_jitter and tap skips existed.
PINNED_ARRIVALS = [0.022167359999999997, 0.03522591999999998,
                   0.04112735999999997, 0.06178912000000003,
                   0.06330983514650981, 0.07050336, 0.10651551999999992,
                   0.10660031999999992]
#: Packets through the jittered middle link's two directions, each one
#: draw from the link-jitter stream.
PINNED_DRAWS = 38
#: The link-jitter stream's next draw after the pinned run.
PINNED_NEXT_DRAW = 0.9040776108789182


def _pinned_run(count_draws: bool):
    sim = Simulator(seed=7)
    path = build_path_topology(sim, hop_count=17, rtt=0.040,
                               jitter_std=0.0004)
    draws = []
    jittered = [direction for link in path.links
                for direction in (link._forward, link._reverse)
                if direction._jitter is not no_jitter]
    if count_draws:
        for direction in jittered:
            def counted(draw=direction._jitter):
                draws.append(None)
                return draw()
            direction._jitter = counted
    sink = path.client.udp.bind(5004)
    arrivals = []
    sink.on_receive = lambda dgram: arrivals.append(dgram.arrival_time)
    sender = path.server.udp.bind_ephemeral()
    for index, size in enumerate(PINNED_SIZES):
        sim.schedule_at(0.01 * index, sender.send, path.client.address,
                        5004, size)
    sim.run()
    return sim, jittered, arrivals, len(draws)


def test_jittered_middle_link_draws_as_before():
    sim, jittered, arrivals, _ = _pinned_run(count_draws=False)
    assert len(jittered) == 2  # both directions of the middle link
    assert arrivals == PINNED_ARRIVALS
    assert sim.streams.stream("link-jitter").random() == PINNED_NEXT_DRAW


def test_one_draw_per_packet_through_the_jittered_link():
    _, jittered, arrivals, draws = _pinned_run(count_draws=True)
    assert arrivals == PINNED_ARRIVALS
    assert draws == PINNED_DRAWS
    assert draws == sum(d.stats.packets_sent for d in jittered)


def _three_node_path(sim):
    left = Host(sim, "left", IPAddress.parse("10.0.0.1"))
    router = Router(sim, "r1", IPAddress.parse("10.0.1.1"))
    right = Host(sim, "right", IPAddress.parse("10.0.0.2"))
    Link(sim, left, router, propagation_delay=0.001)
    Link(sim, router, right, propagation_delay=0.001)
    left.routing.set_default(router)
    router.routing.set_default(right)
    right.routing.set_default(router)
    return left, router, right


def test_tap_added_mid_run_sees_every_later_packet():
    sim = Simulator(seed=1)
    left, router, right = _three_node_path(sim)
    right.udp.bind(5004)
    sender = left.udp.bind_ephemeral()
    sizes = (400, 3000, 900, 200, 5000)  # 1, 3, 1, 1, 4 packets
    for index, size in enumerate(sizes):
        sim.schedule_at(0.1 * index, sender.send, right.address, 5004, size)
    seen = {"left": [], "r1": [], "right": []}

    def tap_for(name):
        return lambda direction, packet, now: seen[name].append(
            (direction, packet.ip.total_length, now))

    assert not (left.taps or router.taps or right.taps)
    for node in (left, router, right):
        sim.schedule_at(0.25, node.add_tap, tap_for(node.name))
    sim.run()
    # Datagrams 3 and 4 (sent at 0.3 and 0.4) leave after the taps
    # went on: one and four packets.
    later = [228, 1500, 1500, 1500, 588]
    assert [size for d, size, _ in seen["left"] if d == "tx"] == later
    assert [size for d, size, _ in seen["left"] if d == "rx"] == []
    assert [size for d, size, _ in seen["r1"] if d == "rx"] == later
    assert [size for d, size, _ in seen["r1"] if d == "tx"] == later
    assert [size for d, size, _ in seen["right"] if d == "rx"] == later
    assert all(now >= 0.25 for taps in seen.values() for _, _, now in taps)
