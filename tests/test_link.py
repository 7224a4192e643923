"""Link serialization, queueing, loss, and jitter tests."""

import pytest

from repro import units
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.headers import IPv4Header, IpProtocol
from repro.netsim.link import Link, LossModel, no_jitter
from repro.netsim.node import Node
from repro.netsim.packet import Packet


class SinkNode(Node):
    """Records every delivered packet with its arrival time."""

    def __init__(self, sim, name):
        super().__init__(sim, name, IPAddress.parse("10.0.0.1"))
        self.received = []

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet))


def make_packet(size=1500):
    header = IPv4Header(src=IPAddress.parse("10.0.0.2"),
                        dst=IPAddress.parse("10.0.0.1"),
                        protocol=IpProtocol.UDP, total_length=size)
    return Packet(ip=header)


def build(sim, **link_kwargs):
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    link = Link(sim, a, b, **link_kwargs)
    return a, b, link


class TestDelivery:
    def test_single_packet_delay_is_tx_plus_propagation(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.010)
        packet = make_packet(1500)  # 1514 wire bytes
        link.send_from(a, packet)
        sim.run()
        expected = 1514 * 8 / 10e6 + 0.010
        assert b.received[0][0] == pytest.approx(expected)

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.0)
        for _ in range(3):
            link.send_from(a, make_packet(1500))
        sim.run()
        times = [t for t, _ in b.received]
        gap = 1514 * 8 / 10e6
        assert times[1] - times[0] == pytest.approx(gap)
        assert times[2] - times[1] == pytest.approx(gap)

    def test_duplex_directions_are_independent(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.001)
        link.send_from(a, make_packet())
        link.send_from(b, make_packet())
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_fifo_order_preserved(self):
        sim = Simulator()
        a, b, link = build(sim)
        packets = [make_packet(500 + i) for i in range(5)]
        for packet in packets:
            link.send_from(a, packet)
        sim.run()
        assert [p for _, p in b.received] == packets

    def test_non_endpoint_sender_rejected(self):
        sim = Simulator()
        a, b, link = build(sim)
        stranger = SinkNode(sim, "stranger")
        with pytest.raises(ValueError):
            link.send_from(stranger, make_packet())


class TestLossAndJitter:
    def test_lossless_by_default(self):
        sim = Simulator()
        a, b, link = build(sim)
        for _ in range(50):
            link.send_from(a, make_packet())
        sim.run()
        assert len(b.received) == 50

    def test_total_loss_drops_everything(self):
        sim = Simulator(seed=3)
        a, b, link = build(sim, loss=LossModel(1.0,
                                               sim.streams.stream("loss")))
        for _ in range(10):
            link.send_from(a, make_packet())
        sim.run()
        assert b.received == []
        assert link.direction_stats(a).packets_lost == 10

    def test_partial_loss_is_partial(self):
        sim = Simulator(seed=3)
        a, b, link = build(sim, loss=LossModel(0.5,
                                               sim.streams.stream("loss")))
        for _ in range(200):
            link.send_from(a, make_packet())
        sim.run()
        assert 0 < len(b.received) < 200

    def test_jitter_spreads_arrivals(self):
        sim = Simulator(seed=5)
        rng = sim.streams.stream("jitter")
        a, b, link = build(sim, propagation_delay=0.010,
                           jitter=lambda: rng.uniform(0.0, 0.005))
        # Send with spacing large enough that serialization never backs up.
        for i in range(20):
            sim.schedule_at(i * 0.1, link.send_from, a, make_packet())
        sim.run()
        offsets = [t - i * 0.1 for i, (t, _) in enumerate(b.received)]
        assert max(offsets) - min(offsets) > 0.001

    def test_default_jitter_is_the_shared_no_jitter(self):
        # The flow-level director recognises jitter-free directions by
        # identity, so every default link must share this one function.
        sim = Simulator()
        _, _, link = build(sim)
        _, _, other = build(sim)
        assert link._forward._jitter is no_jitter
        assert link._reverse._jitter is no_jitter
        assert other._forward._jitter is no_jitter
        assert no_jitter() == 0.0

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.kbps(64),
                           queue_capacity_bytes=3000)
        for _ in range(10):
            link.send_from(a, make_packet(1500))
        sim.run()
        assert len(b.received) < 10
        assert link.direction_stats(a).packets_lost > 0

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, a, b, propagation_delay=-1)

    def test_loss_model_validates_probability(self):
        with pytest.raises(ValueError):
            LossModel(1.5)

    def test_custom_queue_factory_used_per_direction(self):
        from repro.netsim.queues import RedQueue

        sim = Simulator()
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        built = []

        def factory():
            queue = RedQueue(capacity_bytes=50_000)
            built.append(queue)
            return queue

        link = Link(sim, a, b, queue_factory=factory)
        assert len(built) == 2  # one queue per direction
        link.send_from(a, make_packet())
        sim.run()
        assert built[0].stats.enqueued + built[1].stats.enqueued == 1

    def test_queue_stats_by_sender(self):
        sim = Simulator()
        a, b, link = build(sim)
        link.send_from(a, make_packet())
        sim.run()
        assert link.queue_stats(a).enqueued == 1
        assert link.queue_stats(b).enqueued == 0
        with pytest.raises(ValueError):
            link.queue_stats(SinkNode(sim, "stranger"))

    def test_loss_spares_tcp_by_default(self):
        sim = Simulator(seed=3)
        a, b, link = build(sim, loss=LossModel(1.0,
                                               sim.streams.stream("loss")))
        header = IPv4Header(src=IPAddress.parse("10.0.0.2"),
                            dst=IPAddress.parse("10.0.0.1"),
                            protocol=IpProtocol.TCP, total_length=60)
        for _ in range(5):
            link.send_from(a, Packet(ip=header))
        sim.run()
        # TCP survives total UDP loss (stands in for retransmission).
        assert len(b.received) == 5

    def test_loss_can_drop_tcp_when_asked(self):
        sim = Simulator(seed=3)
        loss = LossModel(1.0, sim.streams.stream("loss"), spare_tcp=False)
        a, b, link = build(sim, loss=loss)
        header = IPv4Header(src=IPAddress.parse("10.0.0.2"),
                            dst=IPAddress.parse("10.0.0.1"),
                            protocol=IpProtocol.TCP, total_length=60)
        link.send_from(a, Packet(ip=header))
        sim.run()
        assert b.received == []
