"""Link serialization, queueing, loss, and jitter tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(min_value=28, max_value=9000),
                      min_size=1, max_size=5),
       bandwidth=st.one_of(st.floats(min_value=1e3, max_value=1e10),
                           st.integers(min_value=1000,
                                       max_value=10_000_000_000)),
       propagation=st.floats(min_value=0.0, max_value=1.0),
       start=st.floats(min_value=0.0, max_value=10.0))
def test_delivery_times_follow_transmission_delay_bit_for_bit(
        sizes, bandwidth, propagation, start):
    # The transmitter inlines units.transmission_delay; a burst sent at
    # `start` must arrive exactly where the helper's arithmetic says.
    sim = Simulator()
    a, b, link = build(sim, bandwidth_bps=bandwidth,
                       propagation_delay=propagation)
    packets = [make_packet(size) for size in sizes]

    def burst():
        for packet in packets:
            link.send_from(a, packet)

    sim.schedule_at(start, burst)
    sim.run()
    expected = []
    departure = start
    for packet in packets:
        departure = departure + units.transmission_delay(packet.wire_bytes,
                                                         bandwidth)
        expected.append(departure + propagation)
    assert [time for time, _ in b.received] == expected
    assert [packet for _, packet in b.received] == packets


class TestNonFiniteParameters:
    """Rates and delays are checked once, where they enter a link: the
    transmitter divides by the rate per packet without re-checking it."""

    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth_bps=math.nan), dict(bandwidth_bps=math.inf),
        dict(bandwidth_bps=-math.inf), dict(bandwidth_bps=0.0),
        dict(propagation_delay=math.nan), dict(propagation_delay=math.inf),
        dict(propagation_delay=-1e-9),
    ])
    def test_constructor_rejects(self, kwargs):
        sim = Simulator()
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, **kwargs)
        assert a.links == [] and b.links == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0])
    def test_set_bandwidth_rejects(self, value):
        sim = Simulator()
        _, _, link = build(sim, bandwidth_bps=units.mbps(10))
        with pytest.raises(ValueError):
            link.set_bandwidth(value)
        assert link.bandwidth_bps == units.mbps(10)
        assert link._forward._bandwidth_bps == units.mbps(10)
        assert sim.topology_epoch == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-9])
    def test_set_propagation_delay_rejects(self, value):
        sim = Simulator()
        _, _, link = build(sim, propagation_delay=0.002)
        with pytest.raises(ValueError):
            link.set_propagation_delay(value)
        assert link.propagation_delay == 0.002
        assert link._reverse._propagation_delay == 0.002
        assert sim.topology_epoch == 0

    def test_finite_values_still_accepted(self):
        sim = Simulator()
        _, _, link = build(sim, propagation_delay=0.0)
        link.set_bandwidth(1e-3)
        link.set_propagation_delay(0.0)
        link.set_propagation_delay(3600.0)
        assert (link.bandwidth_bps, link.propagation_delay) == (1e-3, 3600.0)


class TestTransmitterState:
    def test_jitter_never_reorders_a_direction(self):
        # The first packet draws a long jitter, the second none: the
        # second is held to the first's arrival (the wire is FIFO).
        sim = Simulator()
        draws = iter([0.005, 0.0, -0.002])
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.001,
                           jitter=lambda: next(draws))
        for size in (1500, 100, 100):
            link.send_from(a, make_packet(size))
        sim.run()
        first = units.transmission_delay(1514, units.mbps(10)) + 0.001 + 0.005
        assert [time for time, _ in b.received] == [first] * 3

    def test_finish_with_an_open_reservation_keeps_the_transmitter(self):
        # A virtual train reserved the wire while a real packet was
        # serializing: when that packet finishes, the transmitter stays
        # busy until the reservation ends, as _transmit_next decides.
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10))
        direction = link.direction_from(a)
        link.send_from(a, make_packet())
        direction._reserved_until = 0.5
        sim.run(until=0.01)
        assert len(b.received) == 1
        assert direction._busy
        assert direction._busy_until == 0.5
        assert sim.pending_events == 1
        sim.run()
        assert not direction._busy

    def test_finish_with_nothing_left_frees_the_transmitter(self):
        sim = Simulator()
        a, b, link = build(sim)
        direction = link.direction_from(a)
        link.send_from(a, make_packet())
        link.send_from(a, make_packet())
        sim.run()
        assert len(b.received) == 2
        assert not direction._busy
        assert direction._in_flight == 0

    def test_direction_from_dispatches_on_the_sender(self):
        sim = Simulator()
        a, b, link = build(sim)
        assert link.direction_from(a) is link._forward
        assert link.direction_from(b) is link._reverse
        assert a.egress == {b: link._forward}
        assert b.egress == {a: link._reverse}
        with pytest.raises(ValueError):
            link.direction_from(SinkNode(sim, "stranger"))
