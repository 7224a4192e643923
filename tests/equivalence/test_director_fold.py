"""The director's fold shortcuts are exact.

The flow-level director folds a one-packet train as inline scalars and
skips calling :func:`~repro.netsim.link.no_jitter` directions.  Both
are shortcuts around :func:`train_schedule`, the reference kernel, so
these tests hold them to it bit for bit: a hypothesis property over
the scalar fold's inputs, a pinned run on the Table 1 topology whose
middle link draws Gaussian jitter (the ``link-jitter`` stream must be
drawn exactly as before), and a ledger run whose zero-jitter folds
must record zeros and refold to the committed arrivals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig, train_schedule
from repro.netsim.headers import IPv4Header, IpProtocol, UdpHeader
from repro.netsim.link import Link, no_jitter
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet
from repro.netsim.topology import build_path_topology
from repro.validate.checker import RunValidator

_times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)


def _two_hop_path(sim, bandwidth_bps, propagation, jitter):
    """left -> r1 -> right; only the r1 -> right direction jitters."""
    left = Host(sim, "left", IPAddress.parse("10.0.0.1"))
    router = Router(sim, "r1", IPAddress.parse("10.0.1.1"))
    right = Host(sim, "right", IPAddress.parse("10.0.0.2"))
    first = Link(sim, left, router, bandwidth_bps=bandwidth_bps,
                 propagation_delay=propagation)
    second = Link(sim, router, right, bandwidth_bps=bandwidth_bps,
                  propagation_delay=propagation, jitter=jitter)
    left.routing.set_default(router)
    router.routing.set_default(right)
    return left, right, first._forward, second._forward


@settings(max_examples=200, deadline=None)
@given(entry=_times, prev_dep=_times, last_delivery=_times,
       bandwidth_bps=st.floats(min_value=1e3, max_value=1e10),
       propagation=st.floats(min_value=0.0, max_value=1.0),
       jitter=st.one_of(st.just(None), st.just(0.0),
                        st.floats(min_value=-0.01, max_value=0.01)),
       total_length=st.integers(min_value=28, max_value=9000))
def test_scalar_fold_equals_train_schedule(entry, prev_dep, last_delivery,
                                           bandwidth_bps, propagation,
                                           jitter, total_length):
    # jitter None is the shared no_jitter (the director skips the call);
    # 0.0 and the rest go through a real callable.
    callable_jitter = None if jitter is None else (lambda: jitter)
    sim = Simulator(seed=1, validate=RunValidator(),
                    fast_path=FlowLevelConfig())
    left, right, hop1, hop2 = _two_hop_path(sim, bandwidth_bps,
                                            propagation, callable_jitter)
    assert (hop2._jitter is no_jitter) == (jitter is None)
    for direction in (hop1, hop2):
        direction._reserved_until = prev_dep
        direction._last_delivery = last_delivery
    sim.now = entry
    packet = Packet(
        ip=IPv4Header(src=left.address, dst=right.address,
                      protocol=IpProtocol.UDP, total_length=total_length),
        transport=UdpHeader(src_port=1, dst_port=2,
                            length=total_length - 20))
    assert sim.fast_path.try_deliver(left.ip, [packet])

    wires = (packet.wire_bytes,)
    arrivals, dep1, last1 = train_schedule(
        [entry], wires, bandwidth_bps, propagation, prev_dep,
        last_delivery, (0.0,))
    arrivals, dep2, last2 = train_schedule(
        arrivals, wires, bandwidth_bps, propagation, prev_dep,
        last_delivery, (jitter or 0.0,))
    assert (hop1._reserved_until, hop1._last_delivery) == (dep1, last1)
    assert (hop2._reserved_until, hop2._last_delivery) == (dep2, last2)
    assert hop2._fp_last_entry == last1
    (record,) = sim.fast_path.ledger
    assert record.arrivals == tuple(arrivals)
    assert record.refold() == record.arrivals


#: Datagram sizes of the pinned run: one-packet and fragmented trains.
PINNED_SIZES = (1000, 4000, 500, 12000, 1400, 200)
#: Arrival times of the pinned run, from the director before the fold
#: shortcuts existed; one of them carries a positive jitter draw.
PINNED_ARRIVALS = [0.022167359999999997, 0.07522592, 0.12112736000000009,
                   0.18178912000000025, 0.22330983514651018,
                   0.27050336000000014]
#: The link-jitter stream's next draw after the pinned run.
PINNED_NEXT_DRAW = 0.5035762123277546


def test_table1_jitter_stream_is_drawn_as_before():
    sim = Simulator(seed=7, fast_path=FlowLevelConfig())
    path = build_path_topology(sim, hop_count=17, rtt=0.040,
                               jitter_std=0.0004)
    sink = path.client.udp.bind(5004)
    arrivals = []
    sink.on_receive = lambda dgram: arrivals.append(dgram.arrival_time)
    sender = path.server.udp.bind_ephemeral()
    for index, size in enumerate(PINNED_SIZES):
        sim.schedule_at(0.05 * index, sender.send, path.client.address,
                        5004, size)
    sim.run()
    director = sim.fast_path
    assert (director.trains_fast, director.trains_fallback) == (6, 0)
    assert arrivals == PINNED_ARRIVALS
    assert sim.streams.stream("link-jitter").random() == PINNED_NEXT_DRAW


def test_zero_jitter_ledger_records_zeros_and_refolds():
    sim = Simulator(seed=3, validate=RunValidator(),
                    fast_path=FlowLevelConfig())
    path = build_path_topology(sim, hop_count=6, jitter_std=0.0)
    path.client.udp.bind(5004)
    sender = path.server.udp.bind_ephemeral()
    for index, size in enumerate((300, 6000, 1472, 20000)):
        sim.schedule_at(0.02 * index, sender.send, path.client.address,
                        5004, size)
    sim.run()
    ledger = sim.fast_path.ledger
    assert len(ledger) == 4
    assert {len(record.wires) for record in ledger} >= {1, 5}
    for record in ledger:
        for fold in record.directions:
            assert fold.jitters == (0.0,) * len(record.wires)
        assert record.refold() == record.arrivals

