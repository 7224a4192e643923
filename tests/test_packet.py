"""Packet and header model tests."""

import dataclasses

import pytest

from repro.errors import PacketError
from repro.netsim.addressing import IPAddress
from repro.netsim.headers import (
    IPv4Header,
    IpProtocol,
    PayloadMeta,
    UdpHeader,
)
from repro.netsim.packet import Packet

SRC = IPAddress.parse("64.14.118.1")
DST = IPAddress.parse("130.215.0.1")


def make_header(**overrides):
    fields = dict(src=SRC, dst=DST, protocol=IpProtocol.UDP,
                  total_length=1500, identification=7, ttl=64)
    fields.update(overrides)
    return IPv4Header(**fields)


class TestIPv4Header:
    def test_payload_bytes(self):
        assert make_header(total_length=1500).payload_bytes == 1480

    def test_not_fragment_by_default(self):
        header = make_header()
        assert not header.is_fragment
        assert not header.is_trailing_fragment

    def test_first_fragment_flags(self):
        header = make_header(more_fragments=True, fragment_offset=0)
        assert header.is_fragment
        assert not header.is_trailing_fragment

    def test_trailing_fragment_flags(self):
        header = make_header(more_fragments=False, fragment_offset=185)
        assert header.is_fragment
        assert header.is_trailing_fragment

    def test_decremented_reduces_ttl_only(self):
        header = make_header(ttl=10)
        lower = header.decremented()
        assert lower.ttl == 9
        assert lower.total_length == header.total_length

    @pytest.mark.parametrize("hops", [0, 1, 16, 64])
    def test_decremented_by_hops_keeps_every_other_field(self, hops):
        header = make_header(ttl=64, more_fragments=True,
                             fragment_offset=185, identification=4242)
        lower = header.decremented(hops)
        assert lower.ttl == 64 - hops
        before = dataclasses.asdict(header)
        after = dataclasses.asdict(lower)
        before.pop("ttl")
        after.pop("ttl")
        assert after == before
        assert header.decremented(1) == header.decremented()


class TestPacket:
    def test_wire_bytes_adds_ethernet_header(self):
        packet = Packet(ip=make_header(total_length=1500))
        assert packet.wire_bytes == 1514

    def test_total_length_smaller_than_header_rejected(self):
        with pytest.raises(PacketError):
            Packet(ip=make_header(total_length=10))

    def test_trailing_fragment_with_transport_rejected(self):
        header = make_header(fragment_offset=185)
        udp = UdpHeader(src_port=1, dst_port=2, length=100)
        with pytest.raises(PacketError):
            Packet(ip=header, transport=udp)

    def test_uids_are_unique(self):
        a = Packet(ip=make_header())
        b = Packet(ip=make_header())
        assert a.uid != b.uid

    def test_forwarded_decrements_ttl_keeps_identity(self):
        packet = Packet(ip=make_header(ttl=5), datagram_id=99)
        forwarded = packet.forwarded()
        assert forwarded.ip.ttl == 4
        assert forwarded.datagram_id == 99
        assert forwarded.transport is packet.transport

    def test_forwarded_keeps_every_header_field_but_ttl(self):
        header = make_header(ttl=9, identification=4321,
                             more_fragments=True, fragment_offset=0)
        udp = UdpHeader(src_port=1, dst_port=2, length=1480)
        packet = Packet(ip=header, transport=udp,
                        payload=PayloadMeta(media_time=1.5),
                        datagram_id=12, span=object())
        forwarded = packet.forwarded()
        before = dataclasses.asdict(header)
        after = dataclasses.asdict(forwarded.ip)
        assert after.pop("ttl") == before.pop("ttl") - 1
        assert after == before
        assert type(forwarded.ip) is IPv4Header
        assert forwarded.transport is packet.transport
        assert forwarded.payload is packet.payload
        assert forwarded.span is packet.span
        assert forwarded.datagram_id == packet.datagram_id
        # A fresh uid from the global counter, on every forward.
        assert forwarded.uid > packet.uid
        assert packet.forwarded().uid > forwarded.uid

    def test_forwarding_dead_packet_rejected(self):
        packet = Packet(ip=make_header(ttl=0))
        with pytest.raises(PacketError):
            packet.forwarded()


class TestSlottedPacket:
    """``Packet`` is a slotted class that behaves as the dataclass did."""

    def test_has_no_instance_dict(self):
        packet = Packet(ip=make_header())
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.colour = "red"

    def test_equality_covers_every_field_but_span(self):
        header = make_header()
        payload = PayloadMeta()
        udp = UdpHeader(src_port=1, dst_port=2, length=1480)
        packet = Packet(ip=header, transport=udp, payload=payload, uid=5,
                        datagram_id=3, span=object())
        assert packet == Packet(ip=header, transport=udp, payload=payload,
                                uid=5, datagram_id=3, span=None)
        for other in (
                Packet(ip=make_header(ttl=1), transport=udp,
                       payload=payload, uid=5, datagram_id=3),
                Packet(ip=header, payload=payload, uid=5, datagram_id=3),
                Packet(ip=header, transport=udp,
                       payload=PayloadMeta(kind="control"), uid=5,
                       datagram_id=3),
                Packet(ip=header, transport=udp, payload=payload, uid=6,
                       datagram_id=3),
                Packet(ip=header, transport=udp, payload=payload, uid=5,
                       datagram_id=4)):
            assert packet != other
        assert packet.__eq__(object()) is NotImplemented
        assert packet != object()

    def test_unhashable(self):
        packet = Packet(ip=make_header())
        with pytest.raises(TypeError):
            hash(packet)
        with pytest.raises(TypeError):
            {packet}

    def test_defaults(self):
        first = Packet(ip=make_header())
        second = Packet(ip=make_header())
        assert first.transport is None
        assert first.payload == PayloadMeta()
        assert first.payload is not second.payload
        assert second.uid == first.uid + 1
        assert (first.datagram_id, first.span) == (0, None)
        assert Packet(ip=make_header(), uid=0).uid == 0

    def test_repr(self):
        packet = Packet(ip=make_header(more_fragments=True))
        assert repr(packet) == (f"<Packet #{packet.uid} 64.14.118.1->"
                                f"130.215.0.1 UDP 1500B frag(off=0+)>")
        trailing = Packet(ip=make_header(total_length=100,
                                         fragment_offset=185))
        assert repr(trailing) == (f"<Packet #{trailing.uid} 64.14.118.1->"
                                  f"130.215.0.1 UDP 100B frag(off=1480$)>")

    @pytest.mark.parametrize("fields", [
        dict(ip=make_header(total_length=10)),
        dict(ip=make_header(fragment_offset=185),
             transport=UdpHeader(src_port=1, dst_port=2, length=100)),
    ])
    def test_checks_raise_from_init(self, fields):
        with pytest.raises(PacketError) as info:
            Packet(**fields)
        assert info.traceback[-1].name == "__init__"

    def test_forwarded_copies_every_slot_but_ip_and_uid(self):
        udp = UdpHeader(src_port=1, dst_port=2, length=1480)
        packet = Packet(ip=make_header(ttl=3), transport=udp,
                        payload=PayloadMeta(media_time=2.0),
                        datagram_id=8, span=object())
        forwarded = packet.forwarded()
        assert type(forwarded) is Packet
        assert set(Packet.__slots__) == {"ip", "transport", "payload", "uid",
                                         "datagram_id", "span"}
        for name in ("transport", "payload", "datagram_id", "span"):
            assert getattr(forwarded, name) is getattr(packet, name)
        assert forwarded.ip == packet.ip.decremented()

    def test_forwarded_draws_the_next_uid(self):
        packet = Packet(ip=make_header(ttl=3))
        forwarded = packet.forwarded()
        assert forwarded.uid == packet.uid + 1
        assert Packet(ip=make_header()).uid == forwarded.uid + 1

    def test_forwarding_dead_packet_draws_no_uid(self):
        packet = Packet(ip=make_header(ttl=0))
        with pytest.raises(PacketError):
            packet.forwarded()
        assert Packet(ip=make_header()).uid == packet.uid + 1
