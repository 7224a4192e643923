"""The packet object that moves through the simulated network.

A :class:`Packet` is one IP packet (possibly a fragment) together with
its transport header (present only on the first fragment, as on the
wire) and application payload metadata.  Sizes are tracked exactly so
that serialization delay, queue occupancy, and the capture traces all
agree with what Ethereal would have shown: a full-size fragment is a
1514-byte wire frame.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from repro import units
from repro.errors import PacketError
from repro.netsim.headers import (
    IPv4Header,
    IcmpHeader,
    IpProtocol,
    PayloadMeta,
    TcpHeader,
    UdpHeader,
)

_packet_ids = itertools.count(1)
_new_packet = object.__new__

TransportHeader = Union[UdpHeader, TcpHeader, IcmpHeader]


class Packet:
    """One IP packet in flight.

    A slotted plain class rather than a dataclass: every router hop
    builds a copy (:meth:`forwarded`), so construction is on the
    packet-level hot path.  Equality compares ``ip``, ``transport``,
    ``payload``, ``uid`` and ``datagram_id`` (not ``span``), as the
    dataclass it replaces did; defining ``__eq__`` alone leaves packets
    unhashable, as they were.

    Attributes:
        ip: the IPv4 header (sizes, fragmentation fields, TTL).
        transport: UDP/TCP/ICMP header; ``None`` on trailing fragments,
            which carry only raw IP payload, exactly as on the wire.
        payload: application metadata describing the carried bytes
            (a fresh empty :class:`PayloadMeta` when not given).
        uid: globally unique packet id (diagnostics and capture joins);
            drawn from a process-wide counter when not given.
        datagram_id: id shared by all fragments of one IP datagram.
        span: provenance span context set by the sender's IP layer when
            a :class:`~repro.telemetry.spans.SpanRecorder` is installed;
            ``None`` otherwise (and on all non-traced traffic).
    """

    __slots__ = ("ip", "transport", "payload", "uid", "datagram_id", "span")

    def __init__(self, ip: IPv4Header,
                 transport: Optional[TransportHeader] = None,
                 payload: Optional[PayloadMeta] = None,
                 uid: Optional[int] = None, datagram_id: int = 0,
                 span: Optional[object] = None) -> None:
        self.ip = ip
        self.transport = transport
        self.payload = PayloadMeta() if payload is None else payload
        self.uid = next(_packet_ids) if uid is None else uid
        self.datagram_id = datagram_id
        self.span = span
        if ip.total_length < ip.header_bytes:
            raise PacketError(
                f"IP total_length {ip.total_length} smaller than header")
        if ip.is_trailing_fragment and transport is not None:
            raise PacketError("trailing fragments must not carry a "
                              "transport header")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ip, self.transport, self.payload, self.uid,
                 self.datagram_id)
                == (other.ip, other.transport, other.payload, other.uid,
                    other.datagram_id))

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def ip_bytes(self) -> int:
        """Size of the IP packet (header + payload)."""
        return self.ip.total_length

    @property
    def wire_bytes(self) -> int:
        """Size on an Ethernet wire, as a sniffer reports it."""
        return units.wire_frame_bytes(self.ip.total_length)

    @property
    def is_fragment(self) -> bool:
        return self.ip.is_fragment

    @property
    def is_trailing_fragment(self) -> bool:
        return self.ip.is_trailing_fragment

    @property
    def protocol(self) -> IpProtocol:
        return self.ip.protocol

    def forwarded(self) -> "Packet":
        """A copy with TTL decremented, as a router would emit.

        The copy's slots are filled directly: the header checks in
        ``__init__`` hold for it because they held for ``self`` and a
        TTL change cannot break them.

        Raises:
            PacketError: if the TTL is already zero.
        """
        ip = self.ip
        if ip.ttl <= 0:
            raise PacketError("cannot forward a packet with TTL 0")
        copy = _new_packet(Packet)
        copy.ip = ip.decremented()
        copy.transport = self.transport
        copy.payload = self.payload
        copy.uid = next(_packet_ids)
        copy.datagram_id = self.datagram_id
        copy.span = self.span
        return copy

    def __repr__(self) -> str:
        frag = ""
        if self.is_fragment:
            frag = (f" frag(off={self.ip.fragment_offset * 8}"
                    f"{'+' if self.ip.more_fragments else '$'})")
        return (f"<Packet #{self.uid} {self.ip.src}->{self.ip.dst} "
                f"{self.protocol.name} {self.ip_bytes}B{frag}>")
