"""Routing-table tests: longest-prefix match and its lookup memo.

``RoutingTable.lookup`` remembers each destination's next hop; every
table mutator (``add_route``, ``set_default``, ``replace``) must forget
it, and a miss must never be remembered.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.netsim.addressing import IPAddress, Subnet
from repro.netsim.routing import RoutingTable

HOST = IPAddress.parse("10.1.2.3")


def linear_scan(entries, default, destination):
    """Reference longest-prefix match with no memo (ties: first added)."""
    best = None
    for subnet, next_hop in entries:
        if destination in subnet and (
                best is None or subnet.prefix_len > best[0].prefix_len):
            best = (subnet, next_hop)
    if best is not None:
        return best[1]
    if default is not None:
        return default
    raise RoutingError(f"no route to {destination}")


class TestLongestPrefixMatch:
    def test_longest_prefix_wins(self):
        table = RoutingTable()
        table.add_route(Subnet.parse("10.0.0.0/8"), "wide")
        table.add_route(Subnet.parse("10.1.0.0/16"), "narrow")
        assert table.lookup(HOST) == "narrow"
        assert table.lookup(IPAddress.parse("10.9.0.1")) == "wide"

    def test_default_when_nothing_matches(self):
        table = RoutingTable()
        table.add_route(Subnet.parse("192.168.0.0/16"), "lan")
        table.set_default("upstream")
        assert table.lookup(HOST) == "upstream"


class TestMemoInvalidation:
    def test_repeat_lookup_skips_the_prefix_scan(self, monkeypatch):
        table = RoutingTable()
        table.add_route(Subnet.parse("10.0.0.0/8"), "wide")
        assert table.lookup(HOST) == "wide"
        calls = []
        original = Subnet.__contains__

        def counting(subnet, address):
            calls.append(subnet)
            return original(subnet, address)

        monkeypatch.setattr(Subnet, "__contains__", counting)
        assert table.lookup(HOST) == "wide"
        assert calls == []

    def test_add_route_forgets_a_hit(self):
        table = RoutingTable()
        table.add_route(Subnet.parse("10.0.0.0/8"), "wide")
        assert table.lookup(HOST) == "wide"
        table.add_route(Subnet.parse("10.1.2.0/24"), "narrow")
        assert table.lookup(HOST) == "narrow"

    def test_add_route_forgets_a_default_hit(self):
        table = RoutingTable()
        table.set_default("upstream")
        assert table.lookup(HOST) == "upstream"
        table.add_route(Subnet(HOST, 32), "direct")
        assert table.lookup(HOST) == "direct"

    def test_set_default_forgets_a_default_hit(self):
        table = RoutingTable()
        table.set_default("old")
        assert table.lookup(HOST) == "old"
        table.set_default("new")
        assert table.lookup(HOST) == "new"

    def test_replace_forgets_every_hit(self):
        table = RoutingTable()
        table.add_route(Subnet.parse("10.0.0.0/8"), "wide")
        table.set_default("upstream")
        other = IPAddress.parse("172.16.0.1")
        assert table.lookup(HOST) == "wide"
        assert table.lookup(other) == "upstream"
        table.replace([(Subnet(other, 32), "rebuilt")])
        assert table.lookup(other) == "rebuilt"
        # The replaced table has no default: the old hit must not linger.
        with pytest.raises(RoutingError):
            table.lookup(HOST)

    def test_miss_is_not_memoised(self):
        table = RoutingTable()
        with pytest.raises(RoutingError):
            table.lookup(HOST)
        table.add_route(Subnet.parse("10.0.0.0/8"), "wide")
        assert table.lookup(HOST) == "wide"


_routes = st.lists(
    st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32),
              st.integers(0, 5)),
    max_size=8)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, 0xFFFFFFFF)),
        st.tuples(st.just("add"), st.integers(0, 0xFFFFFFFF),
                  st.integers(0, 32), st.integers(0, 5)),
        st.tuples(st.just("default"), st.integers(0, 5)),
        st.tuples(st.just("replace"), _routes),
    ),
    max_size=40)


def _subnet(value, prefix_len):
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    return Subnet(IPAddress(value & mask), prefix_len)


class TestMemoProperty:
    @settings(max_examples=200, deadline=None)
    @given(operations=_operations, probes=st.lists(
        st.integers(0, 0xFFFFFFFF), max_size=4))
    def test_memoised_lookup_equals_linear_scan(self, operations, probes):
        table = RoutingTable()
        entries, default = [], None
        # Probe addresses are looked up after every step, so the memo is
        # warm whenever a mutation arrives.
        recent = [0]
        for operation in operations:
            kind = operation[0]
            if kind == "lookup":
                recent.append(operation[1])
            elif kind == "add":
                entry = (_subnet(operation[1], operation[2]),
                         f"hop{operation[3]}")
                table.add_route(*entry)
                entries.append(entry)
                recent.append(operation[1])
            elif kind == "default":
                default = f"hop{operation[1]}"
                table.set_default(default)
            else:
                entries = [(_subnet(value, prefix), f"hop{hop}")
                           for value, prefix, hop in operation[1]]
                default = None
                table.replace(list(entries))
            for value in recent[-6:] + probes:
                destination = IPAddress(value)
                try:
                    expected = linear_scan(entries, default, destination)
                except RoutingError:
                    with pytest.raises(RoutingError):
                        table.lookup(destination)
                    continue
                assert table.lookup(destination) == expected
