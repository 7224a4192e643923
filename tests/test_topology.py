"""Path-topology construction and end-to-end plumbing tests."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import no_jitter
from repro.netsim.topology import (
    CLIENT_SUBNET,
    SERVER_SUBNET,
    build_path_topology,
)


class TestConstruction:
    def test_router_count_matches_hop_count(self, path):
        # hop_count counts tracert hops (routers + destination).
        assert len(path.routers) == path.hop_count - 1

    def test_servers_are_co_located_on_one_subnet(self, path):
        for server in path.servers:
            assert server.address in SERVER_SUBNET

    def test_client_on_campus_subnet(self, path):
        assert path.client.address in CLIENT_SUBNET

    def test_two_servers_by_default(self, path):
        assert len(path.servers) == 2
        assert path.server is path.servers[0]

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_path_topology(sim, hop_count=1)
        with pytest.raises(ValueError):
            build_path_topology(sim, server_count=0)
        with pytest.raises(ValueError):
            build_path_topology(sim, rtt=0)

    def test_zero_std_jitter_is_the_shared_no_jitter(self):
        sim = Simulator()
        quiet = build_path_topology(sim, hop_count=5, jitter_std=0.0)
        for link in quiet.links:
            assert link._forward._jitter is no_jitter
            assert link._reverse._jitter is no_jitter


class TestEndToEnd:
    def test_udp_flows_client_to_server_and_back(self, path):
        sim = path.sim
        server_inbox = []
        client_inbox = []
        server_sock = path.server.udp.bind(5005)
        server_sock.on_receive = server_inbox.append
        client_sock = path.client.udp.bind(6006)
        client_sock.on_receive = client_inbox.append

        client_sock.send(path.server.address, 5005, 100)
        sim.run()
        assert len(server_inbox) == 1
        server_sock.send(path.client.address, 6006, 100)
        sim.run()
        assert len(client_inbox) == 1

    def test_both_servers_reachable_simultaneously(self, path):
        inboxes = ([], [])
        for index, server in enumerate(path.servers):
            sock = server.udp.bind(5005)
            sock.on_receive = inboxes[index].append
        client = path.client.udp.bind_ephemeral()
        for server in path.servers:
            client.send(server.address, 5005, 64)
        path.sim.run()
        assert len(inboxes[0]) == 1
        assert len(inboxes[1]) == 1

    def test_rtt_scales_with_parameter(self):
        rtts = []
        for target in (0.020, 0.160):
            sim = Simulator(seed=1)
            topo = build_path_topology(sim, hop_count=17, rtt=target)
            results = []
            topo.client.icmp.send_echo(topo.server.address, results.append)
            sim.run()
            rtts.append(results[0].rtt)
        assert rtts[0] == pytest.approx(0.020, rel=0.3)
        assert rtts[1] == pytest.approx(0.160, rel=0.1)

    def test_fragmented_media_crosses_the_path(self, path):
        inbox = []
        sock = path.client.udp.bind(7000)
        sock.on_receive = inbox.append
        server_sock = path.server.udp.bind_ephemeral()
        server_sock.send(path.client.address, 7000, 3840)
        path.sim.run()
        assert len(inbox) == 1
        assert inbox[0].fragment_count == 3

    def test_hop_count_variations_build(self):
        for hops in (2, 10, 25, 30):
            sim = Simulator(seed=1)
            topo = build_path_topology(sim, hop_count=hops)
            results = []
            topo.client.icmp.send_echo(topo.server.address, results.append)
            sim.run()
            assert results and not results[0].time_exceeded
