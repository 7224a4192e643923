"""Static routing tables with longest-prefix match.

The experiments run over fixed paths (the paper verified with tracert
that routes did not change during a run), so routing is static: each
node holds a table mapping subnets to next-hop neighbors, with an
optional default route.  Longest-prefix match keeps multi-subnet
topologies (server farm + campus network) unambiguous.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.netsim.addressing import IPAddress, Subnet
from repro.telemetry.events import ROUTE_RECONVERGED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node


class RoutingTable:
    """Longest-prefix-match table from subnets to next-hop nodes."""

    def __init__(self) -> None:
        self._entries: List[Tuple[Subnet, "Node"]] = []
        self._default: Optional["Node"] = None
        #: destination.value -> next hop of a past hit (never a miss);
        #: cleared by every mutator below.
        self._memo: Dict[int, "Node"] = {}

    def add_route(self, subnet: Subnet, next_hop: "Node") -> None:
        """Route traffic for ``subnet`` via ``next_hop``."""
        self._entries.append((subnet, next_hop))
        # Keep longest prefixes first so lookup can return the first hit.
        self._entries.sort(key=lambda entry: entry[0].prefix_len, reverse=True)
        self._memo.clear()

    def set_default(self, next_hop: "Node") -> None:
        """Fallback next hop when no subnet matches."""
        self._default = next_hop
        self._memo.clear()

    def lookup(self, destination: IPAddress) -> "Node":
        """Next hop for ``destination``.

        Raises:
            RoutingError: when nothing matches and no default is set.
        """
        next_hop = self._memo.get(destination.value)
        if next_hop is not None:
            return next_hop
        for subnet, next_hop in self._entries:
            if destination in subnet:
                break
        else:
            next_hop = self._default
            if next_hop is None:
                raise RoutingError(f"no route to {destination}")
        self._memo[destination.value] = next_hop
        return next_hop

    def replace(self, entries: List[Tuple[Subnet, "Node"]],
                default: Optional["Node"] = None) -> None:
        """Swap the whole table in one step (route re-convergence).

        Used by :class:`RouteManager` after a topology change: the old
        table — including its default route — is discarded, so a
        destination with no surviving path genuinely has *no route*
        rather than a stale default pointing into a black hole.
        """
        self._entries = sorted(entries,
                               key=lambda entry: entry[0].prefix_len,
                               reverse=True)
        self._default = default
        self._memo.clear()

    def __len__(self) -> int:
        return len(self._entries) + (1 if self._default else 0)


class RouteManager:
    """Failure-aware re-convergence over a static topology.

    Static tables are correct for the paper's steady-state runs (tracert
    confirmed stable paths), but the fault layer takes links down
    mid-run.  The manager models a routing protocol at a very coarse
    grain: a link state change starts a convergence timer, and when it
    fires every managed node's table is rebuilt by breadth-first search
    over the links that are currently up — host (/32) routes to every
    addressed node.  Until the timer fires, traffic follows the stale
    tables (and is dropped by the down link); after it fires, unreachable
    destinations are dropped at the source with a ``no_route_drop``
    event instead of raising ``RoutingError`` out of the event loop.

    The manager does nothing — and the original hand-written tables are
    untouched — until :meth:`attach` is called and a link actually
    changes state, keeping the no-fault hot path byte-identical.

    Args:
        sim: owning simulator (for the convergence timer and telemetry).
        nodes: every node whose table the manager owns after the first
            re-convergence; iteration order fixes tie-breaking, so pass
            a deterministically-ordered sequence.
        convergence_delay: seconds between a link event and the rebuilt
            tables taking effect.
    """

    def __init__(self, sim, nodes, convergence_delay: float = 0.5) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.convergence_delay = convergence_delay
        self.reconvergences = 0
        self._pending = 0

    def attach(self) -> None:
        """Subscribe to link state changes and arm no-route dropping."""
        for node in self.nodes:
            node.drop_on_no_route = True
            node.on_link_state = self._on_link_state

    # Link.set_up notifies both endpoints, so one flap produces two
    # calls (plus more if several links change in the same window); the
    # pending counter coalesces them into a single rebuild when the
    # last timer fires.
    def _on_link_state(self, link, up: bool) -> None:
        self._pending += 1
        self.sim.schedule_in(self.convergence_delay, self._reconverge)

    def _reconverge(self) -> None:
        self._pending -= 1
        if self._pending > 0:
            return
        self.rebuild()
        self.reconvergences += 1
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(ROUTE_RECONVERGED,
                                    tables=len(self.nodes))

    def rebuild(self) -> None:
        """Recompute every managed node's table from live links."""
        for node in self.nodes:
            first_hop = self._first_hops(node)
            entries = [(Subnet(target.address, 32), hop)
                       for target, hop in first_hop.items()
                       if target.address is not None]
            node.routing.replace(entries)

    @staticmethod
    def _first_hops(source: "Node"):
        """BFS over up links: reachable node -> first hop from source.

        Neighbor dicts preserve attachment order, so ties (equal-length
        paths) resolve identically on every run and in every process.
        """
        first_hop = {}
        visited = {source}
        queue = []
        for peer, link in source.neighbors.items():
            if link.up and peer not in visited:
                visited.add(peer)
                first_hop[peer] = peer
                queue.append(peer)
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for peer, link in node.neighbors.items():
                if link.up and peer not in visited:
                    visited.add(peer)
                    first_hop[peer] = first_hop[node]
                    queue.append(peer)
        return first_hop
