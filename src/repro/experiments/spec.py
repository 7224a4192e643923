"""One study, one object: :class:`StudySpec`.

A study is the Table 1 sweep (or a custom clip library) under one
master seed and one set of options: a fault schedule, a congestion
controller or the ABR ladder, loss repair, the flow-level fast path.
Each option is declared once, here, as a field of a frozen, picklable
dataclass; everything below the public entry points passes the spec
whole — into pool workers, the study cache, the differential oracle —
and never copies an option by hand.

:meth:`StudySpec.fingerprint` is the study's identity: two specs that
drive the same sweep share it, any change to any field changes it, and
the study cache keys on it.  Execution settings (telemetry, ``jobs``,
``validate``, ``min_parallel_runs``, ``stream``, ``progress``) are not
part of the spec: they change how a study runs or what it reports
alongside, never the pair runs it produces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cc.abr import AbrConfig
    from repro.cc.base import CcConfig
    from repro.faults.scenario import FaultScenario
    from repro.media.library import ClipLibrary
    from repro.netsim.flowlevel import FlowLevelConfig
    from repro.repair.base import RepairConfig


def _slot(value: object) -> object:
    """A field's place in the fingerprint: ``None`` and scalars as they
    are, a library or config by its own ``fingerprint()``."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    return value.fingerprint()


@dataclass(frozen=True, eq=False)
class StudySpec:
    """Everything that decides what a study sweep produces.

    An option left ``None`` — or a null config — arms *nothing*,
    keeping every pair run byte-identical to the 2002 code path.
    Equality is fingerprint equality, so a spec that crossed a pickle
    round trip (a pool task, a cache entry) equals the original.

    Raises:
        ExperimentError: from the constructor, for an option
            combination no pair run can honor.
    """

    #: Clip library to sweep; ``None`` means Table 1 at
    #: ``duration_scale``.
    library: Optional["ClipLibrary"] = None
    #: Master seed; pair run ``i`` uses ``seed + i``.
    seed: int = 2002
    #: Multiplies every clip length of the default library (tests and
    #: benches use < 1; the paper's clips are 1.0).
    duration_scale: float = 1.0
    #: Middle-link loss probability of the sampled conditions.
    loss_probability: float = 0.0
    #: Fault schedule applied to every pair run.  Attaching one also
    #: arms the whole robustness stack — failure-aware routing, TCP
    #: retransmission, server media scaling, and player graceful
    #: degradation — none of which is active (or costs a single
    #: scheduled event) on a plain run.
    scenario: Optional["FaultScenario"] = None
    #: Congestion controller on the 2002 servers.  A non-null one arms
    #: the congestion-control stack: receiver reports flow at the
    #: config's feedback interval, payloads carry send stamps, and a
    #: per-session controller throttles each pacer.
    cc: Optional["CcConfig"] = None
    #: Replace both 2002 server/player pairs with the segment-ladder ABR
    #: transport (same stats schema, same REAL/WMP labels).
    abr: Optional["AbrConfig"] = None
    #: Loss repair on both 2002 server/player pairs: servers emit XOR
    #: parity and answer NACKs, players decode and request
    #: retransmissions.  The ABR transport has its own segment retry
    #: loop and never arms repair.
    repair: Optional["RepairConfig"] = None
    #: Deliver analytically-tractable packet trains in closed form
    #: instead of event-per-packet (see :mod:`repro.netsim.flowlevel`),
    #: falling back to packet-level per train whenever contention,
    #: loss, faults, cross traffic, or an active congestion controller
    #: make the model invalid.  Its results agree with packet-level
    #: within declared tolerances, so it is a different study.
    fast_path: Optional["FlowLevelConfig"] = None

    def __post_init__(self) -> None:
        if self.cc is not None and self.abr is not None:
            raise ExperimentError(
                "cc and abr are mutually exclusive transports; pick one")
        if self.fast_path is not None and self.abr is not None:
            raise ExperimentError(
                "fast_path and abr are mutually exclusive: the ABR "
                "request loop keys on per-segment timing the analytic "
                "model does not reproduce")
        if self.fast_path is not None and self.repair_armed:
            raise ExperimentError(
                "fast_path requires a null repair config: loss repair "
                "only matters on lossy paths, which the fast path "
                "refuses anyway")

    @property
    def cc_armed(self) -> bool:
        """A controller that actually throttles (not the null one)."""
        return self.cc is not None and not self.cc.is_null

    @property
    def repair_armed(self) -> bool:
        """A repair config that arms something, off the ABR transport."""
        return (self.repair is not None and not self.repair.is_null
                and self.abr is None)

    @property
    def allows_spans(self) -> bool:
        """False under the fast path: its director skips the per-hop
        events spans are built from, and refuses a span recorder."""
        return self.fast_path is None

    def key(self) -> Dict[str, object]:
        """Every field's fingerprint slot, by field name (JSON-safe)."""
        return {item.name: _slot(getattr(self, item.name))
                for item in fields(self)}

    def fingerprint(self) -> str:
        """A stable digest of :meth:`key`: the study's identity."""
        material = json.dumps(self.key(), sort_keys=True,
                              separators=(",", ":"))
        digest = hashlib.sha256(f"study\n{material}".encode())
        return f"study:{digest.hexdigest()[:32]}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StudySpec):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())


def study_spec(spec: Optional[StudySpec] = None,
               **options: object) -> StudySpec:
    """The spec a public entry point runs: ``spec`` with ``options``
    replaced, or a fresh spec built from ``options`` alone.

    ``options`` are :class:`StudySpec` field names; an unknown one
    raises ``TypeError`` as any unexpected keyword argument would.
    """
    if spec is None:
        return StudySpec(**options)
    return replace(spec, **options) if options else spec
