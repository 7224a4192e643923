"""Then-vs-now scorecard: the 2002 transports against modern ones.

The paper's scorecard (:mod:`repro.experiments.scorecard`) checks that
the reproduction still *reproduces 2002*.  This module asks the next
question: what happens to those same figures when the identical clip
corpus crosses the identical network under transports the intervening
decades produced?  It re-runs the full study once per transport —

* ``2002`` — the paper's push servers, byte-identical to the baseline
  study (and served from the same cache entry);
* ``aimd`` — the 2002 servers under a Reno-style loss-based
  congestion controller (:mod:`repro.cc.aimd`);
* ``gcc`` — the same under delay-gradient bandwidth estimation
  (:mod:`repro.cc.gcc`);
* ``abr`` — the segment-ladder pull transport
  (:mod:`repro.servers.abr` + :mod:`repro.players.abrtracker`);

— then lines the figure families up column by column: fragmentation
(Figures 4-5), interarrival regularity (Figures 6-9), delivery-rate
ratio (Figure 10), startup delay (Figure 11), frame delivery
(Figures 13-14), and raw packet loss.  Every Table 1 clip set also
gets a per-set delivered-rate row, and :func:`scorecard_svg` plots
those as one series per transport.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.distributions import percentile
from repro.analysis.interarrival import first_of_group_interarrivals
from repro.capture.reassembly import fragmentation_percent
from repro.cc.abr import AbrConfig
from repro.cc.base import CcConfig, cc_names
from repro.errors import ExperimentError
from repro.experiments.cache import get_study
from repro.experiments.runner import StudyResults
from repro.experiments.spec import StudySpec, study_spec

__all__ = ["MODERN_TRANSPORTS", "ModernScorecard", "run_modern_scorecard",
           "render_modern_scorecard", "scorecard_svg"]

#: Column order of the then-vs-now table.  ``2002`` is the reference
#: (no transport config at all — the cached baseline study).
MODERN_TRANSPORTS: Tuple[str, ...] = ("2002", "aimd", "gcc", "abr")


def _transport_configs(name: str) -> Tuple[Optional[CcConfig],
                                           Optional[AbrConfig]]:
    if name == "2002":
        return None, None
    if name == "abr":
        return None, AbrConfig()
    if name in cc_names():
        return CcConfig(kind=name), None
    known = ", ".join(MODERN_TRANSPORTS)
    raise ExperimentError(
        f"unknown transport {name!r}; known transports: {known}")


@dataclass(frozen=True)
class MetricRow:
    """One figure-family metric measured under every transport."""

    artifact: str
    metric: str
    values: Tuple[Tuple[str, str], ...]  # (transport, rendered value)

    def row(self) -> List[str]:
        return [self.artifact, self.metric] + [v for _, v in self.values]


@dataclass
class ModernScorecard:
    """The four studies and their figure-for-figure comparison."""

    transports: Tuple[str, ...]
    seed: int
    duration_scale: float
    rows: List[MetricRow] = field(default_factory=list)
    #: Per transport: sorted (set number, mean delivered kbps) points.
    delivered_by_set: Dict[str, List[Tuple[float, float]]] = (
        field(default_factory=dict))


def _fmt(value: Optional[float], suffix: str = "",
         digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}{suffix}"


def _mean(values: Sequence[float]) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _player_stats(study: StudyResults):
    for run in study:
        yield run.real_stats
        yield run.wmp_stats


def _interarrival_cv(study: StudyResults) -> Optional[float]:
    """Mean coefficient of variation of media interarrival gaps."""
    cvs = []
    for run in study:
        for flow in (run.real_flow(), run.wmp_flow()):
            gaps = first_of_group_interarrivals(flow)
            if len(gaps) < 2:
                continue
            mean = statistics.fmean(gaps)
            if mean > 0:
                cvs.append(statistics.pstdev(gaps) / mean)
    return _mean(cvs)


def _delivered_ratio(study: StudyResults) -> Optional[float]:
    ratios = []
    for stats in _player_stats(study):
        if stats.streaming_duration and stats.encoded_kbps > 0:
            ratios.append(stats.average_playback_kbps / stats.encoded_kbps)
    return _mean(ratios)


def _startup_delay(study: StudyResults) -> Optional[float]:
    delays = []
    for stats in _player_stats(study):
        if (stats.playout_started_at is not None
                and stats.requested_at is not None):
            delays.append(stats.playout_started_at - stats.requested_at)
    return _mean(delays)


#: The figure-for-figure metric catalog: (artifact, label, extractor,
#: unit suffix, digits).  Each extractor maps a study to a scalar.
_METRICS = (
    ("fig01", "median RTT",
     lambda s: percentile([r * 1000 for r in s.rtt_samples()], 50)
     if s.rtt_samples() else None, " ms", 1),
    ("fig04/05", "WMP fragmentation",
     lambda s: _mean([fragmentation_percent(run.wmp_flow())
                      for run in s]), "%", 1),
    ("fig04/05", "Real fragmentation",
     lambda s: _mean([fragmentation_percent(run.real_flow())
                      for run in s]), "%", 1),
    ("fig06-09", "interarrival CV", _interarrival_cv, "", 3),
    ("fig10", "delivered/encoded rate", _delivered_ratio, "x", 2),
    ("fig11", "startup delay", _startup_delay, " s", 2),
    ("fig13", "frames on time",
     lambda s: _mean([100.0 - stats.frame_loss_percent
                      for stats in _player_stats(s)]), "%", 1),
    ("loss", "packets lost",
     lambda s: float(sum(stats.packets_lost
                         for stats in _player_stats(s))), "", 0),
)


def _delivered_by_set(study: StudyResults) -> List[Tuple[float, float]]:
    by_set: Dict[int, List[float]] = {}
    for run in study:
        for stats in (run.real_stats, run.wmp_stats):
            if stats.streaming_duration:
                by_set.setdefault(run.set_number, []).append(
                    stats.average_playback_kbps)
    return [(float(number), statistics.fmean(values))
            for number, values in sorted(by_set.items())]


def run_modern_scorecard(spec: Optional[StudySpec] = None, *,
                         jobs: int = 1,
                         transports: Optional[Sequence[str]] = None,
                         **options: object) -> ModernScorecard:
    """Run the study under every transport and tabulate the figures.

    ``spec`` (or ``options``, spec field names) is the baseline study;
    each transport replaces its ``cc`` and ``abr``.  Each transport's
    study goes through :func:`get_study`, so the ``2002`` column reuses
    the cached baseline sweep and re-invocations are cheap.

    Raises:
        ExperimentError: for an unknown transport name.
    """
    spec = study_spec(spec, **options)
    names = tuple(transports) if transports else MODERN_TRANSPORTS
    configs = {name: _transport_configs(name) for name in names}
    card = ModernScorecard(transports=names, seed=spec.seed,
                           duration_scale=spec.duration_scale)
    studies: Dict[str, StudyResults] = {}
    for name in names:
        cc, abr = configs[name]
        studies[name] = get_study(replace(spec, cc=cc, abr=abr), jobs=jobs)
    for artifact, label, extract, suffix, digits in _METRICS:
        values = tuple(
            (name, _fmt(extract(studies[name]), suffix, digits))
            for name in names)
        card.rows.append(MetricRow(artifact=artifact, metric=label,
                                   values=values))
    for name in names:
        card.delivered_by_set[name] = _delivered_by_set(studies[name])
    set_numbers = sorted({x for points in card.delivered_by_set.values()
                          for x, _ in points})
    for number in set_numbers:
        values = tuple(
            (name, _fmt(dict(card.delivered_by_set[name]).get(number),
                        " kbps"))
            for name in names)
        card.rows.append(MetricRow(
            artifact="table1", metric=f"set {int(number)} delivered",
            values=values))
    return card


def render_modern_scorecard(card: ModernScorecard) -> str:
    """The then-vs-now comparison as a text table."""
    from repro.analysis.report import format_table

    headers = ("artifact", "metric (then vs. now)") + card.transports
    table = format_table(headers, [row.row() for row in card.rows])
    return (f"{table}\n\nseed {card.seed}, duration scale "
            f"{card.duration_scale}; transports: "
            + ", ".join(card.transports))


def scorecard_svg(card: ModernScorecard) -> str:
    """Delivered rate per Table 1 set, one series per transport."""
    from repro.analysis.svg import svg_chart

    series = {name: points
              for name, points in card.delivered_by_set.items() if points}
    return svg_chart(series, title="Delivered rate by clip set, "
                                   "then vs. now",
                     x_label="Table 1 clip set",
                     y_label="delivered kbps")
