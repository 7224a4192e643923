"""Table 1: the paper's six experiment data sets, verbatim.

Every encoded rate below is copied from the paper's Table 1 (Real/WMP,
per band); lengths come from the table's clip-info column.  Set 1's
length is not legible in the archived copy, so we use 2:00 — documented
in DESIGN.md — which sits comfortably inside the paper's 30 s–5 min
clip-selection rule.

Advertised rates follow Section II.C: low pairs were advertised as
~56 Kbps connections, high pairs as ~300 Kbps, and the single very-high
pair as ~600 Kbps.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.media.clip import Clip, ClipEncoding, PlayerFamily
from repro.media.library import ClipLibrary, ClipPair, ClipSet, RateBand

#: Advertised connection rates per band (Section II.C).
ADVERTISED_KBPS = {
    RateBand.LOW: 56.0,
    RateBand.HIGH: 300.0,
    RateBand.VERY_HIGH: 600.0,
}

#: (set number, genre, length seconds,
#:  {band: (real encoded kbps, wmp encoded kbps)})
_TABLE_1: Tuple[Tuple[int, str, float,
                      Dict[RateBand, Tuple[float, float]]], ...] = (
    (1, "Sports", 120.0, {
        RateBand.HIGH: (284.0, 323.1),
        RateBand.LOW: (36.0, 49.8),
    }),
    (2, "Commercial", 39.0, {
        RateBand.HIGH: (268.0, 307.2),
        RateBand.LOW: (84.0, 102.3),
    }),
    (3, "Sports", 60.0, {
        RateBand.HIGH: (284.0, 307.2),
        RateBand.LOW: (36.5, 37.9),
    }),
    (4, "Music TV", 245.0, {
        RateBand.HIGH: (180.9, 309.1),
        RateBand.LOW: (26.0, 49.6),
    }),
    (5, "News", 107.0, {
        RateBand.HIGH: (217.6, 250.4),
        RateBand.LOW: (22.0, 39.0),
    }),
    (6, "Movie clip", 147.0, {
        RateBand.VERY_HIGH: (636.9, 731.3),
        RateBand.HIGH: (271.0, 347.2),
        RateBand.LOW: (38.5, 102.3),
    }),
)


def _clip(set_number: int, genre: str, duration: float, band: RateBand,
          family: PlayerFamily, encoded_kbps: float) -> Clip:
    title = f"set{set_number}-{band.short}-{family.value}"
    return Clip(title=title, genre=genre, duration=duration,
                encoding=ClipEncoding(
                    family=family, encoded_kbps=encoded_kbps,
                    advertised_kbps=ADVERTISED_KBPS[band]))


def build_table1_library(duration_scale: float = 1.0) -> ClipLibrary:
    """The paper's clip library.

    Args:
        duration_scale: multiply every clip length (tests use < 1 to
            shorten experiments; benchmarks use 1.0).

    Returns:
        A :class:`~repro.media.library.ClipLibrary` with 6 sets and 26
        clips (13 pairs), matching Table 1.
    """
    if duration_scale <= 0:
        raise ValueError("duration_scale must be positive")
    library = ClipLibrary()
    for number, genre, duration, bands in _TABLE_1:
        scaled = duration * duration_scale
        clip_set = ClipSet(number=number, genre=genre, duration=scaled)
        for band, (real_kbps, wmp_kbps) in bands.items():
            clip_set.add_pair(ClipPair(
                band=band,
                real=_clip(number, genre, scaled, band, PlayerFamily.REAL,
                           real_kbps),
                wmp=_clip(number, genre, scaled, band, PlayerFamily.WMP,
                          wmp_kbps)))
        library.add_set(clip_set)
    return library


def table1_set_library(duration_scale: float, number: int) -> ClipLibrary:
    """A library holding only Table 1 set ``number`` (one-set studies).

    Raises:
        MediaError: for a set number Table 1 does not have.
    """
    library = ClipLibrary()
    library.add_set(build_table1_library(duration_scale).get_set(number))
    return library


def table1_rows() -> List[List[object]]:
    """Table 1 rendered as rows (the Table 1 benchmark's output)."""
    rows: List[List[object]] = []
    for number, genre, duration, bands in _TABLE_1:
        minutes, seconds = divmod(int(duration), 60)
        for band in (RateBand.VERY_HIGH, RateBand.HIGH, RateBand.LOW):
            if band not in bands:
                continue
            real_kbps, wmp_kbps = bands[band]
            short = band.short
            rows.append([
                number,
                f"R-{short}/M-{short}",
                f"{real_kbps:.1f}/{wmp_kbps:.1f}",
                genre,
                f"{minutes}:{seconds:02d}",
            ])
    return rows
