"""Full study report: every artifact's findings in one document.

``python -m repro.experiments.report`` runs the full-length Table 1
sweep and prints every regenerated table/figure with its findings —
the source material for EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.errors import AnalysisError
from repro.experiments.cache import get_study
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import StudyResults


def build_report(study: StudyResults, plots: bool = False) -> str:
    """Render every artifact's rows and findings as one document.

    An artifact whose analysis cannot run on this study (clips too
    short for Fig. 10's buffering phase, say) renders as one
    ``n/a: <reason>`` row instead of aborting the whole report.
    """
    sections = []
    for figure_id in sorted(ALL_FIGURES):
        try:
            result = ALL_FIGURES[figure_id](study)
        except AnalysisError as exc:
            sections.append(f"== {figure_id} ==\nn/a: {exc}")
            continue
        sections.append(result.render(plot=plots))
    return "\n\n".join(sections)


def main(argv: Optional[list] = None, out: TextIO = sys.stdout) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    plots = "--plots" in argv
    started = time.time()
    study = get_study(seed=2002, duration_scale=1.0)
    out.write(f"# study sweep: {len(study)} pair runs "
              f"({time.time() - started:.0f}s)\n\n")
    out.write(build_report(study, plots=plots))
    out.write("\n")


if __name__ == "__main__":
    main()
