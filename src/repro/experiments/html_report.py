"""Standalone HTML study report.

``python -m repro study --html report.html`` renders every regenerated
table and figure into one self-contained HTML file — SVG charts, data
tables, and findings — so the whole reproduction can be reviewed in a
browser with no plotting stack installed.
"""

from __future__ import annotations

import html
from typing import List

from repro._version import __version__
from repro.analysis.svg import svg_chart
from repro.errors import AnalysisError
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.figures.base import FigureResult
from repro.experiments.runner import StudyResults

_STYLE = """
body { font-family: Georgia, serif; max-width: 900px; margin: 2em auto;
       color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em;
     border-bottom: 1px solid #ccc; }
table { border-collapse: collapse; font-family: monospace;
        font-size: 0.85em; margin: 0.8em 0; }
td, th { border: 1px solid #ddd; padding: 2px 8px; text-align: right; }
th { background: #f5f5f5; }
ul.findings { background: #f8f8ee; padding: 0.6em 2em; }
figure { margin: 1em 0; }
"""


def _table_html(result: FigureResult) -> str:
    parts = ["<table><tr>"]
    parts.extend(f"<th>{html.escape(str(h))}</th>"
                 for h in result.headers)
    parts.append("</tr>")
    for row in result.rows:
        parts.append("<tr>")
        for cell in row:
            text = f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            parts.append(f"<td>{html.escape(text)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _section_html(result: FigureResult) -> str:
    parts: List[str] = [
        f'<h2 id="{result.figure_id}">{html.escape(result.figure_id)}: '
        f"{html.escape(result.title)}</h2>"]
    if result.rows:
        parts.append(_table_html(result))
    if result.series:
        try:
            parts.append("<figure>")
            parts.append(svg_chart(result.series, title=result.title))
            parts.append("</figure>")
        except AnalysisError:
            parts.pop()
    if result.findings:
        parts.append('<ul class="findings">')
        parts.extend(f"<li>{html.escape(finding)}</li>"
                     for finding in result.findings)
        parts.append("</ul>")
    return "\n".join(parts)


def build_html_report(study: StudyResults) -> str:
    """Render every artifact of a study into one HTML document."""
    sections = []
    toc = ["<ul>"]
    for figure_id in sorted(ALL_FIGURES):
        try:
            result = ALL_FIGURES[figure_id](study)
        except AnalysisError as exc:
            # Same n/a row as the text report (build_report).
            title = f"n/a: {exc}"
            sections.append(f'<h2 id="{figure_id}">{figure_id}</h2>'
                            f"<p>{html.escape(title)}</p>")
        else:
            title = result.title
            sections.append(_section_html(result))
        toc.append(f'<li><a href="#{figure_id}">{figure_id}: '
                   f"{html.escape(title)}</a></li>")
    toc.append("</ul>")
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>Network turbulence reproduction</title>"
        f"<style>{_STYLE}</style></head><body>"
        "<h1>MediaPlayer™ vs RealPlayer™ — A Comparison of Network "
        "Turbulence (reproduction report)</h1>"
        f"<p>Generated by <code>repro {__version__}</code> from "
        f"{len(study)} simultaneous-stream pair runs. See "
        "EXPERIMENTS.md for the paper-versus-measured comparison.</p>"
        f"{''.join(toc)}"
        f"{body}"
        "</body></html>\n")
