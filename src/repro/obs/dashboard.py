"""Self-contained HTML dashboard for the fleet monitor.

Renders one static HTML page — no external scripts, stylesheets or
fonts, so the file works as a CI build artifact opened from disk:

- a metadata header (workload configuration, fleet size, totals);
- a sparkline grid of the recorder's key series (inline SVG);
- the sharded stage-breakdown panel (route/scatter/worker_wait/merge
  p95 wall times, rendered only when the sharded engine ran);
- the SLO panel (compliance, error-budget burn bars, status);
- the per-sensor health heatmap table (cell color = health score);
- the alert timeline (SLO threshold crossings);
- the recent slow queries of the flight recorder (when given one),
  with their peak-RSS / traced-allocation evidence when recorded;
- the query EXPLAIN plan of a sample query.

Everything it shows comes from the telemetry layers
(:mod:`~repro.obs.timeseries`, :mod:`~repro.obs.slo`,
:mod:`~repro.obs.health`, :mod:`~repro.obs.flight`,
:mod:`~repro.obs.explain`); this module only formats.
"""

from __future__ import annotations

import html
from typing import Mapping, Optional, Sequence

from .flight import FlightRecorder
from .health import FleetHealth
from .slo import Alert, SLOStatus
from .timeseries import SeriesWindow, TimeSeriesRecorder

#: Scatter-gather stage-breakdown sparklines (one registry key per
#: stage); silently skipped when the sharded engine never ran.
STAGE_PANELS = tuple(
    (
        f"{stage} p95 (s)",
        ("repro_sharded_stage_seconds", (("stage", stage),)),
        "quantile",
        0.95,
    )
    for stage in ("route", "scatter", "worker_wait", "merge")
)

#: Streaming-ingestion sparklines (tail-vs-block layout of the
#: :class:`~repro.stream.StreamingEventStore`); silently skipped when
#: no streaming store ran.
STREAM_PANELS = (
    ("ingest/s", "repro_stream_events_total", "rate", None),
    ("compactions/s", "repro_stream_compactions_total", "rate", None),
    ("tail events", "repro_stream_tail_events", "gauge", None),
    ("block events", "repro_stream_block_events", "gauge", None),
    ("blocks", "repro_stream_blocks", "gauge", None),
)

#: Sparklines rendered when their metric exists, in display order:
#: ``(title, metric, kind, quantile-or-None)``, the arguments of one
#: :meth:`TimeSeriesRecorder.series` call.
DEFAULT_PANELS = (
    ("queries/s", "repro_queries_total", "rate", None),
    ("misses/s", "repro_query_misses_total", "rate", None),
    ("degraded/s", "repro_query_degraded_total", "rate", None),
    ("drops/s", "repro_sim_drops_total", "rate", None),
    ("retries/s", "repro_sim_retries_total", "rate", None),
    ("detours/s", "repro_sim_detours_total", "rate", None),
    ("sensors touched/s", "repro_query_sensors_accessed_total", "rate", None),
    ("p95 latency (s)", "repro_query_latency_seconds", "quantile", 0.95),
    ("p99 latency (s)", "repro_query_latency_seconds", "quantile", 0.99),
    ("p95 degradation", "repro_sim_degradation", "quantile", 0.95),
) + STREAM_PANELS + STAGE_PANELS

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 24px;
       color: #1f2430; background: #fafbfc; }
h1 { font-size: 19px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 26px 0 8px; }
.meta { color: #5b6472; margin-bottom: 14px; }
.meta td { padding: 1px 14px 1px 0; }
.grid { display: flex; flex-wrap: wrap; gap: 14px; }
.panel { background: #fff; border: 1px solid #e3e6ea; border-radius: 6px;
         padding: 8px 10px; }
.panel .title { font-size: 11px; color: #5b6472; }
.panel .value { font-size: 15px; font-weight: 600; }
table.slo, table.heat { border-collapse: collapse; background: #fff; }
table.slo td, table.slo th { border: 1px solid #e3e6ea; padding: 4px 10px;
                             text-align: left; font-size: 12px; }
.bar { background: #eef1f4; border-radius: 3px; width: 140px;
       height: 10px; display: inline-block; vertical-align: middle; }
.bar span { display: block; height: 10px; border-radius: 3px; }
.ok { color: #11734b; font-weight: 600; }
.bad { color: #b3261e; font-weight: 600; }
table.heat td { width: 26px; height: 22px; text-align: center;
                font-size: 10px; border: 1px solid #fff; color: #1f2430; }
pre { background: #fff; border: 1px solid #e3e6ea; border-radius: 6px;
      padding: 10px 12px; font-size: 12px; overflow-x: auto; }
.legend span { display: inline-block; padding: 1px 8px; margin-right: 6px;
               border-radius: 3px; font-size: 11px; }
"""


def _sparkline(
    series: SeriesWindow, width: int = 220, height: int = 44
) -> str:
    """Inline SVG polyline of one series (None values break the line)."""
    points = [
        (i, float(v))
        for i, v in enumerate(series.values)
        if v is not None and v == v  # drop None and NaN
    ]
    if not points:
        return (
            f'<svg width="{width}" height="{height}">'
            f'<text x="4" y="{height // 2}" fill="#9aa2ad" '
            f'font-size="10">no data</text></svg>'
        )
    n = max(len(series.values) - 1, 1)
    lo = min(v for _, v in points)
    hi = max(v for _, v in points)
    span = (hi - lo) or 1.0
    pad = 3

    def x(i: float) -> float:
        return pad + (width - 2 * pad) * i / n

    def y(v: float) -> float:
        return height - pad - (height - 2 * pad) * (v - lo) / span

    coords = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in points)
    last_i, last_v = points[-1]
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline points="{coords}" fill="none" stroke="#3564c4" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{x(last_i):.1f}" cy="{y(last_v):.1f}" r="2.2" '
        f'fill="#3564c4"/></svg>'
    )


def _score_color(score: float) -> str:
    """Green → amber → red by health score."""
    score = min(max(score, 0.0), 1.0)
    hue = int(score * 120)  # 0 = red, 120 = green
    return f"hsl({hue}, 72%, 72%)"


def _slo_rows(statuses: Sequence[SLOStatus]) -> str:
    rows = []
    for status in statuses:
        burn = status.burn_rate
        burn_txt = "inf" if burn == float("inf") else f"{burn:.2f}x"
        used = min(max(status.budget_used / max(status.error_budget, 1e-9),
                       0.0), 1.0)
        state = (
            '<span class="ok">OK</span>'
            if status.ok
            else '<span class="bad">VIOLATED</span>'
        )
        bar_color = "#2e9e68" if status.ok else "#cf4a3d"
        rows.append(
            "<tr>"
            f"<td>{html.escape(status.name)}</td>"
            f"<td>{html.escape(status.description)}</td>"
            f"<td>{status.objective:.1%}</td>"
            f"<td>{status.compliance:.2%}</td>"
            f"<td>{status.good:g}/{status.total:g}</td>"
            f'<td><span class="bar"><span style="width:{used:.0%};'
            f'background:{bar_color}"></span></span> '
            f"{status.budget_used:.2%} of {status.error_budget:.1%}</td>"
            f"<td>{burn_txt}</td>"
            f"<td>{state}</td>"
            "</tr>"
        )
    return "".join(rows)


def _heatmap(health: FleetHealth, columns: int = 20) -> str:
    cells = []
    for i, sensor in enumerate(health.sensors):
        title = (
            f"sensor {sensor.sensor}: {sensor.status}, "
            f"score {sensor.score:.2f}, {sensor.attempts} attempts, "
            f"{sensor.acks} acks, {sensor.drops} drops, "
            f"{sensor.retries} retries, {sensor.detours} detours"
        )
        color = (
            "#eef1f4" if sensor.status == "idle"
            else _score_color(sensor.score)
        )
        cells.append(
            f'<td style="background:{color}" title="{html.escape(title)}">'
            f"{sensor.sensor}</td>"
        )
        if (i + 1) % columns == 0:
            cells.append("</tr><tr>")
    return f"<table class='heat'><tr>{''.join(cells)}</tr></table>"


def _slow_query_rows(flight: FlightRecorder, limit: int = 10) -> str:
    def mb(nbytes: Optional[int], digits: int) -> str:
        return "-" if nbytes is None else f"{nbytes / 1e6:.{digits}f}"

    return "".join(
        "<tr>"
        f"<td>{record.seq}</td>"
        f"<td>{html.escape(digest)}</td>"
        f"<td>{html.escape(record.planner)}</td>"
        f"<td>{record.elapsed * 1e3:.3f}</td>"
        f"<td>{record.fanout}</td>"
        f"<td>{html.escape(stages or '-')}</td>"
        f"<td>{mb(record.peak_rss_bytes, 1)}</td>"
        f"<td>{mb(record.alloc_peak_bytes, 2)}</td>"
        f"<td>{html.escape(degraded or '-')}</td>"
        "</tr>"
        for record, digest, stages, degraded in flight.slow_rows(limit)
    )


def _storage_rows(storage: Mapping[str, object]) -> str:
    """Rows of the storage panel: one per store, then its components
    as bars scaled to the largest component on the page."""
    rows = []
    widest = max(
        (
            nbytes
            for report in storage.get("stores", ())
            for nbytes in report["components"].values()
        ),
        default=1,
    )
    for report in storage.get("stores", ()):
        rows.append(
            "<tr>"
            f"<td><b>{html.escape(str(report['store']))}</b></td>"
            f"<td>{report['events']}</td>"
            f"<td><b>{report['total_bytes']}</b></td><td></td></tr>"
        )
        for name, nbytes in sorted(report["components"].items()):
            width = min(max(nbytes / max(widest, 1), 0.0), 1.0)
            rows.append(
                "<tr>"
                f"<td style='padding-left:2em'>{html.escape(name)}</td>"
                f"<td></td><td>{nbytes}</td>"
                f'<td><span class="bar"><span style="width:{width:.0%};'
                'background:#4a7dcf"></span></span></td></tr>'
            )
    return "".join(rows)


def render_dashboard(
    *,
    title: str,
    meta: Mapping[str, object],
    recorder: TimeSeriesRecorder,
    statuses: Sequence[SLOStatus],
    alerts: Sequence[Alert],
    health: FleetHealth,
    explain_text: Optional[str] = None,
    flight: Optional[FlightRecorder] = None,
    storage: Optional[Mapping[str, object]] = None,
    panels: Sequence[tuple] = DEFAULT_PANELS,
) -> str:
    """The full dashboard page as one HTML string.

    ``storage`` is an optional framework
    :meth:`~repro.core.InNetworkFramework.storage_report` payload; when
    given, the page gains a per-component storage breakdown panel.
    """
    meta_rows = "".join(
        f"<tr><td>{html.escape(str(key))}</td>"
        f"<td><b>{html.escape(str(value))}</b></td></tr>"
        for key, value in meta.items()
    )

    sparkline_cards = []
    for label, metric, kind, q in panels:
        series = recorder.series(metric, kind, q)
        last = series.last
        if last is None:
            continue
        last_txt = f"{last:.4g}"
        sparkline_cards.append(
            '<div class="panel">'
            f'<div class="title">{html.escape(label)}</div>'
            f'<div class="value">{last_txt}</div>'
            f"{_sparkline(series)}</div>"
        )

    counts = health.counts
    legend = (
        '<div class="legend">'
        f'<span style="background:{_score_color(1.0)}">healthy '
        f"{counts['healthy']}</span>"
        f'<span style="background:{_score_color(0.5)}">degraded '
        f"{counts['degraded']}</span>"
        f'<span style="background:{_score_color(0.0)}">failed '
        f"{counts['failed']}</span>"
        f'<span style="background:#eef1f4">idle {counts["idle"]}</span>'
        "</div>"
    )

    if alerts:
        alert_items = "".join(
            f"<li>{html.escape(alert.format())}</li>" for alert in alerts
        )
        alerts_html = f"<ul>{alert_items}</ul>"
    else:
        alerts_html = "<p>No SLO threshold crossings.</p>"

    explain_html = (
        f"<h2>Query EXPLAIN</h2><pre>{html.escape(explain_text)}</pre>"
        if explain_text
        else ""
    )

    flight_html = ""
    if flight is not None and flight.slow_records:
        flight_html = (
            "<h2>Recent slow queries</h2>"
            f"<p>{flight.slow_total} promoted of {flight.total} recorded "
            f"(threshold {flight.slow_threshold_s * 1e3:g}ms)</p>"
            '<table class="slo">'
            "<tr><th>#</th><th>digest</th><th>planner</th>"
            "<th>elapsed (ms)</th><th>fan-out</th><th>stages</th>"
            "<th>rss (MB)</th><th>alloc (MB)</th>"
            "<th>degraded</th></tr>"
            f"{_slow_query_rows(flight)}</table>"
        )

    storage_html = ""
    if storage is not None and storage.get("stores"):
        storage_html = (
            "<h2>Storage</h2>"
            f"<p>{storage['total_bytes']} bytes across "
            f"{len(storage['stores'])} store tier(s)</p>"
            '<table class="slo">'
            "<tr><th>store / component</th><th>events</th>"
            "<th>bytes</th><th></th></tr>"
            f"{_storage_rows(storage)}</table>"
        )

    offenders = health.worst_offenders(10)
    offender_rows = "".join(
        "<tr>"
        f"<td>{s.sensor}</td><td>{s.score:.2f}</td><td>{s.status}</td>"
        f"<td>{s.attempts}</td><td>{s.acks}</td><td>{s.drops}</td>"
        f"<td>{s.retries}</td><td>{s.detours}</td>"
        "</tr>"
        for s in offenders
    )

    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head>
<body>
<h1>{html.escape(title)}</h1>
<table class="meta">{meta_rows}</table>

<h2>Fleet telemetry</h2>
<div class="grid">{''.join(sparkline_cards)}</div>

<h2>SLOs</h2>
<table class="slo">
<tr><th>SLO</th><th>definition</th><th>objective</th><th>compliance</th>
<th>good/total</th><th>error budget used</th><th>burn</th>
<th>status</th></tr>
{_slo_rows(statuses)}
</table>

<h2>Sensor health</h2>
{legend}
{_heatmap(health)}

<h2>Worst offenders</h2>
<table class="slo">
<tr><th>sensor</th><th>score</th><th>status</th><th>attempts</th>
<th>acks</th><th>drops</th><th>retries</th><th>detours</th></tr>
{offender_rows}
</table>

<h2>Alerts</h2>
{alerts_html}
{storage_html}
{flight_html}
{explain_html}
</body></html>
"""
