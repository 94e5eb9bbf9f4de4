"""Read-only web dashboard over the run registry.

``repro dashboard --runs-dir runs`` serves a browser UI + JSON API for
navigating recorded runs.  It is strictly read-only: no endpoint mutates
a run directory.

==============================================  ==============================
``GET /``                                       embedded no-dependency HTML/JS
                                                run browser (list, detail,
                                                diff, Pareto, live tail)
``GET /healthz``                                liveness + run-directory
                                                count
``GET /metrics``                                Prometheus text exposition
``GET /api/runs``                               filtered/sorted summaries
                                                (``command, status, dataset,
                                                seed, sort, desc, limit``;
                                                ``limit`` >= 1)
``GET /api/runs/<ref>``                         one run: manifest, trajectory,
                                                alerts (``ref`` = id, unique
                                                prefix, or ``latest``)
``GET /api/runs/<ref>/events?offset=N``         live tail of the merged
                                                timeline (in-flight worker
                                                shards included)
``GET /api/runs/<ref>/trace``                   Chrome trace-event JSON of a
                                                traced run (open in Perfetto /
                                                ``chrome://tracing``)
``GET /api/runs/<ref>/kernels``                 per-kernel replay attribution
                                                (``kernels.json`` + hot table)
``GET /api/compare?a=<ref>&b=<ref>``            config diff + both summaries
                                                and trajectories
``GET /api/pareto``                             accuracy-vs-power front
==============================================  ==============================

Every request reads the registry afresh through
:func:`~repro.observability.runs.load_summaries` (one ``manifest.json``
per run; events only for runs in flight) or
:func:`~repro.observability.runs.resolve_run`, so a run recorded after
start-up shows on the next request.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.observability.metrics import get_registry
from repro.observability.runs import (
    _config_diff,
    _trajectory,
    accuracy_power_front,
    list_runs,
    load_manifest_safe,
    load_run_kernels,
    load_run_trace,
    load_summaries,
    read_run_events,
    resolve_run,
    summarize_run,
    summary_to_dict,
    tail_run_events,
)
from repro.observability.tracing import chrome_trace, hot_kernels
from repro.serving.httpbase import AppServer, JsonHandler

logger = logging.getLogger(__name__)

_REQUESTS = get_registry().counter("dashboard_requests_total", "dashboard HTTP requests handled")
_ERRORS = get_registry().counter(
    "dashboard_request_errors", "dashboard HTTP requests answered with 4xx/5xx"
)
_LATENCY = get_registry().histogram(
    "dashboard_request_latency_s", "dashboard request wall time (seconds)"
)


class _BadRequest(ValueError):
    """A request whose parameter is malformed or out of range (HTTP 400)."""


def _first(query: dict, key: str, default: str | None = None) -> str | None:
    values = query.get(key)
    return values[0] if values else default


def _int_or_none(value: str | None, name: str) -> int | None:
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise _BadRequest(f"{name} must be an integer, got {value!r}") from None


def _run_detail(run_dir: Path) -> dict:
    """Everything the detail pane shows, straight from the run directory."""
    events = read_run_events(run_dir)
    summary = summarize_run(run_dir, events=events)
    trajectory = [
        {
            "epoch": e.get("epoch"),
            "phase": e.get("phase"),
            "loss": e.get("loss"),
            "val_accuracy": e.get("val_accuracy"),
            "power_w": e.get("power_w"),
            "multiplier": e.get("multiplier"),
            "feasible": e.get("feasible"),
        }
        for e in _trajectory(events)
    ]
    alerts = [
        {
            "kind": e.get("kind"),
            "epoch": e.get("epoch"),
            "phase": e.get("phase"),
            "message": e.get("message"),
        }
        for e in events
        if e.get("type") == "alert"
    ]
    fleet = [
        {
            "chunk_index": e.get("chunk_index"),
            "instances": e.get("instances"),
            "epoch": e.get("epoch"),
            "duration_s": e.get("duration_s"),
        }
        for e in events
        if e.get("type") == "fleet"
    ]
    manifest = load_manifest_safe(run_dir)
    return {
        "summary": summary_to_dict(summary),
        "manifest": {
            k: manifest.get(k)
            for k in ("run_id", "command", "argv", "git_sha", "created", "status",
                      "exit_code", "duration_s", "seed", "worker_events_merged")
        },
        "trajectory": trajectory,
        "alerts": alerts,
        "fleet": fleet,
        "n_events": len(events),
    }


class _Handler(JsonHandler):
    @property
    def _ctx(self) -> "DashboardServer":
        return self.app  # type: ignore[return-value]

    def do_GET(self) -> None:
        started = time.monotonic()
        split = urlsplit(self.path)
        path = unquote(split.path).rstrip("/") or "/"
        query = parse_qs(split.query)
        try:
            self._route(path, query, started)
        except _BadRequest as exc:
            self._respond(400, {"error": str(exc)}, path, started)
        except ValueError as exc:  # unresolvable run ref, missing compare ref
            self._respond(404, {"error": str(exc)}, path, started)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            logger.exception("dashboard request %s failed", self.path)
            self._respond(500, {"error": f"internal error: {exc}"}, path, started)

    # ------------------------------------------------------------------
    def _route(self, path: str, query: dict, started: float) -> None:
        ctx = self._ctx
        if path == "/":
            self._respond_text(200, _PAGE, "index", started, content_type="text/html; charset=utf-8")
        elif path == "/healthz":
            self._respond(
                200,
                {
                    "status": "ok",
                    "uptime_s": round(time.monotonic() - ctx.started_at, 3),
                    "runs": len(list_runs(ctx.base_dir)),
                    "runs_dir": str(ctx.base_dir),
                },
                "healthz",
                started,
            )
        elif path == "/metrics":
            self._respond_text(200, get_registry().render_prometheus(), "metrics", started)
        elif path == "/api/runs":
            limit = _int_or_none(_first(query, "limit"), "limit")
            if limit is not None and limit < 1:
                raise _BadRequest(f"limit must be >= 1, got {limit}")
            summaries = load_summaries(
                ctx.base_dir,
                command=_first(query, "command"),
                status=_first(query, "status"),
                dataset=_first(query, "dataset"),
                seed=_int_or_none(_first(query, "seed"), "seed"),
                sort=_first(query, "sort", "created"),
                descending=_first(query, "desc") in ("1", "true", "yes"),
                limit=limit,
            )
            self._respond(
                200,
                {"runs": [summary_to_dict(s) for s in summaries], "count": len(summaries)},
                "runs",
                started,
            )
        elif path == "/api/pareto":
            summaries = load_summaries(ctx.base_dir)
            front = accuracy_power_front(summaries)
            front_ids = {s.run_id for s in front}
            self._respond(
                200,
                {
                    "front": [summary_to_dict(s) for s in front],
                    "dominated": [
                        summary_to_dict(s)
                        for s in summaries
                        if s.run_id not in front_ids
                        and s.final_accuracy is not None
                        and s.final_power_w is not None
                    ],
                },
                "pareto",
                started,
            )
        elif path == "/api/compare":
            ref_a, ref_b = _first(query, "a"), _first(query, "b")
            if not ref_a or not ref_b:
                raise _BadRequest("compare needs both ?a=<ref> and ?b=<ref>")
            detail_a = _run_detail(resolve_run(ref_a, ctx.base_dir))
            detail_b = _run_detail(resolve_run(ref_b, ctx.base_dir))
            self._respond(
                200,
                {
                    "a": detail_a,
                    "b": detail_b,
                    "config_diff": [
                        line.strip()
                        for line in _config_diff(
                            detail_a["summary"]["config"], detail_b["summary"]["config"]
                        )
                    ],
                },
                "compare",
                started,
            )
        elif path.startswith("/api/runs/") and path.endswith("/trace"):
            ref = path[len("/api/runs/"):-len("/trace")]
            run_dir = resolve_run(ref, ctx.base_dir)
            records = load_run_trace(run_dir)
            if not records:
                self._respond(
                    404,
                    {"error": f"run {run_dir.name} has no trace data (record with --trace)"},
                    "trace", started,
                )
                return
            payload = chrome_trace(records)
            payload["run_id"] = run_dir.name
            self._respond(200, payload, "trace", started)
        elif path.startswith("/api/runs/") and path.endswith("/kernels"):
            ref = path[len("/api/runs/"):-len("/kernels")]
            run_dir = resolve_run(ref, ctx.base_dir)
            top = _int_or_none(_first(query, "top"), "top") or 15
            kernels = load_run_kernels(run_dir)
            if kernels is None:
                self._respond(
                    404,
                    {"error": f"run {run_dir.name} has no kernel data (record with --trace)"},
                    "kernels", started,
                )
                return
            self._respond(
                200,
                {"run_id": run_dir.name, "kernels": kernels,
                 "hot": hot_kernels(kernels, top=top)},
                "kernels", started,
            )
        elif path.startswith("/api/runs/") and path.endswith("/events"):
            ref = path[len("/api/runs/"):-len("/events")]
            run_dir = resolve_run(ref, ctx.base_dir)
            events, new_offset = tail_run_events(
                run_dir, offset=_int_or_none(_first(query, "offset"), "offset") or 0
            )
            self._respond(
                200,
                {
                    "run_id": run_dir.name,
                    "events": events,
                    "offset": new_offset,
                    "status": load_manifest_safe(run_dir).get("status", "unknown"),
                },
                "events",
                started,
            )
        elif path.startswith("/api/runs/"):
            ref = path[len("/api/runs/"):]
            if "/" in ref:
                raise ValueError(f"unknown path {path}")
            self._respond(200, _run_detail(resolve_run(ref, ctx.base_dir)), "run", started)
        else:
            self._respond(404, {"error": f"unknown path {path}"}, "unknown", started)


class DashboardServer(AppServer):
    """Threaded read-only HTTP server over one run registry directory.

    Parameters
    ----------
    base_dir:
        The run registry root (``runs/``).
    max_requests:
        Optional self-shutdown after N requests (smoke tests).
    """

    handler_class = _Handler
    thread_name = "dashboard-http"

    def __init__(
        self,
        base_dir: str | Path = "runs",
        host: str = "127.0.0.1",
        port: int = 8764,
        max_requests: int | None = None,
    ):
        self.base_dir = Path(base_dir)
        super().__init__(host=host, port=port, max_requests=max_requests)

    def _account(self, endpoint: str, status: int, duration: float, rows: int, error) -> None:
        _REQUESTS.inc()
        _LATENCY.observe(duration)
        if status >= 400:
            _ERRORS.inc()


def render_dashboard_page() -> str:
    """The embedded single-page UI (exposed for tests/docs)."""
    return _PAGE


_PAGE = r"""<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro run dashboard</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 1.5rem; color: #1a1a1a; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin: 1rem 0 .4rem; }
  table { border-collapse: collapse; margin-top: .5rem; }
  th, td { padding: .2rem .6rem; border-bottom: 1px solid #ddd; text-align: left;
           font-variant-numeric: tabular-nums; }
  th { border-bottom: 2px solid #888; }
  tr.run { cursor: pointer; } tr.run:hover { background: #f2f6ff; }
  .pill { padding: 0 .45em; border-radius: .7em; font-size: .85em; color: #fff; }
  .completed { background: #2e7d32; } .failed { background: #c62828; }
  .running { background: #1565c0; } .unknown { background: #757575; }
  nav button { margin-right: .4rem; }
  #detail, #compare, #pareto { display: none; }
  pre { background: #f6f6f6; padding: .6rem; overflow-x: auto; }
  .muted { color: #777; } input { width: 22rem; }
  .tl { position: relative; height: 16px; border-bottom: 1px solid #eee; }
  .tl b { position: absolute; top: 3px; height: 10px; background: #4c7bd9;
          border-radius: 2px; opacity: .75; }
  .tl i { position: absolute; left: .2rem; top: 0; font-size: .75em;
          color: #444; font-style: normal; white-space: nowrap; }
</style>
</head>
<body>
<h1>repro run dashboard</h1>
<nav>
  <button onclick="showList()">runs</button>
  <button onclick="show('pareto'); loadPareto()">pareto</button>
  <label>compare: <input id="cmp" placeholder="refA refB"
    onkeydown="if(event.key==='Enter')loadCompare()"></label>
</nav>
<div id="list"><table id="runs"><thead><tr>
  <th>run_id</th><th>command</th><th>status</th><th>epochs</th>
  <th>val_acc</th><th>power_mW</th><th>alerts</th><th>created</th>
</tr></thead><tbody></tbody></table></div>
<div id="detail"></div>
<div id="compare"></div>
<div id="pareto"></div>
<script>
"use strict";
let tailTimer = null;
const $ = id => document.getElementById(id);
const esc = s => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = (v, d) => (v === null || v === undefined) ? "-" : Number(v).toFixed(d);
const mw = v => (v === null || v === undefined) ? "-" : (v * 1e3).toFixed(4);
const pill = s => `<span class="pill ${esc(s)}">${esc(s)}</span>`;
function show(pane) {
  clearInterval(tailTimer);
  for (const p of ["list", "detail", "compare", "pareto"])
    $(p).style.display = p === pane ? "block" : "none";
}
function showList() { show("list"); loadRuns(); }
async function api(path) {
  const res = await fetch(path);
  const body = await res.json();
  if (!res.ok) throw new Error(body.error || res.statusText);
  return body;
}
async function loadRuns() {
  const data = await api("/api/runs");
  $("runs").querySelector("tbody").innerHTML = data.runs.map(r => `
    <tr class="run" onclick="loadDetail('${esc(r.run_id)}')">
      <td>${esc(r.run_id)}</td><td>${esc(r.command)}</td><td>${pill(r.status)}</td>
      <td>${r.n_epochs}</td><td>${fmt(r.final.val_accuracy, 3)}</td>
      <td>${mw(r.final.power_w)}</td><td>${r.n_alerts}</td>
      <td class="muted">${esc(r.created || "")}</td></tr>`).join("");
}
function fleetTable(rows) {
  if (!rows.length) return "";
  const total = rows.reduce((n, e) => n + (e.instances || 0), 0);
  return `<h2>fleet chunks (${rows.length} — ${total} instances)</h2>
    <table><thead><tr><th>chunk</th><th>instances</th><th>epochs</th>
    <th>duration_s</th><th>inst/s</th></tr></thead><tbody>` +
    rows.map(e => `<tr><td>${e.chunk_index ?? "-"}</td><td>${e.instances}</td>
      <td>${e.epoch}</td><td>${fmt(e.duration_s, 2)}</td>
      <td>${e.duration_s > 0 ? fmt(e.instances / e.duration_s, 1) : "-"}</td></tr>`).join("") +
    "</tbody></table>";
}
function trajTable(rows) {
  if (!rows.length) return "<p class='muted'>(no epoch events)</p>";
  return `<table><thead><tr><th>epoch</th><th>loss</th><th>val_acc</th>
    <th>power_mW</th><th>λ</th><th>feasible</th></tr></thead><tbody>` +
    rows.map(e => `<tr><td>${e.epoch}</td><td>${fmt(e.loss, 4)}</td>
      <td>${fmt(e.val_accuracy, 3)}</td><td>${mw(e.power_w)}</td>
      <td>${fmt(e.multiplier, 4)}</td><td>${e.feasible}</td></tr>`).join("") +
    "</tbody></table>";
}
async function loadDetail(ref) {
  const d = await api("/api/runs/" + encodeURIComponent(ref));
  const s = d.summary;
  $("detail").innerHTML = `
    <h2>${esc(s.run_id)} ${pill(s.status)}</h2>
    <p>command <b>${esc(s.command)}</b> · dataset ${esc(s.dataset ?? "-")} ·
       seed ${esc(s.seed ?? "-")} · ${s.n_epochs} epochs ·
       ${d.n_events} events · config ${esc(s.config_fingerprint.slice(0, 12))}</p>
    <h2>trajectory</h2>${trajTable(d.trajectory)}
    ${fleetTable(d.fleet || [])}
    <h2>alerts (${d.alerts.length})</h2>
    ${d.alerts.length ? "<ul>" + d.alerts.map(a =>
        `<li><b>${esc(a.kind)}</b> @ epoch ${a.epoch}: ${esc(a.message)}</li>`
      ).join("") + "</ul>" : "<p class='muted'>(none)</p>"}
    <h2>hot kernels</h2><div id="kernels" class="muted">loading…</div>
    <h2>trace timeline</h2><div id="timeline" class="muted">loading…</div>
    <h2>live tail</h2><pre id="tail"></pre>`;
  show("detail");
  loadTrace(ref);
  let offset = 0;
  const tail = async () => {
    const t = await api(`/api/runs/${encodeURIComponent(ref)}/events?offset=${offset}`);
    offset = t.offset;
    if (t.events.length)
      $("tail").textContent += t.events.map(e => JSON.stringify(e)).join("\n") + "\n";
    if (t.status !== "running") clearInterval(tailTimer);
  };
  await tail();
  tailTimer = setInterval(tail, 2000);
}
async function loadTrace(ref) {
  const enc = encodeURIComponent(ref);
  try {
    const k = await api(`/api/runs/${enc}/kernels`);
    $("kernels").className = "";
    $("kernels").innerHTML = `<table><thead><tr><th>#</th><th>kernel</th>
      <th>label</th><th>idx</th><th>total_ms</th><th>per-replay_µs</th><th>share</th>
      </tr></thead><tbody>` + k.hot.map((r, i) => `<tr><td>${i + 1}</td>
        <td>${esc(r.name)}</td><td>${esc(r.label)}</td><td>${r.index}</td>
        <td>${(r.total_s * 1e3).toFixed(3)}</td>
        <td>${(r.per_replay_s * 1e6).toFixed(1)}</td>
        <td>${(r.share * 100).toFixed(1)}%</td></tr>`).join("") + "</tbody></table>";
  } catch (e) { $("kernels").textContent = `(no kernel data — ${e.message})`; }
  try {
    const t = await api(`/api/runs/${enc}/trace`);
    const evs = t.traceEvents;
    const span = Math.max(1, ...evs.map(e => e.ts + e.dur));
    $("timeline").className = "";
    $("timeline").innerHTML =
      `<p><a href="/api/runs/${enc}/trace" download="${esc(ref)}-trace.json">
         download Chrome trace JSON</a> (${evs.length} events — open in Perfetto
         or chrome://tracing)</p>` +
      evs.slice(0, 400).map(e => `<div class="tl"
        title="${esc(e.name)} ${(e.dur / 1e3).toFixed(3)}ms @ ${(e.ts / 1e3).toFixed(3)}ms">
        <b style="left:${(e.ts / span * 100).toFixed(3)}%;
                  width:${Math.max(e.dur / span * 100, 0.15).toFixed(3)}%"></b>
        <i>${esc(e.name)} ${(e.dur / 1e3).toFixed(2)}ms</i></div>`).join("") +
      (evs.length > 400 ? `<p class="muted">(first 400 of ${evs.length} events)</p>` : "");
  } catch (e) { $("timeline").textContent = `(no trace — ${e.message})`; }
}
async function loadCompare() {
  const [a, b] = $("cmp").value.trim().split(/\s+/);
  if (!a || !b) return;
  const d = await api(`/api/compare?a=${encodeURIComponent(a)}&b=${encodeURIComponent(b)}`);
  $("compare").innerHTML = `
    <h2>${esc(d.a.summary.run_id)} vs ${esc(d.b.summary.run_id)}</h2>
    <h2>config diff</h2>
    <pre>${d.config_diff.length ? esc(d.config_diff.join("\n")) : "(identical)"}</pre>
    <h2>${esc(d.a.summary.run_id)}</h2>${trajTable(d.a.trajectory)}
    <h2>${esc(d.b.summary.run_id)}</h2>${trajTable(d.b.trajectory)}`;
  show("compare");
}
async function loadPareto() {
  const d = await api("/api/pareto");
  const row = (r, cls) => `<tr class="${cls}"><td>${esc(r.run_id)}</td>
    <td>${fmt(r.final.val_accuracy, 3)}</td><td>${mw(r.final.power_w)}</td>
    <td>${esc(r.command)}</td></tr>`;
  $("pareto").innerHTML = `
    <h2>accuracy / power front — ${d.front.length} non-dominated of
        ${d.front.length + d.dominated.length}</h2>
    <table><thead><tr><th>run_id</th><th>val_acc</th><th>power_mW</th>
    <th>command</th></tr></thead><tbody>
    ${d.front.map(r => row(r, "run")).join("")}
    ${d.dominated.map(r => row(r, "muted")).join("")}</tbody></table>`;
}
showList();
</script>
</body>
</html>
"""
