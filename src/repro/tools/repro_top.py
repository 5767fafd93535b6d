"""``top`` for the session service.

A refresh-loop console over ``ServiceClient.metrics()``: per-op
p50/p90/p99 latency out of the fleet-merged ``service.op.<op>.us``
histograms, requests/sec from counter deltas between refreshes, cache
hit rates, per-worker session load, and the slow-request ring tail::

    python tools/repro_top.py --socket /tmp/repro.sock [--interval 2]
    python tools/repro_top.py --socket /tmp/repro.sock --once
    python tools/repro_top.py --socket /tmp/repro.sock --once --json

The server must have its observability plane armed (``--metrics-dir``
/ ``REPRO_SERVICE_METRICS``) for fleet-wide numbers; without it the
console shows the accepting worker only.  ``--once`` prints a single
frame (what CI scrapes); ``--json`` dumps the raw ``metrics`` response
instead of rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..service import ServiceClient
from ..telemetry.report import percentiles

#: histogram-name shape produced by the request tracer
_OP_HIST_PREFIX = "service.op."
_OP_HIST_SUFFIX = ".us"


def _op_rows(merged: dict, prev_counters: dict | None,
             dt: float | None) -> list[tuple]:
    """(op, count, req/s, p50, p90, p99) per op, busiest first."""
    counters = merged.get("counters", {})
    hists = merged.get("histograms", {})
    rows = []
    for name, hist in sorted(hists.items()):
        if not (name.startswith(_OP_HIST_PREFIX)
                and name.endswith(_OP_HIST_SUFFIX)):
            continue
        op = name[len(_OP_HIST_PREFIX):-len(_OP_HIST_SUFFIX)]
        count = counters.get(f"service.op.{op}", hist.get("count", 0))
        rate = None
        if prev_counters is not None and dt and dt > 0:
            rate = (count - prev_counters.get(f"service.op.{op}", 0)) / dt
        pct = percentiles(hist)
        rows.append((op, count, rate,
                     pct["p50"], pct["p90"], pct["p99"]))
    rows.sort(key=lambda r: r[1], reverse=True)
    return rows


def _hit_rate(hits: int, misses: int) -> str:
    total = hits + misses
    return f"{100.0 * hits / total:.1f}%" if total else "n/a"


def render(resp: dict, prev: dict | None = None,
           dt: float | None = None) -> str:
    """One console frame from a ``metrics`` op response."""
    merged = resp.get("merged", {})
    counters = merged.get("counters", {})
    gauges = merged.get("gauges", {})
    workers = resp.get("workers", [])
    prev_counters = (prev or {}).get("merged", {}).get("counters") \
        if prev else None

    out: list[str] = []
    live = sum(w.get("sessions", 0) for w in workers)
    requests = counters.get("service.requests", 0)
    errors = counters.get("service.errors", 0)
    total_rate = ""
    if prev_counters is not None and dt and dt > 0:
        total_rate = (f"  {((requests - prev_counters.get('service.requests', 0)) / dt):6.1f} req/s")
    out.append(
        f"repro_top — {len(workers)} worker(s), {live} live "
        f"session(s), {requests:,} requests ({errors} errors)"
        f"{total_rate}")
    out.append("")

    rows = _op_rows(merged, prev_counters, dt)
    if rows:
        out.append(f"{'op':<12}{'count':>10}{'req/s':>9}"
                   f"{'p50(us)':>11}{'p90(us)':>11}{'p99(us)':>11}")
        for op, count, rate, p50, p90, p99 in rows:
            rate_s = f"{rate:9.1f}" if rate is not None else f"{'—':>9}"
            out.append(f"{op:<12}{count:>10,}{rate_s}"
                       f"{p50:>11.1f}{p90:>11.1f}{p99:>11.1f}")
    else:
        out.append("no per-op latency histograms yet "
                   "(is the server's metrics plane armed?)")
    out.append("")

    art_hits = counters.get("artifacts.hits", 0)
    art_miss = counters.get("artifacts.misses", 0)
    out.append(
        "caches: artifacts "
        f"{art_hits} hits / {art_miss} misses / "
        f"{counters.get('artifacts.stale', 0)} stale "
        f"({_hit_rate(art_hits, art_miss)} hit)   "
        f"analyses materialized: {counters.get('service.analyses', 0)}")
    if "service.sessions.live" in gauges:
        out.append(f"fleet gauge service.sessions.live = "
                   f"{gauges['service.sessions.live']:.0f}   flushes: "
                   f"{counters.get('service.flushes', 0)}")
    out.append("")

    if workers:
        out.append(f"{'worker':<8}{'pid':>8}{'sessions':>10}"
                   f"{'requests':>10}{'age(s)':>8}")
        now = time.time()
        for w in workers:
            snap_counters = w.get("snapshot", {}).get("counters", {})
            age = now - w["ts"] if w.get("ts") else 0.0
            out.append(
                f"w{w.get('worker', '?'):<7}{w.get('pid', 0):>8}"
                f"{w.get('sessions', 0):>10}"
                f"{snap_counters.get('service.requests', 0):>10,}"
                f"{age:>8.1f}")
        out.append("")

    slow = resp.get("slow", [])
    if slow:
        out.append("slowest requests:")
        for entry in slow[:8]:
            delta = entry.get("counters_delta") or {}
            hot = ", ".join(f"{k}+{v}" for k, v in sorted(
                delta.items(),
                key=lambda kv: abs(kv[1]), reverse=True)[:3])
            trace = entry.get("trace")
            out.append(
                f"  {entry.get('rid', '?'):<10} "
                f"{entry.get('op', '?'):<10}"
                f"{entry.get('duration_us', 0):>12,.0f} us"
                + (f"  trace={trace}" if trace else "")
                + (f"  err={entry['error']}" if entry.get("error")
                   else "")
                + (f"  [{hot}]" if hot else ""))
        out.append("")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="live operator console over the session "
                    "service's metrics op")
    ap.add_argument("--socket", required=True,
                    help="the server's AF_UNIX socket path")
    ap.add_argument("--interval", type=float, default=2.0,
                    help="refresh period in seconds")
    ap.add_argument("--once", action="store_true",
                    help="print one frame and exit (CI mode)")
    ap.add_argument("--json", action="store_true",
                    help="dump the raw metrics response as JSON")
    ap.add_argument("--trace", default="repro_top",
                    help="trace context attached to the console's "
                         "own requests")
    args = ap.parse_args(argv)

    with ServiceClient(args.socket, trace=args.trace) as client:
        prev, prev_t = None, None
        while True:
            resp = client.metrics()
            now = time.perf_counter()
            if args.json:
                print(json.dumps(resp, indent=2))
            else:
                dt = (now - prev_t) if prev_t is not None else None
                frame = render(resp, prev, dt)
                if not args.once:
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear screen
                print(frame, flush=True)
            if args.once:
                return 0
            prev, prev_t = resp, now
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


if __name__ == "__main__":
    sys.exit(main())
