"""Mutatee execution profiler: trace a workload, export the evidence.

Where ``tools/stats.py`` reports on the *pipeline* (what the toolkit
did), this tool reports on the *mutatee* (what the instrumented program
did): it compiles a workload, runs it under a simulator event stream,
reconstructs the call stacks, and exports any combination of

* a Chrome trace-event / Perfetto JSON timeline (``--perfetto``),
* a folded-stack flamegraph text file (``--flame``),
* heat-annotated hot-path disassembly (``--annotate``; raw counts with
  ``--heat-json``),
* a per-function summary with p50/p90/p99 per-call durations estimated
  from power-of-two histograms (always printed).

Run from a checkout::

    PYTHONPATH=src python -m repro.tools.profile --perfetto out.json \\
        --flame out.folded --annotate

or via the repository shim ``tools/profile.py``.  ``--validate``
structurally checks the Perfetto document (required keys, B/E balance,
monotonic timestamps) and fails the run on problems — the CI smoke step
uses it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .. import telemetry
from ..api import open_binary
from ..minicc import compile_source
from ..minicc.workloads import fib_source, matmul_source, qsort_source
from ..telemetry.report import percentiles
from ..tracing import format_folded, validate_perfetto
from .objdump import format_annotated

WORKLOADS = {
    "matmul": lambda args: matmul_source(args.n, args.reps),
    "fib": lambda args: fib_source(args.n),
    "qsort": lambda args: qsort_source(max(args.n, 8)),
}


def _per_call_hists(spans) -> dict[str, dict]:
    """Per-function pow2 histograms of per-call weight (snapshot-shaped,
    so :func:`repro.telemetry.report.percentiles` reads them)."""
    hists: dict[str, dict] = {}
    for sp in spans:
        v = sp.ucycles
        h = hists.get(sp.name)
        if h is None:
            hists[sp.name] = {"count": 1, "sum": v, "min": v, "max": v,
                              "buckets": {max(0, int(v).bit_length()): 1}}
        else:
            h["count"] += 1
            h["sum"] += v
            h["min"] = min(h["min"], v)
            h["max"] = max(h["max"], v)
            b = max(0, int(v).bit_length())
            h["buckets"][b] = h["buckets"].get(b, 0) + 1
    return hists


def format_summary(session, top: int = 10) -> str:
    """Per-function self-weight and per-call percentile table."""
    spans = session.spans
    stream = session.stream
    lines = [
        f"events: {len(stream)} retained"
        + (f" ({stream.dropped} dropped)" if stream.dropped else "")
        + f", {len(spans)} call spans",
    ]
    hot = session.hot_functions()
    total = sum(w for _, w in hot) or 1
    hists = _per_call_hists(spans)
    lines.append(f"{'self%':>7} {'self ucycles':>14} {'calls':>7}  "
                 f"{'p50':>10} {'p90':>10} {'p99':>10}  function")
    for name, weight in hot[:top]:
        h = hists.get(name)
        if h:
            pct = percentiles(h)
            p50, p90, p99 = (f"{pct['p50']:.0f}", f"{pct['p90']:.0f}",
                             f"{pct['p99']:.0f}")
            calls = h["count"]
        else:
            p50 = p90 = p99 = "-"
            calls = 0
        lines.append(
            f"{100 * weight / total:>6.1f}% {weight:>14,} {calls:>7}  "
            f"{p50:>10} {p90:>10} {p99:>10}  {name}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="profile", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    default="matmul")
    ap.add_argument("--n", type=int, default=12,
                    help="workload size (matrix dim / fib n)")
    ap.add_argument("--reps", type=int, default=3,
                    help="workload repetitions (matmul)")
    ap.add_argument("--granularity", choices=("instruction", "block"),
                    default="instruction",
                    help="event granularity; 'block' keeps the trace "
                         "JIT engaged and emits the block entries "
                         "'instruction' does, but no call/return "
                         "events (heat only — see docs/INTERNALS.md)")
    ap.add_argument("--weight", choices=("ucycles", "instructions"),
                    default="ucycles", help="flamegraph weight unit")
    ap.add_argument("--perfetto", metavar="FILE",
                    help="write Chrome trace-event / Perfetto JSON")
    ap.add_argument("--flame", metavar="FILE",
                    help="write folded stacks (flamegraph.pl format)")
    ap.add_argument("--annotate", action="store_true",
                    help="print heat-annotated hot-path disassembly")
    ap.add_argument("--heat-json", metavar="FILE",
                    help="write per-block heat counts as JSON")
    ap.add_argument("--validate", action="store_true",
                    help="structurally validate the Perfetto document "
                         "and the event stream; non-zero exit on "
                         "problems")
    ap.add_argument("--top", type=int, default=10,
                    help="functions shown in the summary")
    args = ap.parse_args(argv)

    program = compile_source(WORKLOADS[args.workload](args))
    # timeline-enabled recorder: the Perfetto export gains the pipeline
    # track (parse/liveness/patch spans) next to the mutatee track
    with telemetry.enabled(telemetry.Recorder(timeline=True)):
        with open_binary(program) as edit:
            session = edit.trace(granularity=args.granularity)

    print(f"workload: {args.workload} (n={args.n}, reps={args.reps}) "
          f"exit={session.stop.exit_code}")
    print(format_summary(session, top=args.top))

    problems: list[str] = []
    doc = None
    if args.perfetto or args.validate:
        doc = session.perfetto()
    if args.perfetto:
        with open(args.perfetto, "w") as f:
            json.dump(doc, f)
        print(f"wrote {args.perfetto} "
              f"({len(doc['traceEvents'])} trace events)")
    if args.flame:
        folded = session.folded(weight=args.weight)
        with open(args.flame, "w") as f:
            f.write(format_folded(folded))
        print(f"wrote {args.flame} ({len(folded)} stacks)")
    if args.heat_json:
        with open(args.heat_json, "w") as f:
            json.dump({hex(pc): n for pc, n in
                       sorted(session.heat().items())}, f, indent=0)
        print(f"wrote {args.heat_json}")
    if args.annotate:
        print(format_annotated(edit.symtab, session.heat()))
    if args.validate:
        problems = validate_perfetto(doc)
        ts = [e[3] for e in session.events]
        if any(a > b for a, b in zip(ts, ts[1:])):
            problems.append("event instret timestamps not monotonic")
        if problems:
            for p in problems:
                print(f"VALIDATION: {p}", file=sys.stderr)
            return 1
        print(f"validation OK ({len(doc['traceEvents'])} trace events, "
              f"{len(session.events)} stream events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
