"""Performance regression guard over the benchmark snapshots.

Reads ``BENCH_sim.json`` (written by
``benchmarks/test_sim_throughput.py``) and ``BENCH_service.json``
(written by ``benchmarks/test_service_bench.py``) and fails when
either mechanism has regressed below the floors::

    python tools/bench_guard.py [--json BENCH_sim.json] [--floor 3.0]
        [--service-json BENCH_service.json] [--warm-floor 3.0]

Simulator checks, in order:

* the headline ``speedup`` (the trace JIT over the closure
  interpreter) is at or above ``--floor``;
* the JIT runs the instrumented matmul (a counter at every block of
  ``multiply``) at least :data:`INSTRUMENTED_FLOOR` times as fast as
  the plain one (``instrumented_over_plain``; both rows run in one
  process, taking turns, so host speed cancels out of the ratio);
* on that instrumented matmul, the closure interpreter runs at most
  :data:`INTERPRETED_CEILING` of the instructions (``instret``): the
  traces cover the loops and the hops between them.  The share is a
  deterministic count, not a timing;
* a run with a block-granularity observer attached is no slower than
  the closure interpreter (``block_over_interpreter``, the median of
  per-round ratios of runs made back to back).

Artifact-store / service checks:

* a warm ``analyze()`` (artifact-store revival) is at or above
  ``--warm-floor`` times faster than a cold one on the matmul fixture;
* the warm open recomputed nothing: exactly one ``artifacts.hits``
  counter and **no** ``parse.*`` / ``liveness.*`` telemetry;
* the session service actually served its concurrent clients
  (``clients >= 8``, ``sessions_per_sec > 0``).

It also prints, unchecked, the medians of warm opens and of cold
``analyze(store=False)`` calls and their ratio.

The JIT's CI floor sits below the benchmark's own acceptance bar
(4.5x) on purpose: shared runners are noisy, and the guard exists to
catch regressions of the *mechanism* — a JIT that stops covering the
hot code, a warm open that silently re-parses — not to re-litigate the
exact multiplier measured on a quiet host.  Exit status
0 when every check passes, 1 otherwise (2 when a snapshot is
missing/unreadable).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: default CI floor (see module docstring for why it is below the
#: benchmark's local acceptance bar)
MEGATRACE_FLOOR = 3.0

#: instrumented over plain traced throughput: instrumentation must not
#: take the JIT's forwarding of stack slots away
INSTRUMENTED_FLOOR = 0.9

#: most of the instrumented matmul's instructions the closure
#: interpreter may run
INTERPRETED_CEILING = 0.005

#: warm analyze() must beat cold by this much (ISSUE 7 acceptance bar;
#: the revive path does no parsing, so this holds even on noisy hosts)
WARM_ANALYZE_FLOOR = 3.0

#: the service benchmark must exercise at least this many clients
MIN_CLIENTS = 8


def _number(value) -> bool:
    return isinstance(value, (int, float))


def check(bench: dict, floor: float = MEGATRACE_FLOOR) -> list[str]:
    """Return the list of violated checks (empty = all green)."""
    bad: list[str] = []
    speedup = bench.get("speedup")
    if not _number(speedup):
        return [f"no usable 'speedup' key in snapshot: {speedup!r}"]
    if speedup < floor:
        bad.append(f"traced speedup {speedup:.2f}x below the "
                   f"{floor:.2f}x floor")
    ratio = bench.get("instrumented_over_plain")
    if not _number(ratio):
        bad.append("no usable 'instrumented_over_plain' key in "
                   f"snapshot: {ratio!r}")
    elif ratio < INSTRUMENTED_FLOOR:
        bad.append(f"traces run instrumented code at {ratio:.2f}x "
                   f"the plain throughput, below the "
                   f"{INSTRUMENTED_FLOOR:.2f}x floor")
    share = bench.get("instrumented", {}).get("megatrace", {}).get(
        "interpreted_share")
    if not _number(share):
        bad.append("no usable 'instrumented.megatrace.interpreted_share'"
                   f" key in snapshot: {share!r}")
    elif share > INTERPRETED_CEILING:
        bad.append(f"the interpreter runs {share:.2%} of the "
                   f"instrumented matmul, above the "
                   f"{INTERPRETED_CEILING:.2%} ceiling")
    observed = bench.get("block_over_interpreter")
    if not _number(observed):
        bad.append("no usable 'block_over_interpreter' key in "
                   f"snapshot: {observed!r}")
    elif observed < 1:
        bad.append(f"block-observed runs at {observed:.2f}x the "
                   f"interpreter's throughput, below it")
    return bad


def check_service(bench: dict,
                  warm_floor: float = WARM_ANALYZE_FLOOR) -> list[str]:
    """Violated checks for the BENCH_service.json snapshot."""
    bad: list[str] = []
    speedup = bench.get("warm_speedup")
    if not isinstance(speedup, (int, float)):
        return [f"no usable 'warm_speedup' key in snapshot: {speedup!r}"]
    if speedup < warm_floor:
        bad.append(f"warm analyze() only {speedup:.2f}x faster than "
                   f"cold (floor {warm_floor:.2f}x)")
    counters = bench.get("warm_counters", {})
    if counters.get("artifacts.hits") != 1:
        bad.append("warm open did not hit the artifact store "
                   f"(warm_counters={counters!r})")
    recomputed = sorted(n for n in counters
                        if n.startswith(("parse.", "liveness.")))
    if recomputed:
        bad.append("warm open recomputed analysis work: "
                   + ", ".join(recomputed))
    if bench.get("clients", 0) < MIN_CLIENTS:
        bad.append(f"service benchmark ran {bench.get('clients')} "
                   f"concurrent clients (need >= {MIN_CLIENTS})")
    if not bench.get("sessions_per_sec"):
        bad.append("service served no sessions (sessions_per_sec=0)")
    return bad


def main(argv: list[str] | None = None) -> int:
    repo = Path(__file__).resolve().parents[3]
    ap = argparse.ArgumentParser(
        description="fail when BENCH_sim.json shows a JIT regression")
    ap.add_argument("--json", default=str(repo / "BENCH_sim.json"),
                    help="snapshot path (default: repo BENCH_sim.json)")
    ap.add_argument("--floor", type=float, default=MEGATRACE_FLOOR,
                    help="minimum traced-over-interpreter speedup")
    ap.add_argument("--service-json",
                    default=str(repo / "BENCH_service.json"),
                    help="artifact-store/service snapshot "
                         "(default: repo BENCH_service.json)")
    ap.add_argument("--warm-floor", type=float,
                    default=WARM_ANALYZE_FLOOR,
                    help="minimum warm-over-cold analyze() speedup")
    args = ap.parse_args(argv)

    path = Path(args.json)
    try:
        bench = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench_guard: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2
    service_path = Path(args.service_json)
    try:
        service = json.loads(service_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench_guard: cannot read {service_path}: {exc}",
              file=sys.stderr)
        return 2

    tiers = bench.get("tiers", {})
    print(f"bench_guard: {bench.get('benchmark', '?')} "
          f"(N={bench.get('matmul_n')}, reps={bench.get('matmul_reps')},"
          f" {bench.get('instructions', 0):,} instructions)")
    for name, t in tiers.items():
        speed = t.get("speedup", 1.0)
        print(f"  {name:<14} {t.get('instr_per_sec', 0) / 1e6:8.2f} "
              f"Minstr/s  {speed:5.2f}x  "
              f"(spread {t.get('run_to_run_spread', 0):.1%})")
    inst = bench.get("instrumented", {}).get("megatrace", {})
    print(f"  instrumented traced / plain: "
          f"{bench.get('instrumented_over_plain', 0):.2f}; "
          f"{inst.get('megatraces_compiled', '?')} traces, "
          f"interpreted share {inst.get('interpreted_share', 0):.3%}")
    print(f"  block-observed / interpreter: "
          f"{bench.get('block_over_interpreter', 0):.2f}; / plain traced: "
          f"{bench.get('block_over_plain', 0):.2f}; after detach / plain "
          f"traced: {bench.get('after_detach_over_plain', 0):.2f}")

    print(f"bench_guard: {service.get('benchmark', '?')} "
          f"(cold {service.get('analyze_cold_s', 0):.4f}s, warm "
          f"{service.get('analyze_warm_s', 0):.4f}s = "
          f"{service.get('warm_speedup', 0):.2f}x; "
          f"{service.get('clients')} clients @ "
          f"{service.get('sessions_per_sec', 0):.1f} sessions/s)")
    print(f"  medians of {service.get('median_runs', 0)}: cold analyze "
          f"(no store) {service.get('analyze_cold_nostore_median_s', 0):.4f}"
          f"s, warm {service.get('analyze_warm_median_s', 0):.4f}s = "
          f"{service.get('warm_speedup_median', 0):.2f}x")

    bad = check(bench, args.floor)
    bad += check_service(service, args.warm_floor)
    for msg in bad:
        print(f"bench_guard: FAIL: {msg}", file=sys.stderr)
    if not bad:
        print(f"bench_guard: OK (traced {bench['speedup']:.2f}x >= "
              f"{args.floor:.2f}x floor; instrumented/plain "
              f"{bench['instrumented_over_plain']:.2f} >= "
              f"{INSTRUMENTED_FLOOR:.2f}; warm analyze "
              f"{service['warm_speedup']:.2f}x >= "
              f"{args.warm_floor:.2f}x floor)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
