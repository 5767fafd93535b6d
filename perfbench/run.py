"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload matmul_bb --seed 1 --seconds 20 --trace 0

Prints a readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(see ``metrics.py``).  Times are scaled to a reference host speed (see
``calib.py``); the report also prints them as measured.

Runs from any directory.  Scratch files go to ``.perfbench/`` at the
repository root and are removed at exit, except the deterministic
counts of each (workload, seed, source tree), which every later run
must repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
from metrics import DETERMINISTIC, END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS, peak_rss_mb  # noqa: E402

clock = time.perf_counter

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: pinned so thread scheduling does not vary between interpreters
SWITCH_INTERVAL_S = 0.005
SCRATCH = Path(".perfbench")


def percentile(values, q: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n: int) -> int:
    """The highest of p90/p75/p50 with at least ten samples beyond it
    in *n* samples (p50 when even that has fewer).  Called with the
    fewest sessions a workload's run completes, not with the count it
    happened to complete, so the percentile reported does not change
    with the host's speed."""
    for q in (90, 75):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(workload: str, seed: int, counts: dict) -> list[str]:
    """Deterministic counts must equal those of every earlier run of
    this workload and seed on the same source tree."""
    want = {k: counts[k] for k in DETERMINISTIC if k in counts}
    path = SCRATCH / "counts" / f"{workload}-{seed}-{source_digest()}.json"
    if path.exists():
        seen = json.loads(path.read_text())
        return [f"count {k} = {v}, an earlier run had {seen.get(k)}"
                for k, v in want.items() if seen.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(want, sort_keys=True))
    return []


def timed_setups(wl) -> tuple[list[float], list[float], list[float]]:
    """Run the set-up SETUP_REPEATS times; returns scaled seconds,
    wall seconds, and the calibration samples taken."""
    scaled, wall, samples = [], [], []
    for k in range(SETUP_REPEATS):
        if k:
            wl.teardown()
        gc.collect()
        c0 = calib.sample()
        t0 = clock()
        wl.setup()
        dt = clock() - t0
        c1 = calib.sample()
        samples += [c0, c1]
        wall.append(dt)
        scaled.append(dt * calib.factor(c0, c1))
    return scaled, wall, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)  # short relative socket paths
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setups, setups_wall, samples = timed_setups(wl)
        wl.prepare()
        res = wl.measure(args.seconds, bool(args.trace))
        rss = res.peak_rss_mb or peak_rss_mb()
    finally:
        wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = res.failures + repeat_check(args.workload, args.seed,
                                           res.counts)
    attempted = max(res.attempted, 1)
    failed = min(len(failures), attempted)
    lat = res.latencies
    q = tail_percentile(wl.min_sessions)
    e2e = {
        "setup_s": statistics.median(setups),
        "session_ms_p50": statistics.median(lat) * 1e3 if lat else 0.0,
        "session_ms_p90": percentile(lat, q) * 1e3 if lat else 0.0,
        # closed loop, one session in flight: the inverse of the mean
        "sessions_per_s": len(lat) / sum(lat) if lat else 0.0,
        "overhead_pct": res.counts.get("overhead_pct", 0.0),
        "peak_rss_mb": rss,
        "success_pct": 100.0 * (attempted - failed) / attempted,
    }
    host_calib_s = statistics.median(samples + res.calib)
    layers = {**res.counts, **res.layers, "host_calib_s": host_calib_s}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{args.seconds:g} s  trace {args.trace}")
    print(f"sessions timed {len(lat)} (attempted {attempted}, failed "
          f"{failed}); session_ms_p90 is p{q}")
    wall = res.wall_latencies
    print("as measured: setups "
          + ", ".join(f"{s:.3f}" for s in setups_wall) + " s; session p50 "
          + (f"{statistics.median(wall) * 1e3:.1f} ms" if wall else "-"))
    print(f"host_calib_s {host_calib_s:.6f} (reference "
          f"{calib.REF_CALIB_S})")
    for note in res.notes:
        print(note)
    for why in failures[:5]:
        print("FAILED:", why.strip().splitlines()[-1], file=sys.stderr)
    print("counts: " + ", ".join(f"{k}={res.counts[k]}"
                                 for k in sorted(res.counts)))
    if args.trace:
        names = [name for name, *_ in PER_LAYER]
        values = {name: layers.get(name, 0.0) for name in names}
    else:
        names = [name for name, *_ in END_TO_END]
        values = e2e
    for name in names:
        print(f"  {name:34} {values[name]:>14.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
