"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --seeds 11-20 --compare .perfbench/spread-1.json
    python3 perfbench/spread.py --check-spec

Runs ``run.py`` once per (seed, workload), interleaving the workloads
so slow drift of the host spreads over all of them.  For every metric
it prints the median and the quartile spread -- (Q3 - Q1) / median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them -- and
marks a spread of a third of the metric's bound or more.  With
``--compare`` it also checks that no median is worse than the earlier
set's by more than the bound.  Every run must report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import ALL, END_TO_END, PER_LAYER, spec  # noqa: E402

BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(new: float, old: float, better: str) -> float:
    if not old:
        return 0.0
    change = (new - old) / old
    return change if better == "lower" else -change


def check_spec() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec()
    bad = [k for k in want if doc.get(k) != want[k]]
    names = {w["name"] for w in doc.get("workloads", [])}
    if names != set(ALL):
        bad.append("workloads")
    print("BENCHMARK.json " + ("differs in: " + ", ".join(bad)
                               if bad else "matches metrics.py"))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    p.add_argument("--workloads", default=",".join(ALL))
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path)
    p.add_argument("--check-spec", action="store_true")
    args = p.parse_args(argv)
    if args.check_spec:
        return check_spec()

    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            r = run_once(w, seed, args.seconds, args.trace)
            results[w].append(r)
            print(f"seed {seed:3} {w:16} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
    out = args.out or ROOT / ".perfbench" / \
        f"spread-{args.seeds[0]}-{args.seeds[-1]}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results))
    old = json.loads(args.compare.read_text()) if args.compare else {}

    ok = all(r["correct"] for rs in results.values() for r in rs)
    for w, runs in results.items():
        print(f"\n{w}  ({len(runs)} runs)")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            s = spread(vals)
            bound = BOUNDS.get(name)
            line = (f"  {name:34} median {statistics.median(vals):12.6g}"
                    f"  spread {s:7.2%}")
            if bound is not None:
                flag = "ok" if s < bound / 3 or name == "setup_s" else \
                    "WIDE"
                line += f"  bound {bound:.2f} {flag}"
            if old.get(w) and bound is not None:
                prev = statistics.median(
                    [r["metrics"][name]["value"] for r in old[w]])
                d = worse_by(statistics.median(vals), prev, BETTER[name])
                line += f"  vs earlier {d:+7.2%}"
                ok &= d <= bound
            print(line)
    print(f"\nresults in {out}; all correct and within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
