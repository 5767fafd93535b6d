"""Ablation: the simulator's trace JIT on the matmul hot loop.

Measures throughput (simulated instructions per host second) of the
closure interpreter and of the trace JIT, and checks both are
architecturally indistinguishable (registers, memory-visible output,
exit code, instruction/cycle counts).  Runs observed by an event
stream (block or instruction granularity, or detached again before the
run) take turns with the two tier rows, and the medians over those
rounds of block-observed over plain traced, after-detach over plain
traced and block-observed over interpreter throughput are recorded:
host drift between rounds cancels out of each ratio.  An instrumented
row repeats both tiers on the same matmul with a counter at every
block of ``multiply`` (the paper's §4.3 cell).  Its traced runs take
turns with plain traced runs, and the median over those rounds of the
instrumented-over-plain throughput ratio is the number the CI guard
checks.  One more, untimed, traced run of the
instrumented matmul counts the instructions the closure interpreter
still runs (the hops between loops the traces do not cover): the CI
guard bounds that share of ``instret``.

Writes ``benchmarks/results/ablation_trace.txt`` and a machine-readable
``BENCH_sim.json`` at the repository root (consumed by
``tools/bench_guard.py`` in CI).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import repro.sim.machine as machine_mod
from repro.api import open_binary
from repro.minicc import compile_source
from repro.minicc.workloads import matmul_source
from repro.sim import Machine, P550
from repro.telemetry.events import EventStream
from repro.tools import count_basic_blocks

from conftest import MATMUL_N, MATMUL_REPS, PAPER_SCALE

BENCH_JSON = Path(__file__).parent.parent / "BENCH_sim.json"

#: throughput needs a longer run than the table-1 workload so compile
#: time amortizes the way it does in a real service workload (the JIT
#: pays its compiles once per image, not per loop)
BENCH_N = MATMUL_N if PAPER_SCALE else 16
BENCH_REPS = MATMUL_REPS if PAPER_SCALE else 40

#: rounds of every rotation; a row's throughput is taken from its
#: fastest run, its run-to-run spread ((max-min)/min) is recorded
#: alongside, and each ratio is the median of the per-round ratios
PAIR_ROUNDS = 5


def _machine(tier: str) -> Machine:
    return Machine(P550, trace_compile=tier != "interpreter")


def _plain(prog, tier: str):
    """Factory of *tier* machines loaded with *prog*."""
    def make():
        m = _machine(tier)
        m.load_program(prog)
        return m
    return make


def _patched(edit, result, tier: str):
    """Factory of *tier* machines loaded with *edit*'s image and
    *result*'s instrumentation applied."""
    def make():
        m = _machine(tier)
        edit.symtab.load_into(m)
        result.apply_to_machine(m)
        return m
    return make


def _measure(*makes, repeats: int = PAIR_ROUNDS):
    """Run the machine each factory in *makes* builds *repeats* times,
    the factories taking turns so that host drift hits them alike.  Per
    factory, the list of (machine, stop event, seconds)."""
    runs = [[] for _ in makes]
    for _ in range(repeats):
        for make, acc in zip(makes, runs):
            m = make()
            t0 = time.perf_counter()
            ev = m.run()
            acc.append((m, ev, time.perf_counter() - t0))
    return runs


def _best(runs):
    """(machine, stop event, best seconds, run-to-run spread)."""
    times = [dt for _, _, dt in runs]
    m, ev, best = min(runs, key=lambda run: run[2])
    return m, ev, best, (max(times) - min(times)) / min(times)


def _arch_state(m, ev):
    return {
        "reason": ev.reason.value,
        "exit_code": m.exit_code,
        "pc": m.pc,
        "x": list(m.x),
        "f": list(m.f),
        "instret": m.instret,
        "ucycles": m.ucycles,
        "stdout": bytes(m.stdout).decode(),
    }


def _observed(prog, granularity: str, detach: bool = False):
    """Factory of traced machines loaded with *prog* and observed by an
    event stream at *granularity*; with *detach* the stream is detached
    again before the run, pinning the zero-overhead-when-unobserved
    rule."""
    def make():
        m = _machine("megatrace")
        m.load_program(prog)
        es = EventStream(granularity=granularity, capacity=1 << 16)
        m.attach_observer(es)
        if detach:
            m.detach_observer(es)
        return m
    return make


def _interpreted_share(make, monkeypatch) -> float:
    """Closure-interpreter steps over ``instret`` in one untimed run of
    the machine *make* builds, counted by wrapping every closure the
    interpreter builds, per pc or shared per encoding.  A cold run
    steps some code, so a count of 0 means the hook missed closures."""
    steps = [0]
    build = machine_mod.build_closure

    def counting_build(m, pc, instr):
        closure = build(m, pc, instr)

        def step():
            steps[0] += 1
            closure()
        return step

    with monkeypatch.context() as mp:
        mp.setattr(machine_mod, "build_closure", counting_build)
        m = make()
        m.run()
    assert steps[0] > 0, "the build_closure hook counted no steps"
    return steps[0] / m.instret


def _median_ratio(runs, base_runs) -> float:
    """Median over the rounds of *runs*' throughput over
    *base_runs*', each round's two runs made back to back (host drift
    between rounds cancels out)."""
    return round(statistics.median(
        (m.instret / dt) / (mb.instret / db)
        for (m, _, dt), (mb, _, db) in zip(runs, base_runs)), 3)


def _row(m, dt: float, spread: float) -> dict:
    return {
        "instr_per_sec": round(m.instret / dt),
        "seconds_best": round(dt, 4),
        "run_to_run_spread": round(spread, 3),
    }


def test_trace_compilation_throughput(record, monkeypatch):
    prog = compile_source(matmul_source(BENCH_N, BENCH_REPS))
    edit = open_binary(prog)
    counter = count_basic_blocks(edit, "multiply")
    patch = edit.commit()

    # the tier rows and the observed rows take turns, so each ratio
    # below compares runs made back to back
    interp_runs, plain_runs, *observed_runs = _measure(
        _plain(prog, "interpreter"), _plain(prog, "megatrace"),
        _observed(prog, "block"), _observed(prog, "instruction"),
        _observed(prog, "instruction", detach=True))
    tiers = {}
    results = {}
    for tier, runs in (("interpreter", interp_runs),
                       ("megatrace", plain_runs)):
        m, ev, dt, spread = _best(runs)
        results[tier] = (m, ev)
        tiers[tier] = _row(m, dt, spread)
    observed = {}
    for key, runs in zip(("block", "instruction", "after_detach"),
                         observed_runs):
        m, _, dt, spread = _best(runs)
        observed[key] = _row(m, dt, spread)
    block_runs, _, detach_runs = observed_runs
    ratios = {
        "block_over_plain": _median_ratio(block_runs, plain_runs),
        "after_detach_over_plain": _median_ratio(detach_runs, plain_runs),
        "block_over_interpreter": _median_ratio(block_runs, interp_runs),
    }

    # identical architectural results on both engines
    m0, ev0 = results["interpreter"]
    mm, evm = results["megatrace"]
    assert _arch_state(mm, evm) == _arch_state(m0, ev0)
    assert ev0.reason.value == "exited" and m0.exit_code == 0

    tiers["megatrace"]["speedup"] = round(
        tiers["megatrace"]["instr_per_sec"]
        / tiers["interpreter"]["instr_per_sec"], 3)
    tiers["megatrace"].update({
        "megatraces_compiled": mm.traces.mega_compiles,
        "deopts": mm.traces.deopt_count[0],
    })

    # the instrumented row: one interpreter run as the reference
    [[(mi, evi, dti)]] = _measure(_patched(edit, patch, "interpreter"),
                                  repeats=1)
    pair_runs, inst_runs = _measure(_plain(prog, "megatrace"),
                                    _patched(edit, patch, "megatrace"))
    mc, evc, dtc, spread = _best(inst_runs)
    assert _arch_state(mc, evc) == _arch_state(mi, evi)
    assert counter.read(mc) == counter.read(mi) > 0
    instrumented = {
        "points": counter.n_points,
        "instructions": mi.instret,
        "interpreter": _row(mi, dti, 0.0),
        "megatrace": _row(mc, dtc, spread),
    }
    instrumented["megatrace"].update({
        "speedup": round(mc.instret / dtc / (mi.instret / dti), 3),
        "megatraces_compiled": mc.traces.mega_compiles,
        "alias_guard_misses": mc.traces.alias_guard_misses,
    })
    ratio = _median_ratio(inst_runs, pair_runs)
    share = _interpreted_share(_patched(edit, patch, "megatrace"),
                               monkeypatch)
    instrumented["megatrace"]["interpreted_share"] = round(share, 5)

    fmt = [("interpreter", "interpreter (traces off)"),
           ("megatrace", "looping traces (JIT)")]
    lines = [
        "Ablation: trace JIT (matmul mutatee, "
        f"N={BENCH_N}, reps={BENCH_REPS})",
        "",
        f"{'tier':<26}{'Minstr/s':>10}{'seconds':>9}{'speedup':>9}"
        f"{'spread':>8}",
    ]
    for key, label in fmt:
        t = tiers[key]
        speedup = f"{t.get('speedup', 1.0):.2f}x"
        lines.append(
            f"{label:<26}{t['instr_per_sec'] / 1e6:>10.2f}"
            f"{t['seconds_best']:>9.3f}{speedup:>9}"
            f"{t['run_to_run_spread']:>7.1%}")
    lines += [
        "",
        f"instrumented (a counter at each of multiply's "
        f"{counter.n_points} blocks):",
    ]
    for key, label in fmt:
        t = instrumented[key]
        speedup = f"{t.get('speedup', 1.0):.2f}x"
        lines.append(
            f"{label:<26}{t['instr_per_sec'] / 1e6:>10.2f}"
            f"{t['seconds_best']:>9.3f}{speedup:>9}"
            f"{t['run_to_run_spread']:>7.1%}")
    lines += [
        f"traced throughput, instrumented / plain: {ratio:.2f} "
        f"(median of {PAIR_ROUNDS} rounds)",
        f"traces compiled: {mc.traces.mega_compiles}   "
        f"interpreted share of instret: {share:.3%}",
        "",
        f"plain: traces compiled: {mm.traces.mega_compiles}   "
        f"deopts: {mm.traces.deopt_count[0]}",
        "",
        "observer overhead (event streams, best of "
        f"{PAIR_ROUNDS}, taking turns with the tier rows):",
        f"{'':<28}{'Minstr/s':>10}{'seconds':>9}{'spread':>8}",
    ]
    for key, label in (("block", "block-granularity observed"),
                       ("instruction", "instruction-granularity"),
                       ("after_detach", "after detach (traced)")):
        t = observed[key]
        lines.append(
            f"{label:<28}{t['instr_per_sec'] / 1e6:>10.2f}"
            f"{t['seconds_best']:>9.3f}{t['run_to_run_spread']:>7.1%}")
    lines += [
        f"block-observed / plain traced: {ratios['block_over_plain']:.2f}"
        f"   after detach / plain traced: "
        f"{ratios['after_detach_over_plain']:.2f}",
        f"block-observed / interpreter: "
        f"{ratios['block_over_interpreter']:.2f}"
        f"   (medians of {PAIR_ROUNDS} rounds)",
    ]
    record("ablation_trace", "\n".join(lines) + "\n")

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "sim_throughput_matmul",
        "matmul_n": BENCH_N,
        "matmul_reps": BENCH_REPS,
        "instructions": m0.instret,
        "tiers": tiers,
        # headline number (and the CI guard's key): traced throughput
        # over the closure interpreter
        "speedup": tiers["megatrace"]["speedup"],
        "instrumented": instrumented,
        # the CI guard's floor: traces on instrumented code against
        # traces on the plain code
        "instrumented_over_plain": ratio,
        "observed": observed,
        # the CI guard checks block_over_interpreter >= 1
        **ratios,
    }, indent=2) + "\n")

    # acceptance bar: the JIT >= 4.5x the interpreter
    assert tiers["megatrace"]["speedup"] >= 4.5, \
        f"traced speedup only {tiers['megatrace']['speedup']:.2f}x"
