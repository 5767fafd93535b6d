"""Ablation: the simulator's trace JIT on the matmul hot loop.

Measures throughput (simulated instructions per host second) of the
closure interpreter and of the trace JIT, and checks both are
architecturally indistinguishable (registers, memory-visible output,
exit code, instruction/cycle counts).  An instrumented row repeats
both on the same matmul with a counter at every block of ``multiply``
(the paper's §4.3 cell).  Its traced runs take turns with plain traced
runs, and the median over those rounds of the instrumented-over-plain
throughput ratio is the number the CI guard checks: host drift between
rounds cancels out of it.  One more, untimed, traced run of the
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

#: timing repetitions; throughput is taken from the fastest run, the
#: run-to-run spread ((max-min)/min) is recorded alongside
REPEATS = 3

#: rounds of plain and instrumented traced runs taking turns
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


def _measure(*makes, repeats: int = REPEATS):
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


def _measure_observed(prog, granularity: str):
    """Throughput with an event-stream observer attached (then again
    after detach, pinning the zero-overhead-when-unobserved rule)."""
    m = Machine(P550, trace_compile=True)
    m.load_program(prog)
    es = EventStream(granularity=granularity, capacity=1 << 16)
    m.attach_observer(es)
    t0 = time.perf_counter()
    m.run()
    dt_obs = time.perf_counter() - t0
    instret_obs = m.instret
    m.detach_observer(es)
    # rerun the same image unobserved: must ride the traced path again
    m2 = Machine(P550, trace_compile=True)
    m2.load_program(prog)
    t0 = time.perf_counter()
    m2.run()
    dt_after = time.perf_counter() - t0
    return instret_obs / dt_obs, m2.instret / dt_after


def _interpreted_share(make, monkeypatch) -> float:
    """Closure-interpreter steps over ``instret`` in one untimed run of
    the machine *make* builds, counted by wrapping every closure the
    interpreter builds."""
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
    return steps[0] / m.instret


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

    tiers = {}
    results = {}
    for tier in ("interpreter", "megatrace"):
        [runs] = _measure(_plain(prog, tier))
        m, ev, dt, spread = _best(runs)
        results[tier] = (m, ev)
        tiers[tier] = _row(m, dt, spread)

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
    plain_runs, inst_runs = _measure(_plain(prog, "megatrace"),
                                     _patched(edit, patch, "megatrace"),
                                     repeats=PAIR_ROUNDS)
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
    # instrumented over plain megatrace throughput: the median of the
    # rounds' ratios, each from two runs back to back
    ratio = round(statistics.median(
        (mc.instret / di) / (mp.instret / dp)
        for (mp, _, dp), (_, _, di) in zip(plain_runs, inst_runs)), 3)
    share = _interpreted_share(_patched(edit, patch, "megatrace"),
                               monkeypatch)
    instrumented["megatrace"]["interpreted_share"] = round(share, 5)

    ips_block, _ = _measure_observed(prog, "block")
    ips_instr, ips_detached = _measure_observed(prog, "instruction")

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
        "observer overhead (event streams):",
        f"{'block-granularity observed':<28}{ips_block / 1e6:>10.2f}"
        " Minstr/s",
        f"{'instruction-granularity':<28}{ips_instr / 1e6:>10.2f}"
        " Minstr/s",
        f"{'after detach (traced)':<28}{ips_detached / 1e6:>10.2f}"
        " Minstr/s",
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
        "instr_per_sec_observed_block": round(ips_block),
        "instr_per_sec_observed_instruction": round(ips_instr),
        "instr_per_sec_after_detach": round(ips_detached),
    }, indent=2) + "\n")

    # acceptance bar: the JIT >= 4.5x the interpreter
    assert tiers["megatrace"]["speedup"] >= 4.5, \
        f"traced speedup only {tiers['megatrace']['speedup']:.2f}x"
