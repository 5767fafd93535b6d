"""The benchmark's metric catalogue.

``END_TO_END`` is what a user of the toolkit sees, measured with
tracing off.  ``PER_LAYER`` comes from the traced run; each entry names
the end-to-end metric it should move and the workloads on which it
should move it, written down before any optimisation is measured.
``BENCHMARK.json`` at the repository root lists the same names
(``python3 perfbench/spread.py --check-spec`` compares the two).
"""

from __future__ import annotations

#: (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("session_ms_p50", "ms", "lower", 0.2),
    ("session_ms_p90", "ms", "lower", 0.25),
    ("sessions_per_s", "1/s", "higher", 0.2),
    ("overhead_pct", "%", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_pct", "%", "higher", 0.02),
)

IN_PROCESS = ("matmul_bb", "wide_rewrite")
WIDE = ("wide_rewrite", "service_rewrite")
ALL = ("matmul_bb", "wide_rewrite", "service_rewrite")
P50 = "session_ms_p50"

#: (name, unit, better, end-to-end metric it moves, workloads)
PER_LAYER = (
    ("elf.read_s", "s", "lower", P50, WIDE),
    ("elf.write_s", "s", "lower", P50, WIDE),
    ("parse.s", "s", "lower", P50, WIDE),
    ("parse.functions", "count", "lower", P50, WIDE),
    ("parse.blocks", "count", "lower", P50, WIDE),
    ("parse.insns", "count", "lower", P50, WIDE),
    ("dataflow.liveness_s", "s", "lower", P50, ("wide_rewrite",)),
    ("dataflow.liveness_iterations", "count", "lower", P50,
     ("wide_rewrite",)),
    ("artifacts.store_s", "s", "lower", P50, ("wide_rewrite",)),
    ("artifacts.revive_s", "s", "lower", "service.first_session_ms",
     ("service_rewrite",)),
    ("artifacts.payload_bytes", "bytes", "lower", P50,
     ("wide_rewrite",)),
    ("codegen.generate_s", "s", "lower", P50, WIDE),
    ("codegen.regalloc_s", "s", "lower", P50, WIDE),
    ("patch.commit_s", "s", "lower", P50, WIDE),
    ("patch.springboard_s", "s", "lower", P50, WIDE),
    ("patch.relocate_s", "s", "lower", P50, WIDE),
    ("patch.apply_s", "s", "lower", P50, WIDE),
    ("patch.points", "count", "lower", "overhead_pct", ("matmul_bb",)),
    ("patch.trampoline_bytes", "bytes", "lower", "overhead_pct",
     ("matmul_bb",)),
    ("patch.springboard.c.j", "count", "higher", "overhead_pct",
     ("matmul_bb",)),
    ("patch.springboard.jal", "count", "higher", "overhead_pct",
     ("matmul_bb",)),
    ("patch.springboard.auipc_jalr", "count", "lower", "overhead_pct",
     ("matmul_bb",)),
    ("patch.springboard.trap", "count", "lower", "overhead_pct",
     ("matmul_bb",)),
    ("patch.dead_regs_used", "count", "higher", "overhead_pct",
     ("matmul_bb",)),
    ("sim.run_s", "s", "lower", P50, IN_PROCESS),
    ("sim.trace.compile_s", "s", "lower", P50, ("wide_rewrite",)),
    ("sim.execute_s", "s", "lower", P50, ("matmul_bb",)),
    ("sim.instret", "count", "lower", "overhead_pct", ("matmul_bb",)),
    ("sim.ucycles", "count", "lower", "overhead_pct", ("matmul_bb",)),
    ("sim.minstr_per_s", "Minstr/s", "higher", P50, ("matmul_bb",)),
    ("sim.trace.compiles", "count", "lower", P50, ("wide_rewrite",)),
    ("sim.trace.mega_compiles", "count", "lower", P50, ("matmul_bb",)),
    ("sim.trace.deopts", "count", "lower", P50, ("matmul_bb",)),
    ("sim.trace.instr_per_compile", "count", "higher", P50,
     ("wide_rewrite",)),
    ("sim.trace.jalr_guard_hit_ratio", "ratio", "higher", P50,
     ("matmul_bb",)),
    ("service.open_ms", "ms", "lower", P50, ("service_rewrite",)),
    ("service.insert_ms", "ms", "lower", P50, ("service_rewrite",)),
    ("service.rewrite_ms", "ms", "lower", P50, ("service_rewrite",)),
    ("service.close_ms", "ms", "lower", P50, ("service_rewrite",)),
    ("service.server_ms.open", "ms", "lower", P50, ("service_rewrite",)),
    ("service.server_ms.insert", "ms", "lower", P50,
     ("service_rewrite",)),
    ("service.server_ms.rewrite", "ms", "lower", P50,
     ("service_rewrite",)),
    ("service.server_ms.close", "ms", "lower", P50, ("service_rewrite",)),
    ("service.protocol_ms", "ms", "lower", P50, ("service_rewrite",)),
    ("service.first_session_ms", "ms", "lower", "sessions_per_s",
     ("service_rewrite",)),
    ("service.worker_share_max", "ratio", "lower", "sessions_per_s",
     ("service_rewrite",)),
    ("service.placement_connects", "count", "lower", "sessions_per_s",
     ("service_rewrite",)),
    ("service.retries", "count", "lower", "sessions_per_s",
     ("service_rewrite",)),
    ("service.shed", "count", "lower", "sessions_per_s",
     ("service_rewrite",)),
    ("trace_overhead_pct", "%", "lower", P50, ALL),
    ("trace.accounted_pct", "%", "higher", P50, ALL),
    ("host_calib_s", "s", "lower", P50, ALL),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: counts that must repeat exactly across sessions, runs, and the
#: traced and untraced runs of one seed
DETERMINISTIC = (
    "sim.instret", "sim.ucycles", "sim.trace.compiles",
    "sim.trace.mega_compiles", "parse.blocks", "parse.insns",
    "patch.points", "patch.trampoline_bytes", "overhead_pct",
)


def spec() -> dict:
    """The metric half of ``BENCHMARK.json``."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, *_ in PER_LAYER],
    }
