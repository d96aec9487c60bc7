"""Every metric the benchmark reports: unit, direction and what it should move.

``BENCHMARK.json`` at the repository root lists the same names and units
(a test keeps the two in step).  ``moves`` records, before any change is
measured, which end-to-end metric on which workload a per-layer metric
should move, and where the prediction is no change.
"""

from __future__ import annotations

from probes import PASS_CLASSES

#: (name, unit, better, bound, what)
END_TO_END = (
    ("ops_per_s", "ops/s", "higher", 0.25,
     "ops / the summed wall-clock of the jobs' op loops, at the reference host speed"),
    ("op_latency_p50_ms", "ms", "lower", 0.25,
     "median per-op latency at the reference host speed (Harrell-Davis estimate)"),
    ("op_latency_p90_ms", "ms", "lower", 0.25,
     "p90 per-op latency at the reference host speed (Harrell-Davis); ~21 samples "
     "beyond it on llm4fp, ~6 on triage"),
    ("cpu_ms_per_op", "ms", "lower", 0.25,
     "user+sys CPU of each job process and its reaped children / ops, at the "
     "reference host speed"),
    ("setup_s", "s", "lower", 0.25,
     "process start to first op (imports, compiler models, engine), median over the "
     "set-ups of the job processes and of set-up-only processes, at the reference "
     "host speed"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "ru_maxrss of a job process plus that of its children, median over jobs"),
)


#: (name, unit, better, moves)
PER_LAYER = (
    ("generation.generate_s", "s", "lower", "ops_per_s and p50 on llm4fp; none on triage"),
    ("generation.observe_s", "s", "lower", "ops_per_s on llm4fp; none on triage"),
    ("generation.llm_calls", "count", "lower", "ops_per_s and p50 on llm4fp; 0 on triage"),
    ("frontend.lex_s", "s", "lower", "ops_per_s on triage; small on llm4fp"),
    ("frontend.tokens", "count", "lower", "ops_per_s on triage; small on llm4fp"),
    ("frontend.parse_s", "s", "lower", "ops_per_s on triage; small on llm4fp"),
    ("frontend.parse_calls", "count", "lower", "ops_per_s on triage; small on llm4fp"),
    ("frontend.sema_s", "s", "lower", "ops_per_s on triage; small on llm4fp"),
    ("frontend.print_s", "s", "lower", "ops_per_s on triage (CUDA round trip)"),
    ("toolchains.cuda_translate_s", "s", "lower",
     "ops_per_s on triage; inclusive of its print + re-parse"),
    ("toolchains.compile_kernel_s", "s", "lower", "ops_per_s and p50 on llm4fp"),
    ("toolchains.compile_kernel_calls", "count", "lower", "ops_per_s on llm4fp"),
    ("toolchains.compile_cache_hit_rate", "ratio", "higher",
     "ops_per_s on llm4fp and peak_rss_mb, where the cache hits"),
    ("toolchains.fingerprint_s", "s", "lower", "ops_per_s on llm4fp"),
    ("toolchains.fingerprint_calls", "count", "lower", "ops_per_s on llm4fp"),
    ("ir.lower_s", "s", "lower", "ops_per_s on llm4fp and triage"),
)
for _cls in PASS_CLASSES:
    PER_LAYER += (
        (f"ir.pass.{_cls}_s", "s", "lower", "ops_per_s on llm4fp"),
        (f"ir.pass.{_cls}.changed_rate", "ratio", "higher",
         "none by itself; explains ir.pass time (a pass that never changes a kernel)"),
    )
PER_LAYER += (
    ("execution.tape_compile_s", "s", "lower", "ops_per_s on llm4fp; none on triage"),
    ("execution.tape_compiles", "count", "lower", "ops_per_s on llm4fp"),
    ("execution.tape_cache_hit_rate", "ratio", "higher", "ops_per_s on llm4fp"),
    ("execution.tape_run_s", "s", "lower", "ops_per_s on llm4fp"),
    ("execution.tape_runs", "count", "lower", "ops_per_s on llm4fp"),
    ("execution.interp_run_s", "s", "lower", "ops_per_s on triage only"),
    ("execution.interp_runs", "count", "lower", "ops_per_s on triage only"),
    ("execution.run_share_rate", "ratio", "higher", "ops_per_s on llm4fp"),
    ("fp.libm_calls", "count", "lower", "ops_per_s on triage and llm4fp"),
    ("fp.libm_s", "s", "lower", "ops_per_s on triage and llm4fp"),
    ("tiers.shape_s", "s", "lower", "ops_per_s and p90 on llm4fp"),
    ("tiers.shape_calls", "count", "lower", "ops_per_s and p90 on llm4fp"),
    ("tiers.shape_used_rate", "ratio", "higher",
     "none by itself; the share of eager shape work a lazy one would keep"),
    ("tiers.devec_fingerprint_s", "s", "lower", "ops_per_s and p90 on llm4fp"),
)
for _stage in ("generate", "frontend", "compile", "execute", "compare"):
    PER_LAYER += (
        (f"difftest.stage.{_stage}_s", "s", "lower",
         "cross-check of the engine's own stage buckets against the spans"),
    )
PER_LAYER += (
    ("difftest.engine_s", "s", "lower", "ops_per_s on llm4fp (engine glue)"),
    ("difftest.store_append_s", "s", "lower", "ops_per_s on llm4fp"),
    ("difftest.store_bytes_per_op", "bytes", "lower", "ops_per_s on llm4fp"),
    ("difftest.backend_run_batches_s", "s", "lower",
     "none on llm4fp: the default engine runs its batches inline (jobs 1)"),
    ("difftest.backend_tasks", "count", "lower", "none on llm4fp (jobs 1 runs inline)"),
    ("difftest.comparisons", "count", "higher", "none; must repeat exactly per seed"),
    ("difftest.inconsistencies", "count", "higher", "none; must repeat exactly per seed"),
    ("difftest.triggers", "count", "higher", "none; must repeat exactly per seed"),
    ("triage.reduce_s", "s", "lower", "ops_per_s on triage only"),
    ("triage.bisect_s", "s", "lower", "ops_per_s on triage only"),
    ("triage.cluster_s", "s", "lower", "ops_per_s on triage only"),
    ("triage.oracle_tests", "count", "lower", "ops_per_s on triage only"),
    ("triage.reduce_accept_rate", "ratio", "higher", "ops_per_s on triage only"),
    ("triage.shrink_ratio", "ratio", "lower", "none; quality of the reduction"),
    ("trace.coverage", "ratio", "higher", "none; share of op time inside a probed call"),
    ("trace.overhead", "ratio", "lower", "none; traced wall / untraced wall - 1"),
)
