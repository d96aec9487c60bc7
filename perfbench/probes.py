"""Where the traced run wraps ``repro``, and how spans become layer metrics.

Every probe wraps a public function or method at a layer boundary; the
span name's first component is the ``repro`` package (layer) the callee
belongs to.  Nothing under ``src/`` is changed: the wrappers are
installed on module and class attributes for the duration of one traced
campaign (or triage run) and removed afterwards.
"""

from __future__ import annotations

import importlib
import pkgutil

from tracer import Patcher, Recorder, counter_wrapper, leaf_wrapper, span_wrapper

#: Pass classes whose ``run`` the compiler pipelines call; one
#: ``ir.pass.<Class>_s`` / ``ir.pass.<Class>.changed_rate`` pair each.
PASS_CLASSES = (
    "ConstantFold",
    "FmaContract",
    "IfConvert",
    "LoopUnroll",
    "Reassociate",
    "ReciprocalDivision",
    "FiniteMathSimplify",
    "FunctionSubstitution",
    "Vectorize",
)


def import_all_repro() -> None:
    """Import every ``repro`` module before patching.

    A module imported *after* the patch would bind the wrappers by name
    and keep them after the restore.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Probes:
    """Installs the layer probes on one :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.patcher = Patcher("repro")
        #: (pass class, input kernel, output kernel) awaiting comparison
        self.pending_passes: list = []
        self.pass_runs: dict[str, int] = {}
        self.pass_changed: dict[str, int] = {}

    # -- installation ------------------------------------------------------

    def install(self, generator=None) -> None:
        import_all_repro()
        from repro.difftest import backend as backend_mod
        from repro.difftest.classify import devectorized_fingerprint
        from repro.difftest.engine import CampaignEngine
        from repro.difftest.store import CampaignStore
        from repro.execution.batch import run_batch
        from repro.execution.interp import Interpreter
        from repro.execution.tape import Tape, compile_tape
        from repro.fp.mathlib import CorrectlyRoundedLibm, PerturbedLibm
        from repro.frontend.lexer import Lexer
        from repro.frontend.parser import parse_program
        from repro.frontend.printer import print_c, print_cuda
        from repro.frontend.sema import check_program
        from repro.generation.llm.simllm import SimLLM
        from repro.generation.program import observe_outcome
        from repro.ir.lower import lower_compute
        from repro.ir.passes.base import Pass
        from repro.tiers import shape_vector, structural_tag_from_shapes
        from repro.toolchains.base import Compiler
        from repro.toolchains.cache import (
            env_fingerprint,
            kernel_fingerprint,
            scalar_env_fingerprint,
        )
        from repro.toolchains.cuda import translate_to_cuda
        from repro.triage.bisect import bisect_signature
        from repro.triage.cluster import cluster_entries
        from repro.triage.reduce import reduce_program

        rec, p = self.recorder, self.patcher
        counts = rec.counts

        def span(name, after=None):
            return span_wrapper(rec, name, after)

        def count_tokens(args, kwargs, result):
            counts["frontend.tokens"] += len(result.tokens)

        def count_cache(args, kwargs, result):
            counts["toolchains.compile_cache_hits"] += bool(result[1])

        def count_lookup(args, kwargs, result):
            mode = args[4] if len(args) > 4 else kwargs.get("mode", "tape")
            if mode != "tree":
                counts["execution.tape_lookups"] += 1

        def count_tasks(args, kwargs, result):
            counts["difftest.backend_tasks"] += len(args[1])

        def stash_pass(args, kwargs, result):
            self.pending_passes.append((type(args[0]).__name__, args[1], result))

        if generator is not None:
            p.wrap_method(type(generator), "generate", span("generation.generate"))
        p.wrap_method(SimLLM, "complete", span("generation.llm"))
        p.wrap_function(observe_outcome, span("generation.observe"))

        p.wrap_method(Lexer, "run", span("frontend.lex", count_tokens))
        p.wrap_function(parse_program, span("frontend.parse"))
        p.wrap_function(check_program, span("frontend.sema"))
        p.wrap_function(print_c, span("frontend.print"))
        p.wrap_function(print_cuda, span("frontend.print"))

        p.wrap_function(translate_to_cuda, span("toolchains.cuda_translate"))
        p.wrap_method(Compiler, "compile_kernel", span("toolchains.compile_kernel"))
        p.wrap_method(
            Compiler, "compile_kernel_cached", span("toolchains.compile_cached", count_cache)
        )
        for fn in (kernel_fingerprint, env_fingerprint, scalar_env_fingerprint):
            p.wrap_function(fn, span("toolchains.fingerprint"))

        p.wrap_function(lower_compute, span("ir.lower"))
        for cls in _subclasses(Pass):
            if "run" in cls.__dict__:
                p.wrap_method(
                    cls,
                    "run",
                    span(lambda args: "ir.pass." + type(args[0]).__name__, stash_pass),
                )

        p.wrap_function(run_batch, span("execution.run_batch", count_lookup))
        p.wrap_function(compile_tape, span("execution.tape_compile"))
        p.wrap_method(Tape, "run", span("execution.tape_run"))
        p.wrap_method(Interpreter, "run", span("execution.interp_run"))

        p.wrap_method(PerturbedLibm, "call", leaf_wrapper(rec, "fp.libm"))
        p.wrap_method(CorrectlyRoundedLibm, "call", leaf_wrapper(rec, "fp.libm"))

        p.wrap_function(shape_vector, span("tiers.shape"))
        p.wrap_function(devectorized_fingerprint, span("tiers.devec_fingerprint"))
        p.wrap_function(structural_tag_from_shapes, counter_wrapper(rec, "tiers.tag"))

        p.wrap_method(CampaignEngine, "test_program", span("difftest.engine"))
        p.wrap_method(CampaignStore, "append", span("difftest.store_append"))
        for cls in (
            backend_mod.ExecutionBackend,
            backend_mod.ThreadBackend,
            backend_mod.ProcessBackend,
        ):
            p.wrap_method(
                cls, "run_batches", span("difftest.backend_run_batches", count_tasks)
            )

        p.wrap_function(reduce_program, span("triage.reduce"))
        p.wrap_function(bisect_signature, span("triage.bisect"))
        p.wrap_function(cluster_entries, span("triage.cluster"))

    # -- between ops -------------------------------------------------------

    def settle(self) -> None:
        """Compare stashed pass inputs with outputs, off the span clock."""
        with self.recorder.paused():
            for name, before, after in self.pending_passes:
                self.pass_runs[name] = self.pass_runs.get(name, 0) + 1
                if after is not before and after != before:
                    self.pass_changed[name] = self.pass_changed.get(name, 0) + 1
            self.pending_passes.clear()

    # -- removal -----------------------------------------------------------

    def restore(self) -> list[str]:
        """Put every original back; returns attributes that did not revert."""
        patched = self.patcher.patched()
        self.patcher.restore()
        wrong = []
        for owner, attr, original in patched:
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return wrong


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics from the summed raw record of traced runs.

    ``raw`` carries ``self`` (self seconds per span name), ``incl``
    (inclusive seconds per span name), ``spans`` (span count per name),
    ``counts``, ``pass_runs``/``pass_changed`` and the run's own
    counters (``result``) and walls.
    """
    st, incl, n, c, res = raw["self"], raw["incl"], raw["spans"], raw["counts"], raw["result"]

    def s(*names):
        return sum(st.get(x, 0.0) for x in names)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "generation.generate_s": s("generation.generate", "generation.llm"),
        "generation.observe_s": s("generation.observe"),
        "generation.llm_calls": n.get("generation.llm", 0),
        "frontend.lex_s": s("frontend.lex"),
        "frontend.tokens": c.get("frontend.tokens", 0),
        "frontend.parse_s": s("frontend.parse"),
        "frontend.parse_calls": n.get("frontend.parse", 0),
        "frontend.sema_s": s("frontend.sema"),
        "frontend.print_s": s("frontend.print"),
        "toolchains.cuda_translate_s": incl.get("toolchains.cuda_translate", 0.0),
        "toolchains.compile_kernel_s": s("toolchains.compile_kernel", "toolchains.compile_cached"),
        "toolchains.compile_kernel_calls": n.get("toolchains.compile_kernel", 0),
        "toolchains.compile_cache_hit_rate": ratio(
            c.get("toolchains.compile_cache_hits", 0), n.get("toolchains.compile_cached", 0)
        ),
        "toolchains.fingerprint_s": s("toolchains.fingerprint"),
        "toolchains.fingerprint_calls": n.get("toolchains.fingerprint", 0),
        "ir.lower_s": s("ir.lower"),
    }
    for cls in PASS_CLASSES:
        m[f"ir.pass.{cls}_s"] = s(f"ir.pass.{cls}")
        m[f"ir.pass.{cls}.changed_rate"] = ratio(
            raw["pass_changed"].get(cls, 0), raw["pass_runs"].get(cls, 0)
        )
    lookups = c.get("execution.tape_lookups", 0)
    compiles = n.get("execution.tape_compile", 0)
    m.update(
        {
            "execution.tape_compile_s": s("execution.tape_compile"),
            "execution.tape_compiles": compiles,
            "execution.tape_cache_hit_rate": ratio(lookups - compiles, lookups),
            "execution.tape_run_s": s("execution.tape_run"),
            "execution.tape_runs": n.get("execution.tape_run", 0),
            "execution.interp_run_s": s("execution.interp_run"),
            "execution.interp_runs": n.get("execution.interp_run", 0),
            "execution.run_share_rate": ratio(res["shared_runs"], res["total_runs"]),
            "fp.libm_calls": c.get("fp.libm", 0),
            "fp.libm_s": s("fp.libm"),
            "tiers.shape_s": s("tiers.shape"),
            "tiers.shape_calls": n.get("tiers.shape", 0),
            "tiers.shape_used_rate": ratio(c.get("tiers.tag", 0), n.get("tiers.shape", 0)),
            "tiers.devec_fingerprint_s": s("tiers.devec_fingerprint"),
        }
    )
    for stage in ("generate", "frontend", "compile", "execute", "compare"):
        m[f"difftest.stage.{stage}_s"] = res["stage"][stage]
    m.update(
        {
            "difftest.engine_s": s("difftest.engine"),
            "difftest.store_append_s": s("difftest.store_append"),
            "difftest.store_bytes_per_op": ratio(res["store_bytes"], res["campaign_ops"]),
            "difftest.backend_run_batches_s": s("difftest.backend_run_batches"),
            "difftest.backend_tasks": c.get("difftest.backend_tasks", 0),
            "difftest.comparisons": res["comparisons"],
            "difftest.inconsistencies": res["inconsistencies"],
            "difftest.triggers": res["triggers"],
            "triage.reduce_s": s("triage.reduce"),
            "triage.bisect_s": s("triage.bisect"),
            "triage.cluster_s": s("triage.cluster"),
            "triage.oracle_tests": res["oracle_tests"],
            "triage.reduce_accept_rate": ratio(res["accepted_edits"], res["oracle_tests"]),
            "triage.shrink_ratio": ratio(res["reduced_nodes"], res["original_nodes"]),
            "trace.coverage": ratio(raw["top_level_s"], raw["traced_span_wall_s"]),
            "trace.overhead": ratio(raw["traced_wall_s"], raw["untraced_wall_s"]) - 1.0,
        }
    )
    return m
