"""One campaign or triage job in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json``.  Each task of the spec
names a ``role``:

* ``campaign`` — run one seeded campaign with a checkpoint, in ``mode``
  ``timed`` (the user's configuration), ``traced`` (the same, with the
  layer probes installed), ``reference`` (``exec_mode="check"`` on the
  serial backend: every kernel runs on the tape *and* the tree
  interpreter, bit-compared) or ``source`` (the serial tape backend,
  keeping the checkpoint a triage job reads);
* ``triage`` — triage the first ``ops`` triggers of a checkpoint, in the
  modes ``timed``, ``traced`` and ``reference``.

A task with ``setup_only`` set returns as soon as its set-up ends.  The
spec holds a list of such tasks, run one after another; their results
(timings, rusage, output digest, counters; ``null`` for a task that
raised outside its op loop) are written as one JSON list to
``spec["out"]``.  ``ready`` is the ``time.monotonic()`` reading when
set-up ends and the first op starts; the parent, which noted the clock
before starting this process, turns it into the set-up time.  A campaign
that raises inside its op loop reports the ops it completed, its
checkpoint up to them and the exception as ``raised``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_kb() -> int:
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


#: Kernel samples a timed job takes once set up, before its first op,
#: and after each op.
WARM_SAMPLES = 10
OP_SAMPLES = 2


class Calibration:
    """Samples of :func:`calibrate.kernel` between a timed job's ops.

    ``clock`` and ``cpu`` leave out the time spent sampling, so op
    latencies, wall and CPU figures hold only the job's own work.  A job
    that is not timed takes no samples.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        self._wall = 0.0
        self._cpu = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._wall

    def cpu(self) -> float:
        return _cpu_seconds() - self._cpu

    def take(self, count: int) -> None:
        if not self.enabled:
            return
        wall, cpu = time.perf_counter(), _cpu_seconds()
        self.samples += [calibrate.sample() for _ in range(count)]
        self._wall += time.perf_counter() - wall
        self._cpu += _cpu_seconds() - cpu


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Counters a job of the other kind reports as zero.
_NO_TRIAGE = {"oracle_tests": 0, "accepted_edits": 0, "original_nodes": 0, "reduced_nodes": 0}
_NO_CAMPAIGN = {
    "comparisons": 0,
    "inconsistencies": 0,
    "triggers": 0,
    "shared_runs": 0,
    "total_runs": 0,
    "store_bytes": 0,
    "campaign_ops": 0,
    "stage": dict.fromkeys(("generate", "frontend", "compile", "execute", "compare"), 0.0),
}


def _engine_config(mode):
    from repro.difftest.engine import EngineConfig

    if mode == "reference":
        return EngineConfig(backend="serial", jobs=1, exec_mode="check")
    if mode == "source":
        return EngineConfig(backend="serial", jobs=1, exec_mode="tape")
    return EngineConfig()


def _campaign(spec: dict, workload, mode: str) -> dict:
    from repro.difftest.config import CampaignConfig
    from repro.difftest.engine import CampaignEngine
    from repro.difftest.store import CampaignStore
    from repro.experiments.approaches import make_generator
    from repro.toolchains import default_compilers
    from repro.utils.rng import SplittableRng

    seed, budget, approach = spec["campaign_seed"], spec["ops"], workload.approach
    generator = make_generator(approach, SplittableRng(seed, f"cli-{approach}"))
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=budget, seed=seed),
        _engine_config(mode),
    )
    path = Path(spec["checkpoint"])
    path.unlink(missing_ok=True)
    store = CampaignStore(path)

    marks: list[float] = []
    outcomes: list = []
    raised = None
    calib = Calibration(mode == "timed")
    with _probed(mode == "traced", generator) as probes:

        def progress(index, outcome):
            marks.append(calib.clock())
            outcomes.append(outcome)
            calib.take(OP_SAMPLES)
            if probes is not None:
                probes.settle()
                probes.recorder.op = index + 1

        ready = time.monotonic()
        if spec.get("setup_only"):
            return {"ready": ready}
        calib.take(WARM_SAMPLES)
        cpu0 = calib.cpu()
        t0 = calib.clock()
        if probes is not None:
            probes.recorder.op = 0
            span_t0 = probes.recorder.clock()
        try:
            result = engine.run(generator, progress=progress, store=store)
        except Exception as e:  # the op that raised fails; those before it stand
            raised = f"{type(e).__name__}: {e}"
            traceback.print_exc()
        t1 = calib.clock()
        if probes is not None:
            span_t1 = probes.recorder.clock()
            probes.settle()
    cpu1 = calib.cpu()
    data = path.read_bytes()
    # The time spent on an op that raised counts in the wall and CPU
    # figures, but the op has no latency.
    last = t1 if raised is None else (marks[-1] if marks else t0)
    out = {
        "ready": ready,
        "wall": t1 - t0,
        "latencies": _latencies(t0, marks, last),
        "cpu_s": cpu1 - cpu0,
        "calibration": calib.samples,
        "peak_rss_kb": _peak_rss_kb(),
        "sha256": _sha256(data),
        "ops": len(outcomes),
        "raised": raised,
        "result": {
            "comparisons": sum(len(o.comparisons) for o in outcomes),
            "inconsistencies": sum(len(o.inconsistent_comparisons) for o in outcomes),
            "triggers": sum(1 for o in outcomes if o.triggered),
            "shared_runs": result.shared_runs if raised is None else 0,
            "total_runs": result.total_runs if raised is None else 0,
            "store_bytes": len(data),
            "campaign_ops": len(outcomes),
            "stage": (
                result.stage_seconds if raised is None else _NO_CAMPAIGN["stage"]
            ),
            **_NO_TRIAGE,
        },
    }
    if probes is not None:
        out["raw"] = _finish_trace(probes, spec, span_t1 - span_t0)
    if mode != "source":
        path.unlink(missing_ok=True)
    return out


def _latencies(t0: float, marks: list[float], t1: float) -> list[float]:
    """Per-op seconds; work after the last op's mark (pool shutdown,
    clustering, rendering) is charged to the last op."""
    if not marks:
        return []
    ends = marks[:-1] + [t1]
    return [b - a for a, b in zip([t0] + ends[:-1], ends)]


def _triage(spec: dict, mode: str) -> dict:
    import repro.triage.cluster as cluster
    from repro.difftest.store import load_result
    from repro.toolchains import default_compilers
    from repro.triage import triage_results

    result = load_result(spec["checkpoint"])
    compilers = default_compilers(tiers=result.tiers)
    triggering = [i for i, o in enumerate(result.outcomes) if o.triggered]
    wanted = triggering[: spec["ops"]]
    if wanted:
        result.outcomes = result.outcomes[: wanted[-1] + 1]
    label = Path(spec["checkpoint"]).name
    kwargs = {"compilers": compilers}
    if mode == "reference":
        kwargs["exec_mode"] = "check"

    marks: list[float] = []
    calib = Calibration(mode == "timed")
    with _probed(mode == "traced") as probes:
        # Each trigger's triage ends with its reduction: that return is
        # the op boundary.
        reduce_program = cluster.reduce_program

        def marked_reduce(*args, **kw):
            reduced = reduce_program(*args, **kw)
            marks.append(calib.clock())
            calib.take(OP_SAMPLES)
            if probes is not None:
                probes.settle()
                probes.recorder.op = len(marks)
            return reduced

        cluster.reduce_program = marked_reduce
        try:
            ready = time.monotonic()
            if spec.get("setup_only"):
                return {"ready": ready}
            calib.take(WARM_SAMPLES)
            cpu0 = calib.cpu()
            t0 = calib.clock()
            if probes is not None:
                probes.recorder.op = 0
                span_t0 = probes.recorder.clock()
            report = triage_results([(label, result)], **kwargs)
            text = report.render()
            t1 = calib.clock()
            if probes is not None:
                span_t1 = probes.recorder.clock()
                probes.settle()
        finally:
            cluster.reduce_program = reduce_program
    cpu1 = calib.cpu()
    entries = [e for c in report.clusters for e in c.entries]
    reductions = [e.reduction for e in entries if e.reduction is not None]
    out = {
        "ready": ready,
        "wall": t1 - t0,
        "latencies": _latencies(t0, marks, t1),
        "cpu_s": cpu1 - cpu0,
        "calibration": calib.samples,
        "peak_rss_kb": _peak_rss_kb(),
        "sha256": _sha256(text.encode("utf-8")),
        "ops": report.triggers,
        "raised": None,
        "result": {
            **_NO_CAMPAIGN,
            "oracle_tests": sum(r.tests for r in reductions),
            "accepted_edits": sum(r.accepted_edits for r in reductions),
            "original_nodes": sum(r.original_nodes for r in reductions),
            "reduced_nodes": sum(r.reduced_nodes for r in reductions),
        },
    }
    if probes is not None:
        out["raw"] = _finish_trace(probes, spec, span_t1 - span_t0)
    return out


@contextmanager
def _probed(enabled: bool, generator=None):
    """The layer probes while the block runs (``None`` when not traced);
    every original is put back, and checked, however the block ends."""
    if not enabled:
        yield None
        return
    from probes import Probes
    from tracer import Recorder

    probes = Probes(Recorder())
    try:
        probes.install(generator)
        yield probes
    finally:
        not_restored = probes.restore()
        if not_restored:
            raise RuntimeError(f"tracer left patched attributes: {not_restored}")


def _finish_trace(probes, spec: dict, span_wall: float) -> dict:
    from tracer import inclusive_times, self_times, top_level_time, write_chrome_trace

    rec = probes.recorder
    spans: dict[str, int] = {}
    for span in rec.spans:
        spans[span[0]] = spans.get(span[0], 0) + 1
    write_chrome_trace(
        spec["trace_file"],
        rec.spans,
        {"workload": spec["workload"], "campaign_seed": spec["campaign_seed"]},
    )
    return {
        "self": self_times(rec.spans, rec.leaf_seconds),
        "incl": inclusive_times(rec.spans),
        "spans": spans,
        "counts": dict(rec.counts),
        "pass_runs": probes.pass_runs,
        "pass_changed": probes.pass_changed,
        "top_level_s": top_level_time(rec.spans, rec.leaf_top_seconds),
        "traced_span_wall_s": span_wall,
    }


def run_task(task: dict) -> dict:
    if task["role"] == "triage":
        return _triage(task, task["mode"])
    return _campaign(task, WORKLOADS[task["workload"]], task["mode"])


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    results = []
    for task in spec["tasks"]:
        try:
            results.append(run_task(task))
        except Exception:  # one failed op must not hide the others' results
            traceback.print_exc()
            results.append(None)
    out = Path(spec["out"])
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(results), encoding="utf-8")
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
