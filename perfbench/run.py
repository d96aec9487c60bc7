"""The repository benchmark: campaign and triage throughput end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload llm4fp --seed 1 --seconds 20 --trace 0

``--workload`` is ``llm4fp`` or ``triage`` (see ``workloads.py`` for why
each exists).  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

With ``--trace 0`` the jobs run once, timed, and the metrics are the
end-to-end ones (throughput, latency, CPU per op, set-up time, peak
memory), every timing taken to the reference host speed (see
``calibrate``).  With ``--trace 1`` the jobs run once plain (the base of
``trace.overhead``), then once more with the layer probes installed,
and the metrics are the per-layer ones; a Chrome trace-event file per
job lands in ``.perfbench_out/`` and the per-layer self-time table is
printed above the JSON line.

Every job's output (campaign checkpoint bytes, or triage report bytes)
must be identical in every pass, equal a reference run of the same seed
under ``exec_mode="check"`` on the serial backend, and for the default
seed equal the digests stored in ``digests.json``.  A job whose output
differs, or whose process failed, counts all its ops as failed and the
benchmark exits with status 1.  A campaign that raises counts the op
that raised as failed (and the ones after it as never attempted); the
ops before it are measured and checked like any other.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from probes import layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

#: A run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

#: Set-ups behind the ``setup_s`` median: one per timed job process, and
#: the rest from processes that stop when their set-up ends.
SETUP_SAMPLES = 6


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child processes and always reaps them."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self._started = 0

    def run(self, tasks: list[dict], per_process: int = 1, parallel: int = 1) -> list[dict | None]:
        """Run ``tasks`` and return their results in task order.

        The tasks are split into contiguous groups of ``per_process``, each
        run one after another by a fresh process, ``parallel`` processes
        at a time.  A task that raised, or whose process died, yields
        ``None``.  The first result of each group carries ``spawned``, the
        monotonic clock before its process started.
        """
        groups = [tasks[i : i + per_process] for i in range(0, len(tasks), per_process)]
        pending = list(enumerate(groups))
        running: list[tuple[subprocess.Popen, float, Path, int]] = []
        done: dict[int, list] = {}
        try:
            while pending or running:
                while pending and len(running) < parallel:
                    index, group = pending.pop(0)
                    self._started += 1
                    spec = self.work / f"spec-{self._started}.json"
                    out = self.work / f"out-{self._started}.json"
                    out.unlink(missing_ok=True)
                    spec.write_text(json.dumps({"tasks": group, "out": str(out)}), encoding="utf-8")
                    spawned = time.monotonic()
                    proc = subprocess.Popen(
                        [sys.executable, str(HERE / "child.py"), str(spec)],
                        cwd=ROOT,
                        env=self.env,
                        stdout=subprocess.DEVNULL,
                    )
                    running.append((proc, spawned, out, index))
                proc, spawned, out, index = running.pop(0)
                try:
                    code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise ChildFailed("benchmark ran past its deadline")
                group_results = [None] * len(groups[index])
                if code == 0 and out.exists():
                    group_results = json.loads(out.read_text(encoding="utf-8"))
                    out.unlink()
                if group_results[0] is not None:
                    group_results[0]["spawned"] = spawned
                done[index] = group_results
        finally:
            for proc, *_ in running:
                proc.kill()
                proc.wait()
        return [result for index in range(len(groups)) for result in done[index]]


def expected_digests(digests: dict, workload: str, seed: int, ops: int) -> list[str] | None:
    """The stored per-job digests for this configuration, if any."""
    entry = digests.get("workloads", {}).get(workload)
    if seed != digests.get("seed") or entry is None or entry["ops_per_job"] != ops:
        return None
    return entry["sha256"]


def check_outputs(
    runs: list[list[dict | None]], reference: list[dict | None], stored: list[str] | None
) -> dict[int, str]:
    """Compare each job's digest across runs, the reference and the store.

    ``runs`` holds one list of job results per measured pass (the timed
    pass, and the traced pass with ``--trace 1``).  A job that raised must raise the same
    exception after the same output everywhere.  Returns the problem of
    each failed job.
    """
    problems = {}
    for job, ref in enumerate(reference):
        results = [r[job] for r in runs]
        if ref is None or any(r is None for r in results):
            problems[job] = "a process failed"
        elif {r["sha256"] for r in results} != {ref["sha256"]}:
            problems[job] = "output differs from the check-mode reference"
        elif {r.get("raised") for r in results} != {ref.get("raised")}:
            problems[job] = "raised differently from the check-mode reference"
        elif stored is not None and (job >= len(stored) or stored[job] != ref["sha256"]):
            problems[job] = "output differs from the stored digest"
        elif len({json.dumps(_counts(r), sort_keys=True) for r in results + [ref]}) > 1:
            problems[job] = "deterministic counters differ between runs"
    return problems


def account(timed: list[dict | None], problems: dict[int, str], ops_per_job: int) -> tuple[int, int]:
    """``(attempted, failed)`` ops of a run.

    A job that failed a check fails all its ops; a campaign that raised
    attempted the ops it completed plus the one that raised, which fails.
    """
    attempted = failed = 0
    for job, r in enumerate(timed):
        ops = ops_per_job if r is None else r["ops"] + (r["raised"] is not None)
        attempted += ops
        if job in problems:
            failed += ops
        elif r["raised"] is not None:
            failed += 1
    return attempted, failed


def _counts(result: dict) -> dict:
    r = result["result"]
    return {k: r[k] for k in ("comparisons", "inconsistencies", "triggers", "oracle_tests")}


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0 < q < 1).

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics
    rather than the single one at rank qn: on the few dozen ops of a
    triage run it moves less from seed to seed.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # Beta CDF at i/n by integrating the density on a fine midpoint grid.
    steps = 200_000
    t = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.arange(steps + 1) / steps, cdf)
    return float(np.diff(edges) @ ordered)


def speed_scale(results: list[dict]) -> float:
    """``calibrate.REFERENCE_S`` over the kernel's typical time in these jobs.

    Multiplying a run's timings by it gives them at the reference host
    speed (see ``calibrate``).
    """
    samples = [s for r in results for s in r["calibration"]]
    return calibrate.REFERENCE_S / calibrate.typical(samples)


def end_to_end(
    timed: list[dict], jobs: list[int], setups: list[float], scale: float
) -> dict[str, float]:
    """The end-to-end metrics of the jobs ``jobs``, every timing times ``scale``."""
    runs = [timed[job] for job in jobs]
    latencies = [seconds * scale for r in runs for seconds in r["latencies"]]
    # Beyond its latencies a job's wall holds only an op that raised.
    wall = sum(r["wall"] for r in runs) * scale
    cpu = sum(r["cpu_s"] for r in runs) * scale
    ops = len(latencies)
    return {
        "ops_per_s": ops / wall,
        "op_latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "op_latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "cpu_ms_per_op": cpu / ops * 1e3,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024,
    }


def merge_traces(timed: list[dict], traced: list[dict]) -> dict:
    """Sum the traced jobs' raw records (see :func:`probes.layer_metrics`)."""
    raw: dict = {
        "self": {},
        "incl": {},
        "spans": {},
        "counts": {},
        "pass_runs": {},
        "pass_changed": {},
        "top_level_s": 0.0,
        "traced_span_wall_s": 0.0,
        "result": None,
    }
    for t in traced:
        for key in ("self", "incl", "spans", "counts", "pass_runs", "pass_changed"):
            for name, value in t["raw"][key].items():
                raw[key][name] = raw[key].get(name, 0) + value
        raw["top_level_s"] += t["raw"]["top_level_s"]
        raw["traced_span_wall_s"] += t["raw"]["traced_span_wall_s"]
        raw["result"] = _add(raw["result"], t["result"])
    raw["traced_wall_s"] = sum(t["wall"] for t in traced)
    raw["untraced_wall_s"] = sum(t["wall"] for t in timed)
    return raw


def _add(total, part):
    if total is None:
        return copy.deepcopy(part)
    for key, value in part.items():
        total[key] = _add(total[key], value) if isinstance(value, dict) else total[key] + value
    return total


def layer_table(raw: dict) -> str:
    """Self seconds per layer and per probed call, with shares of traced op time."""
    wall = raw["traced_span_wall_s"] or 1.0
    layers: dict[str, float] = {}
    for name, seconds in raw["self"].items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    lines = [f"{'layer / probed call':<32} {'self s':>9} {'share':>7}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<32} {seconds:>9.3f} {seconds / wall:>7.1%}")
        calls = [(n, v) for n, v in raw["self"].items() if n.split(".", 1)[0] == layer]
        for name, value in sorted(calls, key=lambda kv: -kv[1]):
            lines.append(f"  {name:<30} {value:>9.3f} {value / wall:>7.1%}")
    lines.append(f"{'traced op wall':<32} {raw['traced_span_wall_s']:>9.3f}")
    return "\n".join(lines)


def job_specs(work: Path, workload: Workload, seed: int, seconds: float, mode: str) -> list[dict]:
    ops = workload.ops_per_job(seconds)
    specs = []
    for job in range(workload.jobs):
        cseed = workload.campaign_seed(seed, job)
        stem = f"{workload.name}-{cseed}"
        spec = {
            "role": "triage" if workload.triage else "campaign",
            "workload": workload.name,
            "mode": mode,
            "campaign_seed": cseed,
            "ops": ops,
            "trace_file": str(OUT_DIR / f"trace-{stem}.json"),
        }
        if workload.triage:
            spec["checkpoint"] = str(work / f"source-{cseed}.jsonl")
        else:
            spec["checkpoint"] = str(work / f"{stem}-{mode}.jsonl")
        specs.append(spec)
    return specs


def source_specs(work: Path, workload: Workload, seed: int, seconds: float) -> list[dict]:
    """The campaigns that write the checkpoints a triage run reads."""
    return [
        dict(spec, role="campaign", ops=workload.source_budget(seconds))
        for spec in job_specs(work, workload, seed, seconds, "source")
    ]


def setup_specs(jobs: list[dict], samples: int) -> list[dict]:
    """``samples`` set-up-only copies of the jobs, in turn."""
    return [dict(jobs[i % len(jobs)], setup_only=True) for i in range(samples)]


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Checkpoints and child specs go to a directory of this invocation's
    # own; traces, tables and latencies stay in OUT_DIR for inspection.
    work = OUT_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    ops_per_job = workload.ops_per_job(args.seconds)

    phases: dict[str, float] = {}

    def phase(name: str, tasks: list[dict], per_process: int = 1, parallel: int = 1) -> list:
        t0 = time.monotonic()
        results = runner.run(tasks, per_process, parallel)
        phases[name] = time.monotonic() - t0
        return results

    def untimed(name: str, tasks: list[dict]) -> list:
        # Nothing is measured: two processes at once, one per half.
        return phase(name, tasks, per_process=-(-len(tasks) // 2), parallel=2)

    def specs(mode: str) -> list[dict]:
        return job_specs(work, workload, args.seed, args.seconds, mode)

    try:
        if workload.triage:
            # Inputs, produced before anything is timed.
            sources = source_specs(work, workload, args.seed, args.seconds)
            if None in untimed("source", sources):
                raise ChildFailed("a triage source campaign failed")
        timed = phase("timed", specs("timed"), workload.per_process)
        passes = [timed]
        if args.trace:
            passes.append(phase("traced", specs("traced"), workload.per_process))
        else:
            extra = max(0, SETUP_SAMPLES - workload.processes)
            setups = phase("setup", setup_specs(specs("timed"), extra))
        reference = untimed("reference", specs("reference"))
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    stored = expected_digests(digests, workload.name, args.seed, ops_per_job)
    problems = check_outputs(passes, reference, stored)
    for job, problem in problems.items():
        print(f"perfbench: {workload.name} seed {args.seed} job {job}: {problem}", file=sys.stderr)
    for job, r in enumerate(timed):
        if r is not None and r["raised"] is not None:
            print(
                f"perfbench: {workload.name} seed {args.seed} job {job}: op {r['ops']} "
                f"raised {r['raised']}",
                file=sys.stderr,
            )
    good = [job for job, r in enumerate(timed) if job not in problems and r["ops"]]
    attempted, failed = account(timed, problems, ops_per_job)
    if not good:
        print("perfbench: every job failed; no metrics", file=sys.stderr)
        return 1

    (OUT_DIR / f"{workload.name}-seed{args.seed}-latencies.json").write_text(
        json.dumps([{k: timed[job][k] for k in ("latencies", "calibration")} for job in good]),
        encoding="utf-8",
    )
    scale = speed_scale([timed[job] for job in good])
    print(
        f"machine: cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"workload={workload.name} seed={args.seed} jobs={workload.jobs} "
        f"ops_per_job={ops_per_job} speed_scale={scale:.4f} phases="
        + ",".join(f"{name}:{seconds:.1f}s" for name, seconds in phases.items())
    )
    print("job digests: " + " ".join(r["sha256"] if r else "-" for r in timed))
    if args.trace:
        # A job that raised has no engine counters; leave it out of both.
        whole = [j for j, r in enumerate(timed) if j not in problems and r["raised"] is None]
        if not whole:
            print("perfbench: every job raised; no per-layer metrics", file=sys.stderr)
            return 1
        raw = merge_traces([timed[j] for j in whole], [passes[1][j] for j in whole])
        table = layer_table(raw)
        (OUT_DIR / f"{workload.name}-seed{args.seed}-layers.txt").write_text(
            table + "\n", encoding="utf-8"
        )
        print(table)
        values = layer_metrics(raw)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        ready = [r for r in timed + setups if r is not None and "spawned" in r]
        setup_times = [r["ready"] - r["spawned"] for r in ready]
        values = end_to_end(timed, good, setup_times, scale)
        as_measured = end_to_end(timed, good, setup_times, 1.0)
        print("as measured: " + " ".join(f"{k}={v:.4g}" for k, v in as_measured.items()))
        units = {name: unit for name, unit, *_ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
