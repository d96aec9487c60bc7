"""The benchmark's own tests: output contract, tracer arithmetic and restore.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
from metrics import END_TO_END, PER_LAYER
from probes import Probes
from run import account, check_outputs, end_to_end, quantile, speed_scale
from tracer import Recorder, self_times, top_level_time
from workloads import WORKLOADS

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
RUN = [sys.executable, str(PERFBENCH / "run.py")]


def _bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    proc, result = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = PER_LAYER if trace == "1" else END_TO_END
    assert {name: unit for name, unit, *_ in table} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_traced_counts_repeat_exactly():
    deterministic = (
        "difftest.comparisons", "difftest.inconsistencies", "difftest.triggers",
        "frontend.parse_calls", "frontend.tokens", "toolchains.compile_kernel_calls",
        "fp.libm_calls", "execution.tape_runs",
    )
    runs = []
    for _ in range(2):
        proc, result = _bench(
            "--workload", "llm4fp", "--seed", "4", "--seconds", "0.5", "--trace", "1"
        )
        assert proc.returncode == 0, proc.stderr
        runs.append({
            name: m["value"] for name, m in result["metrics"].items()
            if name in deterministic or name.endswith(".changed_rate")
        })
    assert runs[0] == runs[1]
    assert runs[0]["frontend.parse_calls"] > 0


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0.0]


def test_self_time_of_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 9];
    # a second top-level b [12, 13] sits alone.
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
        _span("b", 12.0, 13.0, -1),
    ]
    spans[3][5] = 1.5  # aggregate leaves inside the second c
    times = self_times(spans, {"leaf": 1.5})
    assert times == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.5, "leaf": 1.5})
    assert sum(times.values()) == pytest.approx(top_level_time(spans))


def test_harrell_davis_quantile():
    assert quantile([float(x) for x in range(1, 12)], 0.5) == pytest.approx(6.0)
    assert quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    assert quantile([3.0], 0.5) == pytest.approx(3.0)
    assert quantile([4.0, 1.0], 0.5) == pytest.approx(2.5)
    skewed = [1.0] * 80 + [10.0] * 20
    assert 1.0 < quantile(skewed, 0.9) < 10.0
    assert quantile(skewed, 0.5) == pytest.approx(1.0)


def test_end_to_end_takes_timings_to_the_reference_speed():
    def job(latencies, cpu_s, calibration, wall=None):
        wall = sum(latencies) if wall is None else wall
        return {"latencies": latencies, "cpu_s": cpu_s, "wall": wall,
                "calibration": calibration, "peak_rss_kb": 2048}

    # The kernel ran at half the reference speed, bar one preempted
    # sample; job 1 raised after its one op, and the raise took 1 s.
    ref = calibrate.REFERENCE_S
    timed = [
        job([1.0, 4.0], 5.0, [2 * ref] * 6),
        job([2.0], 2.0, [2 * ref] * 3 + [50 * ref], wall=3.0),
    ]
    scale = speed_scale(timed)
    assert scale == pytest.approx(0.5)
    values = end_to_end(timed, [0, 1], [0.5, 0.7, 0.6], scale)
    assert values["ops_per_s"] == pytest.approx(3 / (8.0 * 0.5))
    assert values["op_latency_p50_ms"] == pytest.approx(quantile([1.0, 4.0, 2.0], 0.5) * 500)
    assert values["cpu_ms_per_op"] == pytest.approx(7.0 * 0.5 / 3 * 1e3)
    assert values["setup_s"] == pytest.approx(0.3)
    assert values["peak_rss_mb"] == pytest.approx(2.0)
    # A job left out (one that failed a check) counts nowhere.
    assert end_to_end(timed, [0], [0.5], 1.0)["ops_per_s"] == pytest.approx(2 / 5.0)


def test_calibration_is_left_out_of_the_job_clock():
    from child import Calibration

    calib = Calibration(enabled=True)
    t0 = calib.clock()
    calib.take(20)
    assert len(calib.samples) == 20 and all(s > 0 for s in calib.samples)
    assert calib.clock() - t0 < min(calib.samples)
    off = Calibration(enabled=False)
    off.take(5)
    assert off.samples == []


def test_recorder_nests_spans_and_pauses_its_clock():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    rec = Recorder(clock=lambda: next(ticks))
    outer = rec.enter("outer")  # 0
    inner = rec.enter("inner")  # 1
    rec.exit(inner)  # 2
    with rec.paused():  # 3 .. 10: seven seconds cut out
        pass
    rec.exit(outer)  # 11 - 7 = 4
    assert rec.spans[1][3] == outer
    assert self_times(rec.spans) == pytest.approx({"outer": 3.0, "inner": 1.0})


def test_traced_campaign_restores_every_patched_attribute():
    from repro.difftest.config import CampaignConfig
    from repro.difftest.engine import CampaignEngine, EngineConfig
    from repro.experiments.approaches import make_generator
    from repro.toolchains import default_compilers
    from repro.utils.rng import SplittableRng

    generator = make_generator("loops", SplittableRng(5, "cli-loops"))
    probes = Probes(Recorder())
    probes.install(generator)
    patched = probes.patcher.patched()
    wrappers = {id(getattr(owner, attr)) for owner, attr, _ in patched}
    try:
        engine = CampaignEngine(
            default_compilers(), CampaignConfig(budget=3, seed=5), EngineConfig()
        )
        engine.run(generator)
    finally:
        assert probes.restore() == []
    assert len(patched) > 30
    assert probes.recorder.spans, "the probes recorded nothing"
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still patched"
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                assert id(value) not in wrappers, f"{name}.{attr} keeps a wrapper"


def test_check_outputs_flags_a_tampered_stored_digest():
    job = {"sha256": "a" * 64, "result": {
        "comparisons": 1, "inconsistencies": 0, "triggers": 0, "oracle_tests": 0}}
    assert check_outputs([[job]], [job], ["a" * 64]) == {}
    assert check_outputs([[job]], [job], ["b" * 64]) == {
        0: "output differs from the stored digest"
    }
    other = dict(job, sha256="c" * 64)
    assert 0 in check_outputs([[job]], [other], None)
    assert 0 in check_outputs([[job]], [None], None)


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    args = ["--workload", "llm4fp", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    assert run.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[-1])["correct"] is True
    line = next(x for x in out if x.startswith("job digests: "))
    good = line.split(": ", 1)[1].split()
    ops = WORKLOADS["llm4fp"].ops_per_job(0.5)

    tampered = ["0" * 64] + good[1:]
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({
        "seed": 3, "workloads": {"llm4fp": {"ops_per_job": ops, "sha256": tampered}},
    }))
    monkeypatch.setattr(run, "DIGESTS", digests)
    assert run.main(args) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == ops and result["attempted"] == ops * len(good)
    assert "job 0: output differs from the stored digest" in captured.err


def test_a_raised_op_fails_alone():
    job = {"sha256": "a" * 64, "ops": 10, "raised": "TypeError: x", "result": {
        "comparisons": 1, "inconsistencies": 0, "triggers": 0, "oracle_tests": 0}}
    whole = dict(job, raised=None)
    assert check_outputs([[job, whole]], [job, whole], None) == {}
    assert check_outputs([[job]], [whole], None) == {
        0: "raised differently from the check-mode reference"
    }
    # The op that raised is attempted and fails; the ten before it stand.
    assert account([job, whole], {}, 12) == (21, 1)
    assert account([job, None], {1: "a process failed"}, 12) == (23, 13)


def test_stored_digests_cover_the_default_configuration():
    stored = json.loads((PERFBENCH / "digests.json").read_text())
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name, workload in WORKLOADS.items():
        entry = stored["workloads"][name]
        assert entry["ops_per_job"] == workload.ops_per_job(seconds)
        assert len(entry["sha256"]) == workload.jobs


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
    ]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "llm4fp", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
