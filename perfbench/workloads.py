"""The benchmark's two workloads and how one run of each is sized.

A run of a workload is a closed loop with one caller: many independent
campaigns (or triage jobs) run one after another, a few to a fresh
process, the way a user runs ``llm4fp run`` / ``llm4fp triage``.
Independent campaigns, rather than one long one, keep a run's figures
from hanging on one program stream: the cost of a program (or of
triaging a trigger) varies several-fold, and the figures of a run with
another seed are only comparable when each averages many of them.

Sizes come from ``--seconds``: a workload's rate times the seconds,
split over its jobs.  The rates are set so that every run at the length
in ``BENCHMARK.json`` fits the time the whole benchmark may take on a
2-CPU x86-64 host with Python 3.11.  The op count of a run is therefore
fixed by ``(workload, seconds)`` alone, and the deterministic counters
of two runs with one seed repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed whose output digests are stored in ``digests.json``.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: approach of the campaigns (for ``triage``: of the campaigns whose
    #: triggers are triaged)
    approach: str
    #: ops a run times per second of ``--seconds``
    rate: float
    #: independent campaigns or triage jobs
    jobs: int
    #: jobs run one after another by each process (so jobs // per_process
    #: processes)
    per_process: int
    triage: bool = False
    #: triage only: source-campaign programs generated per trigger wanted
    source_per_trigger: int = 0

    @property
    def processes(self) -> int:
        return -(-self.jobs // self.per_process)

    def ops_per_job(self, seconds: float) -> int:
        per_job = self.rate * seconds / self.jobs
        return max(1 if self.triage else 2, int(per_job + 0.5))

    def source_budget(self, seconds: float) -> int:
        return self.ops_per_job(seconds) * self.source_per_trigger

    def campaign_seed(self, seed: int, job: int) -> int:
        """The ``llm4fp run --seed`` of job ``job`` in a run seeded ``seed``."""
        return seed * 1000 + job


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="llm4fp",
            why=(
                "the paper's approach (simulated LLM + feedback mutation), default engine: "
                "generation, frontend, compile, tape execution, tier shapes and checkpoint"
            ),
            approach="llm4fp",
            rate=7.2,
            # Feedback ties a campaign's programs together, so its cost per
            # program varies from campaign to campaign: many short ones.
            jobs=24,
            per_process=8,
        ),
        Workload(
            name="triage",
            why=(
                "llm4fp triage at CLI defaults (reduce, tree executor, jobs 1) over "
                "seeded direct-prompt triggers: the only workload in repro.triage"
            ),
            approach="direct-prompt",
            rate=2.0,
            jobs=12,
            per_process=4,
            triage=True,
            source_per_trigger=4,
        ),
    )
}
