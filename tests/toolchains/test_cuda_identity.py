"""The device compiler shares the host kernel.

``difftest.engine.frontend_kernels`` front-ends each program once and
hands nvcc the kernel lowered from the C unit.  That is sound only while
the CUDA translation (``__global__`` on ``compute``, a launch in
``main``) stays in the accepted language and lowers to the very same
kernel; these tests hold it to that over every generator's stream.
"""

import pytest

from repro.difftest.record import ComparisonRecord, ProgramOutcome
from repro.errors import ReproError
from repro.experiments.approaches import ALL_APPROACHES, make_generator
from repro.frontend.parser import parse_program
from repro.frontend.printer import print_c
from repro.frontend.sema import check_program
from repro.generation.program import observe_outcome
from repro.ir.lower import lower_compute
from repro.toolchains import OptLevel
from repro.toolchains.cuda import translate_to_cuda
from repro.utils.rng import SplittableRng

PROGRAMS_PER_STREAM = 12


def _triggered(program, index):
    """A triggered verdict, so feedback generators mutate their successes."""
    return ProgramOutcome(
        index=index,
        program=program,
        triggered=True,
        compiled={"gcc/O3": True, "nvcc/O3": True},
        ran={"gcc/O3": True, "nvcc/O3": True},
        signatures={"gcc/O3": "a", "nvcc/O3": "b"},
        values={"gcc/O3": 1.0, "nvcc/O3": 2.0},
        comparisons=[
            ComparisonRecord(
                index, "gcc", "nvcc", OptLevel.O3, False,
                value_a=1.0, value_b=2.0, digit_diff=13,
            )
        ],
    )


def _units(approach, seed):
    """Front-ended units of one generator stream (rejected programs skipped)."""
    generator = make_generator(approach, SplittableRng(seed, f"cuda-identity-{approach}"))
    units = []
    for index in range(PROGRAMS_PER_STREAM):
        program = generator.generate()
        observe_outcome(generator, _triggered(program, index))
        try:
            unit = parse_program(program.source)
            host = lower_compute(check_program(unit))
        except ReproError:
            continue
        units.append((unit, host))
    assert units, f"{approach} seed {seed} produced no valid program"
    return units


STREAMS = [(approach, seed) for approach in ALL_APPROACHES for seed in (1, 42, 2025)]


@pytest.mark.parametrize("approach, seed", STREAMS)
def test_device_kernel_is_the_host_kernel(approach, seed):
    for unit, host in _units(approach, seed):
        device = lower_compute(check_program(translate_to_cuda(unit)))
        assert repr(device) == repr(host)


@pytest.mark.parametrize("approach, seed", STREAMS)
def test_printing_and_reparsing_is_a_fixed_point(approach, seed):
    for unit, _ in _units(approach, seed):
        text = print_c(unit)
        reparsed = parse_program(text)
        assert reparsed == unit
        assert print_c(reparsed) == text
