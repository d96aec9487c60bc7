"""The mutation operators added for the feedback loop's RQ1 behaviour:
trigger-enriching insertions, pattern grafting, seed thinning, statement
reordering, update dropping, and the never-identical guarantee."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.fp.formats import Precision
from repro.generation.llm.base import GenerationConfig, SuccessSet
from repro.generation.llm.mutator import (
    Mutator,
    _fp_scalars,
    _insert_random,
    _stmt_names,
    _swappable,
    _synthesize_snippet,
    _token_stream,
)
from repro.utils.rng import SplittableRng

EXAMPLE = """
#include <stdio.h>
#include <stdlib.h>
#include <math.h>

void compute(double x, double y, int n) {
  double comp = x * 0.5;
  double t = sin(x) * cos(y);
  comp += t;
  for (int i = 0; i < n; ++i) {
    comp += tanh(x + i) / (fabs(y) + 1.5);
  }
  printf("%.17g\\n", comp);
}

int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""


def mutate(seed: int):
    m = Mutator(GenerationConfig())
    return m.mutate(SplittableRng(seed), EXAMPLE, Precision.DOUBLE)


class TestMutateContract:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_valid_and_different(self, seed):
        out = mutate(seed)
        if out is None:
            return  # mutation may fail; the SimLLM falls back to grammar
        source, applied = out
        # Valid program...
        check_program(parse_program(source))
        # ...that is never token-identical to its seed.
        assert _token_stream(source) != _token_stream(EXAMPLE)
        assert applied

    def test_strategies_recorded_from_prompt_list(self):
        known = {
            "change-constants", "swap-math-functions", "nest-arithmetic",
            "add-loop", "add-conditional", "insert-intermediate",
            "insert-transcendental", "insert-fma-chain", "insert-guarded-div",
            "graft-pattern", "reorder-statements", "drop-update",
            "rename-locals", "thin-seed",
        }
        for seed in range(20):
            out = mutate(seed)
            if out is None:
                continue
            _, applied = out
            assert set(applied) <= known, applied

    def test_keeps_high_level_structure(self):
        for seed in range(10):
            out = mutate(seed)
            if out is None:
                continue
            unit = parse_program(out[0])
            names = [f.name for f in unit.functions]
            assert names == ["compute", "main"]
            compute = unit.function("compute")
            # Parameter list is preserved (§2.3.2: structure is kept).
            assert [p.name for p in compute.params] == ["x", "y", "n"]

    def test_mutants_differ_across_seeds(self):
        outs = {mutate(seed)[0] for seed in range(6) if mutate(seed)}
        assert len(outs) >= 5


class TestScalarPool:
    def test_fp_scalars_params_and_comp(self):
        unit = parse_program(EXAMPLE)
        assert _fp_scalars(unit) == ("x", "y", "comp")

    def test_fp_scalars_no_compute(self):
        unit = parse_program("int main() { return 0; }")
        assert _fp_scalars(unit) == ("comp",)


class TestSnippetSynthesis:
    def test_snippet_parses_and_accumulates(self):
        stmts = _synthesize_snippet(
            SplittableRng(3), ("x", "y"), Precision.DOUBLE
        )
        assert stmts
        # Grafts must read or write comp so they affect the output.
        text = " ".join(str(s) for s in stmts)
        assert "comp" in text

    def test_snippet_prefix_isolates_names(self):
        a = _synthesize_snippet(SplittableRng(3), ("x",), Precision.DOUBLE, "g0")
        b = _synthesize_snippet(SplittableRng(3), ("x",), Precision.DOUBLE, "g1")
        names_a = {d.name for s in a if isinstance(s, ast.Decl) for d in s.declarators}
        names_b = {d.name for s in b if isinstance(s, ast.Decl) for d in s.declarators}
        assert not names_a & names_b or not names_a

    def test_snippet_single_precision(self):
        stmts = _synthesize_snippet(SplittableRng(9), ("x",), Precision.SINGLE)
        decls = [s for s in stmts if isinstance(s, ast.Decl)]
        assert all(d.base.base == "float" for d in decls) or not decls


class TestInsertRandom:
    def test_insert_before_print(self):
        unit = parse_program(EXAMPLE)
        block = unit.function("compute").body
        marker = ast.Assign(ast.Ident("comp"), "+=", ast.FloatLit(9.5))
        for seed in range(10):
            out = _insert_random(SplittableRng(seed), block, [marker])
            stmts = list(out.stmts)
            at = stmts.index(marker)
            # Never first (comp's declaration), never after the print.
            assert 1 <= at < len(stmts)
            assert isinstance(stmts[-1], ast.ExprStmt)


class TestSwappable:
    def _stmts(self, src):
        return parse_program(
            "void compute(double a) {" + src + "} int main() { return 0; }"
        ).function("compute").body.stmts

    def test_decl_use_dependency_blocks_swap(self):
        s = self._stmts("double t = a; double u = t + 1.0;")
        assert not _swappable(s[0], s[1])

    def test_independent_decls_swap(self):
        s = self._stmts("double t = a; double u = a * 2.0;")
        assert _swappable(s[0], s[1])

    def test_stmt_names_sees_loop_decl(self):
        s = self._stmts("for (int i = 0; i < 4; ++i) { a += i; }")
        declared, used = _stmt_names(s[0])
        assert "i" in declared and "a" in used


class TestRecencyBias:
    def test_recent_seeds_sampled_more(self):
        s = SuccessSet(SplittableRng(42))
        for i in range(20):
            s.add(f"prog-{i}")
        draws = [s.sample() for _ in range(400)]
        early = sum(1 for d in draws if int(d.split("-")[1]) < 10)
        late = sum(1 for d in draws if int(d.split("-")[1]) >= 10)
        assert late > early

    def test_single_item(self):
        s = SuccessSet(SplittableRng(1))
        s.add("only")
        assert s.sample() == "only"

    def test_empty_raises(self):
        with pytest.raises(LookupError):
            SuccessSet(SplittableRng(1)).sample()


class TestCampaignRegressions:
    def test_array_operand_mutation_does_not_abort_the_campaign(self, tmp_path):
        # Program 10 of this campaign is mutated into an expression that
        # combines a double[5] with a double.  Sema must reject it with a
        # SemaError, which the mutator catches, instead of a TypeError
        # that ended the whole campaign.
        from repro.cli import main

        path = tmp_path / "llm4fp.jsonl"
        argv = ["run", "--approach", "llm4fp", "--seed", "11004", "--budget", "11"]
        assert main([*argv, "--backend", "serial", "--quiet", "--resume", str(path)]) == 0
        assert len(path.read_text().splitlines()) == 1 + 11
