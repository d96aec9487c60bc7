"""Semantic checks: typing, definite assignment, UB lint, allow-lists."""

import pytest

from repro.errors import SemaError
from repro.frontend.ctypes import DOUBLE
from repro.frontend.parser import parse_program
from repro.frontend.sema import SemaOptions, check_program


def check(src, **opts):
    return check_program(parse_program(src), SemaOptions(**opts) if opts else None)


GOOD = """
#include <stdio.h>
#include <math.h>
void compute(double a, double b, int n) {
  double comp = 0.0;
  double buf[4] = {0.0, 0.0, 0.0, 0.0};
  for (int i = 0; i < n; ++i) {
    buf[0] = a * b + comp;
    comp += sin(buf[0]) / (b * b + 1.0);
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""


class TestStructure:
    def test_good_program_passes(self):
        res = check(GOOD)
        assert res.unit.function("compute")

    def test_missing_compute(self):
        with pytest.raises(SemaError, match="compute"):
            check("int main() { return 0; }")

    def test_missing_main(self):
        with pytest.raises(SemaError, match="main"):
            check("void compute(double a) { double c = a; }")

    def test_extra_function_rejected(self):
        src = (
            "void helper() { return; }"
            "void compute(double a) { double c = a; }"
            "int main() { compute(1.0); return 0; }"
        )
        with pytest.raises(SemaError, match="only"):
            check(src)

    def test_duplicate_functions(self):
        src = (
            "void compute(double a) { double c = a; }"
            "void compute(double b) { double c = b; }"
            "int main() { compute(1.0); return 0; }"
        )
        with pytest.raises(SemaError, match="duplicate"):
            check(src)

    def test_header_allowlist(self):
        with pytest.raises(SemaError, match="allow-list"):
            check(
                "#include <string.h>\n"
                "void compute(double a) { double c = a; }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_compute_needs_params(self):
        with pytest.raises(SemaError, match="parameter"):
            check(
                "void compute() { double c = 1.0; }"
                "int main() { compute(); return 0; }"
            )

    def test_param_count_limit(self):
        params = ", ".join(f"double p{i}" for i in range(20))
        with pytest.raises(SemaError, match="max"):
            check(
                f"void compute({params}) {{ double c = p0; }}"
                "int main() { compute("
                + ", ".join(["1.0"] * 20)
                + "); return 0; }"
            )


class TestTyping:
    def test_types_recorded(self):
        res = check(GOOD)
        compute = res.unit.function("compute")
        decl = compute.body.stmts[0]
        assert res.type_of(decl.declarators[0].init) == DOUBLE

    def test_modulo_requires_ints(self):
        with pytest.raises(SemaError, match="%"):
            check(
                "void compute(double a) { double c = a % 2.0; }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_comparison_yields_int(self):
        src = (
            "void compute(double a) { int flag = a > 0.0; double c = flag + 1.0; }"
            "int main() { compute(1.0); return 0; }"
        )
        check(src)

    def test_index_requires_int(self):
        with pytest.raises(SemaError, match="index"):
            check(
                "void compute(double *a) { double c = a[1.5]; }"
                "int main() { double d[2] = {1.0, 2.0}; compute(d); return 0; }"
            )

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("b + a", r"operator '\+' requires scalar operands"),
            ("a * b", r"operator '\*' requires scalar operands"),
            ("a > 0.0 ? b : a", "ternary operand must be scalar, got double\\[5\\]"),
            ("a > 0.0 ? a : b", "ternary operand must be scalar, got double\\[5\\]"),
            ("a[0]", "cannot index a value of type double"),
        ],
    )
    def test_non_scalar_operands_are_sema_errors(self, expr, message):
        # a SemaError, not a TypeError from the type helpers: generators
        # and the mutator discard candidates on ReproError only
        with pytest.raises(SemaError, match=message):
            check(
                "void compute(double a) { double b[5] = {0.0, 0.0, 0.0, 0.0, 0.0};"
                f" double c = {expr}; }}"
                "int main() { compute(1.0); return 0; }"
            )

    def test_static_oob_rejected(self):
        with pytest.raises(SemaError, match="out of bounds"):
            check(
                "void compute(double a) { double b[2] = {0.0, 0.0}; double c = b[5]; }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_unknown_function(self):
        with pytest.raises(SemaError, match="unknown function"):
            check(
                "void compute(double a) { double c = mystery(a); }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_math_arity_enforced(self):
        with pytest.raises(SemaError, match="pow"):
            check(
                "void compute(double a) { double c = pow(a); }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_atof_only_in_main(self):
        with pytest.raises(SemaError, match="atof"):
            check(
                "void compute(double a) { double c = atof(\"1.0\"); }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_compute_cannot_recurse(self):
        with pytest.raises(SemaError):
            check(
                "void compute(double a) { compute(a); }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_compute_call_arity(self):
        with pytest.raises(SemaError, match="args"):
            check(
                "void compute(double a, double b) { double c = a + b; }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_printf_needs_format(self):
        with pytest.raises(SemaError, match="printf"):
            check(
                "void compute(double a) { printf(a); }"
                "int main() { compute(1.0); return 0; }"
            )


class TestDefiniteAssignment:
    def _compute(self, body):
        return (
            f"void compute(double a, double b, int n) {{ {body} }}"
            "int main() { compute(1.0, 2.0, 3); return 0; }"
        )

    def test_use_before_init_rejected(self):
        with pytest.raises(SemaError, match="uninitialized"):
            check(self._compute("double x; double y = x + 1.0;"))

    def test_assignment_initializes(self):
        check(self._compute("double x; x = a; double y = x + 1.0;"))

    def test_if_both_branches_ok(self):
        check(
            self._compute(
                "double x; if (a > 0.0) { x = 1.0; } else { x = 2.0; }"
                " double y = x;"
            )
        )

    def test_if_single_branch_insufficient(self):
        with pytest.raises(SemaError, match="uninitialized"):
            check(
                self._compute("double x; if (a > 0.0) { x = 1.0; } double y = x;")
            )

    def test_loop_body_not_definite(self):
        with pytest.raises(SemaError, match="uninitialized"):
            check(
                self._compute(
                    "double x; for (int i = 0; i < n; ++i) { x = a; } double y = x;"
                )
            )

    def test_read_inside_loop_after_assign_ok(self):
        check(
            self._compute(
                "double acc = 0.0;"
                " for (int i = 0; i < n; ++i) { double t = a * i; acc += t; }"
            )
        )

    def test_compound_assign_requires_init(self):
        with pytest.raises(SemaError, match="before initialization"):
            check(self._compute("double x; x += 1.0;"))

    def test_params_are_assigned(self):
        check(self._compute("double y = a + b + n;"))

    def test_shadowing_in_nested_scope(self):
        check(self._compute("double x = 1.0; { double x = 2.0; double y = x; }"))

    def test_same_scope_redeclaration_rejected(self):
        with pytest.raises(SemaError, match="redeclaration"):
            check(self._compute("double x = 1.0; double x = 2.0;"))

    def test_undeclared_use(self):
        with pytest.raises(SemaError, match="undeclared"):
            check(self._compute("double y = ghost;"))

    def test_undeclared_assign(self):
        with pytest.raises(SemaError, match="undeclared"):
            check(self._compute("ghost = 1.0;"))


class TestLimits:
    def test_array_size_limit(self):
        with pytest.raises(SemaError, match="exceeds limit"):
            check(
                "void compute(double a) { double big[100000]; double c = a; }"
                "int main() { compute(1.0); return 0; }"
            )

    def test_modulo_by_zero_literal(self):
        with pytest.raises(SemaError, match="zero"):
            check(
                "void compute(int n) { int x = n % 0; double c = x; }"
                "int main() { compute(3); return 0; }"
            )

    def test_int_div_by_zero_literal(self):
        with pytest.raises(SemaError, match="zero"):
            check(
                "void compute(int n) { int x = n / 0; double c = x; }"
                "int main() { compute(3); return 0; }"
            )
