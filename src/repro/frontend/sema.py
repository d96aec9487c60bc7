"""Semantic analysis: name resolution, type checking, and a UB lint.

The paper's prompts instruct the LLM to restrict library usage to
``stdio.h``/``stdlib.h``/``math.h``, initialize all variables, and avoid
undefined behaviour (§2.3.1); programs that violate the guidelines fail to
compile or are discarded.  This checker is where those rules become
machine-checkable: unknown functions/headers are rejected (a stand-in for
link failures), scalar reads are proven definitely-assigned, and static
array-bound violations are errors.  What cannot be proven statically
(uninitialized array elements, dynamic out-of-bounds indices) is trapped by
the interpreter at run time and the program is discarded by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SemaError
from repro.frontend import ast
from repro.frontend.ctypes import DOUBLE, INT, CType, common_arith_type
from repro.fp.mathlib import MATH_FUNCTIONS

__all__ = ["SemaOptions", "SemaResult", "Symbol", "SemanticChecker", "check_program"]

ALLOWED_HEADERS = frozenset({"stdio.h", "stdlib.h", "math.h", "cuda_runtime.h"})

#: stdlib/stdio functions callable from `main` only.
MAIN_ONLY_FUNCTIONS = {"atof": DOUBLE, "atoi": INT}


@dataclass(frozen=True)
class Symbol:
    """A declared variable (parameter or local)."""

    name: str
    type: CType
    is_param: bool = False

    @property
    def uid(self) -> int:
        return id(self)


@dataclass
class SemaOptions:
    """Tunable strictness knobs for the checker."""

    max_array_size: int = 4096
    require_compute: bool = True
    allowed_headers: frozenset[str] = ALLOWED_HEADERS
    max_params: int = 16


@dataclass
class SemaResult:
    """Side tables produced by a successful check.

    ``types`` maps ``id(expr-node)`` to its C type; ``symbols`` maps
    ``id(Ident-node)`` to its resolved :class:`Symbol`.  Keeping them
    out-of-band leaves the AST immutable and shareable across pipelines.
    """

    unit: ast.TranslationUnit
    types: dict[int, CType] = field(default_factory=dict)
    symbols: dict[int, Symbol] = field(default_factory=dict)

    def type_of(self, expr: ast.Expr) -> CType:
        return self.types[id(expr)]

    def symbol_of(self, ident: ast.Ident) -> Symbol:
        return self.symbols[id(ident)]


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.names: dict[str, Symbol] = {}

    def declare(self, sym: Symbol) -> None:
        if sym.name in self.names:
            raise SemaError(f"redeclaration of {sym.name!r} in the same scope")
        self.names[sym.name] = sym

    def lookup(self, name: str) -> Symbol | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class SemanticChecker:
    """Checks one translation unit; produces a :class:`SemaResult`."""

    def __init__(self, unit: ast.TranslationUnit, options: SemaOptions | None = None) -> None:
        self.unit = unit
        self.options = options or SemaOptions()
        self.result = SemaResult(unit)
        self._in_main = False

    # -- entry point -----------------------------------------------------------

    def check(self) -> SemaResult:
        self._check_includes()
        names = [f.name for f in self.unit.functions]
        if len(set(names)) != len(names):
            raise SemaError("duplicate function definitions")
        if self.options.require_compute:
            if "compute" not in names:
                raise SemaError("program must define a `compute` function")
            if "main" not in names:
                raise SemaError("program must define a `main` function")
            extra = set(names) - {"compute", "main"}
            if extra:
                raise SemaError(
                    f"only `compute` and `main` are allowed, found {sorted(extra)}"
                )
        for fn in self.unit.functions:
            self._check_function(fn)
        return self.result

    def _check_includes(self) -> None:
        for header in self.unit.includes:
            if header not in self.options.allowed_headers:
                raise SemaError(f"header {header!r} is not on the allow-list")

    # -- functions ----------------------------------------------------------------

    def _check_function(self, fn: ast.FunctionDef) -> None:
        self._in_main = fn.name == "main"
        if fn.name == "compute":
            if not fn.params:
                raise SemaError("`compute` must take at least one parameter")
            if len(fn.params) > self.options.max_params:
                raise SemaError(
                    f"`compute` has {len(fn.params)} parameters "
                    f"(max {self.options.max_params})"
                )
            for p in fn.params:
                ok = p.type.is_scalar and p.type.base in ("int", "float", "double")
                ok = ok or (p.type.pointers == 1 and p.type.base in ("float", "double"))
                if not ok:
                    raise SemaError(
                        f"`compute` parameter {p.name!r} has unsupported type {p.type}"
                    )
        scope = _Scope()
        assigned: set[int] = set()
        for p in fn.params:
            sym = Symbol(p.name, p.type, is_param=True)
            scope.declare(sym)
            assigned.add(sym.uid)
        if self._in_main:
            # argc/argv are conventionally available even if unlisted.
            for name, ctype in (("argc", INT), ("argv", CType("char", 2))):
                if scope.lookup(name) is None:
                    sym = Symbol(name, ctype, is_param=True)
                    scope.declare(sym)
                    assigned.add(sym.uid)
        self._check_block(fn.body, scope, assigned)

    # -- statements ------------------------------------------------------------------
    #
    # Each checker takes and mutates `assigned`, the set of Symbol uids that
    # are definitely assigned when control reaches the next statement.

    def _check_block(self, block: ast.Block, scope: _Scope, assigned: set[int]) -> None:
        inner = _Scope(scope)
        for stmt in block.stmts:
            self._check_stmt(stmt, inner, assigned)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope, assigned: set[int]) -> None:
        if isinstance(stmt, ast.Decl):
            self._check_decl(stmt, scope, assigned)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope, assigned)
        elif isinstance(stmt, ast.IncDec):
            self._check_expr(stmt.target, scope, assigned)
            t = self.result.type_of(stmt.target)
            if not t.is_scalar:
                raise SemaError("++/-- requires a scalar target")
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope, assigned)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt, scope, assigned)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope, assigned)
            then_state = set(assigned)
            self._check_block(stmt.then, scope, then_state)
            if stmt.other is not None:
                else_state = set(assigned)
                self._check_block(stmt.other, scope, else_state)
                assigned |= then_state & else_state
            # without else: nothing new is definitely assigned
        elif isinstance(stmt, ast.For):
            loop_scope = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, loop_scope, assigned)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, loop_scope, assigned)
            # The body may execute zero times: check it against a copy.
            body_state = set(assigned)
            self._check_block(stmt.body, loop_scope, body_state)
            if stmt.step is not None:
                self._check_stmt(stmt.step, loop_scope, body_state)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond, scope, assigned)
            body_state = set(assigned)
            self._check_block(stmt.body, scope, body_state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, scope, assigned)
        else:  # pragma: no cover - exhaustive over Stmt union
            raise SemaError(f"unsupported statement {type(stmt).__name__}")

    def _check_decl(self, decl: ast.Decl, scope: _Scope, assigned: set[int]) -> None:
        if decl.base.base == "void":
            raise SemaError("cannot declare a void variable")
        for d in decl.declarators:
            if d.array_size is not None:
                if d.array_size > self.options.max_array_size:
                    raise SemaError(
                        f"array {d.name!r} of size {d.array_size} exceeds limit "
                        f"{self.options.max_array_size}"
                    )
                if decl.base.pointers:
                    raise SemaError("arrays of pointers are not supported")
                ctype = CType(decl.base.base, 0, d.array_size)
            else:
                ctype = decl.base
            sym = Symbol(d.name, ctype)
            if d.init is not None:
                if d.array_size is not None:
                    raise SemaError(f"array {d.name!r} needs a brace initializer")
                self._check_expr(d.init, scope, assigned)
                self._require_scalar(d.init, f"initializer of {d.name!r}")
            if d.array_init is not None:
                if d.array_size is None:
                    raise SemaError(f"brace initializer on scalar {d.name!r}")
                if len(d.array_init) > d.array_size:
                    raise SemaError(f"too many initializers for {d.name!r}")
                for e in d.array_init:
                    self._check_expr(e, scope, assigned)
                    self._require_scalar(e, f"initializer of {d.name!r}")
            scope.declare(sym)
            if d.init is not None or d.array_init is not None:
                assigned.add(sym.uid)
            elif ctype.array_size is not None:
                # Arrays without initializers are tracked at run time; an
                # uninitialized *element* read traps in the interpreter.
                assigned.add(sym.uid)

    def _check_assign(self, stmt: ast.Assign, scope: _Scope, assigned: set[int]) -> None:
        self._check_expr(stmt.value, scope, assigned)
        self._require_scalar(stmt.value, "assigned value")
        if isinstance(stmt.target, ast.Ident):
            sym = scope.lookup(stmt.target.name)
            if sym is None:
                raise SemaError(f"assignment to undeclared variable {stmt.target.name!r}")
            if not sym.type.is_scalar:
                raise SemaError(f"cannot assign whole array/pointer {sym.name!r}")
            self.result.symbols[id(stmt.target)] = sym
            self.result.types[id(stmt.target)] = sym.type
            if stmt.op != "=" and sym.uid not in assigned:
                raise SemaError(
                    f"compound assignment reads {sym.name!r} before initialization"
                )
            assigned.add(sym.uid)
        elif isinstance(stmt.target, ast.Index):
            self._check_expr(stmt.target, scope, assigned, store=True)
        else:  # pragma: no cover - parser guarantees lvalue shape
            raise SemaError("invalid assignment target")

    # -- expressions -------------------------------------------------------------------

    def _set_type(self, expr: ast.Expr, ctype: CType) -> CType:
        self.result.types[id(expr)] = ctype
        return ctype

    def _require_scalar(self, expr: ast.Expr, what: str) -> None:
        if not self.result.type_of(expr).is_scalar:
            raise SemaError(f"{what} must be scalar, got {self.result.type_of(expr)}")

    def _check_expr(
        self, expr: ast.Expr, scope: _Scope, assigned: set[int], store: bool = False
    ) -> CType:
        if isinstance(expr, ast.IntLit):
            return self._set_type(expr, INT)
        if isinstance(expr, ast.FloatLit):
            return self._set_type(expr, CType("float") if expr.is_single else DOUBLE)
        if isinstance(expr, ast.StrLit):
            return self._set_type(expr, CType("char", 1))
        if isinstance(expr, ast.Ident):
            sym = scope.lookup(expr.name)
            if sym is None:
                raise SemaError(f"use of undeclared identifier {expr.name!r}")
            self.result.symbols[id(expr)] = sym
            if sym.type.is_scalar and sym.uid not in assigned:
                raise SemaError(f"variable {expr.name!r} may be used uninitialized")
            return self._set_type(expr, sym.type)
        if isinstance(expr, ast.Unary):
            t = self._check_expr(expr.operand, scope, assigned)
            if not t.is_scalar:
                raise SemaError(f"unary {expr.op!r} requires a scalar operand")
            if expr.op == "!":
                return self._set_type(expr, INT)
            return self._set_type(expr, t)
        if isinstance(expr, ast.Binary):
            lt = self._check_expr(expr.left, scope, assigned)
            rt = self._check_expr(expr.right, scope, assigned)
            if expr.op in ("&&", "||", "==", "!=", "<", "<=", ">", ">="):
                if not (lt.is_scalar and rt.is_scalar):
                    raise SemaError(f"operator {expr.op!r} requires scalar operands")
                return self._set_type(expr, INT)
            if expr.op == "%":
                if not (lt.is_int and rt.is_int):
                    raise SemaError("operator % requires integer operands")
                if isinstance(expr.right, ast.IntLit) and expr.right.value == 0:
                    raise SemaError("modulo by constant zero")
                return self._set_type(expr, INT)
            if expr.op in ("+", "-", "*", "/"):
                if not (lt.is_scalar and rt.is_scalar):
                    raise SemaError(f"operator {expr.op!r} requires scalar operands")
                if expr.op == "/" and isinstance(expr.right, ast.IntLit) and (
                    expr.right.value == 0 and lt.is_int and rt.is_int
                ):
                    raise SemaError("integer division by constant zero")
                return self._set_type(expr, common_arith_type(lt, rt))
            raise SemaError(f"unsupported binary operator {expr.op!r}")
        if isinstance(expr, ast.Ternary):
            self._check_expr(expr.cond, scope, assigned)
            self._require_scalar(expr.cond, "ternary condition")
            tt = self._check_expr(expr.then, scope, assigned)
            ot = self._check_expr(expr.other, scope, assigned)
            self._require_scalar(expr.then, "ternary operand")
            self._require_scalar(expr.other, "ternary operand")
            return self._set_type(expr, common_arith_type(tt, ot))
        if isinstance(expr, ast.Index):
            base_t = self._check_expr(expr.base, scope, assigned)
            if not base_t.is_indexable:
                raise SemaError(f"cannot index a value of type {base_t}")
            idx_t = self._check_expr(expr.index, scope, assigned)
            if not idx_t.is_int:
                raise SemaError("array index must be an integer")
            if (
                isinstance(expr.index, ast.IntLit)
                and base_t.array_size is not None
                and not 0 <= expr.index.value < base_t.array_size
            ):
                raise SemaError(
                    f"constant index {expr.index.value} out of bounds "
                    f"for array of size {base_t.array_size}"
                )
            return self._set_type(expr, base_t.element)
        if isinstance(expr, ast.Cast):
            t = self._check_expr(expr.operand, scope, assigned)
            if not (t.is_scalar and expr.type.is_scalar):
                raise SemaError("casts are supported between scalar types only")
            return self._set_type(expr, expr.type)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope, assigned)
        raise SemaError(f"unsupported expression {type(expr).__name__}")

    def _check_call(self, expr: ast.Call, scope: _Scope, assigned: set[int]) -> CType:
        name = expr.name
        if name == "printf":
            if not expr.args or not isinstance(expr.args[0], ast.StrLit):
                raise SemaError("printf requires a literal format string")
            self._set_type(expr.args[0], CType("char", 1))
            for a in expr.args[1:]:
                self._check_expr(a, scope, assigned)
                self._require_scalar(a, "printf argument")
            return self._set_type(expr, INT)
        if name in MAIN_ONLY_FUNCTIONS:
            if not self._in_main:
                raise SemaError(f"{name} may only be called from main")
            for a in expr.args:
                self._check_expr(a, scope, assigned)
            return self._set_type(expr, MAIN_ONLY_FUNCTIONS[name])
        if name == "compute":
            if not self._in_main:
                raise SemaError("compute cannot call itself")
            target = self.unit.function("compute")
            if len(expr.args) != len(target.params):
                raise SemaError(
                    f"compute called with {len(expr.args)} args, "
                    f"expects {len(target.params)}"
                )
            for a in expr.args:
                self._check_expr(a, scope, assigned)
            return self._set_type(expr, target.return_type)
        spec = MATH_FUNCTIONS.get(name)
        if spec is not None:
            if len(expr.args) != spec.arity:
                raise SemaError(
                    f"{name} expects {spec.arity} argument(s), got {len(expr.args)}"
                )
            for a in expr.args:
                self._check_expr(a, scope, assigned)
                self._require_scalar(a, f"argument of {name}")
            return self._set_type(expr, DOUBLE)
        raise SemaError(f"call to unknown function {name!r}")


def check_program(
    unit: ast.TranslationUnit, options: SemaOptions | None = None
) -> SemaResult:
    """Run semantic analysis; raises :class:`SemaError` on the first issue."""
    return SemanticChecker(unit, options).check()
