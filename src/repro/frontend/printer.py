"""Pretty-printers: AST back to C source, and the C→CUDA translation.

The CUDA translation follows the paper (§2.4): the ``compute`` function
becomes a ``__global__`` kernel launched from ``main`` with a single block
and a single thread; everything else is untouched.
"""

from __future__ import annotations

from repro.frontend import ast
from repro.frontend.ctypes import CType

__all__ = ["print_c", "print_cuda", "expr_to_c"]

_PREC = {
    "?:": 1,
    "||": 2,
    "&&": 3,
    "==": 4,
    "!=": 4,
    "<": 5,
    "<=": 5,
    ">": 5,
    ">=": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "%": 7,
}
_UNARY_PREC = 8
_POSTFIX_PREC = 9
_ATOM_PREC = 10


def _float_text(lit: ast.FloatLit) -> str:
    if lit.text:
        return lit.text
    s = repr(lit.value)
    if "e" not in s and "." not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s + ("f" if lit.is_single else "")


def _expr(e: ast.Expr) -> tuple[str, int]:
    """Render an expression, returning (text, precedence-of-root)."""
    if isinstance(e, ast.IntLit):
        return (e.text or str(e.value)), _ATOM_PREC
    if isinstance(e, ast.FloatLit):
        return _float_text(e), _ATOM_PREC
    if isinstance(e, ast.StrLit):
        return f'"{e.value}"', _ATOM_PREC
    if isinstance(e, ast.Ident):
        return e.name, _ATOM_PREC
    if isinstance(e, ast.Unary):
        inner, prec = _expr(e.operand)
        if prec < _UNARY_PREC:
            inner = f"({inner})"
        return f"{e.op}{inner}", _UNARY_PREC
    if isinstance(e, ast.Binary):
        prec = _PREC[e.op]
        lt, lp = _expr(e.left)
        rt, rp = _expr(e.right)
        if lp < prec:
            lt = f"({lt})"
        # Right operand needs parens at equal precedence (left-assoc ops);
        # keeping them also preserves the tree through a reparse, which the
        # differential pipeline relies on (association *is* the experiment).
        if rp <= prec:
            rt = f"({rt})"
        return f"{lt} {e.op} {rt}", prec
    if isinstance(e, ast.Ternary):
        ct, cp = _expr(e.cond)
        tt, _ = _expr(e.then)
        ot, op_ = _expr(e.other)
        if cp <= _PREC["?:"]:
            ct = f"({ct})"
        if op_ < _PREC["?:"]:
            ot = f"({ot})"
        return f"{ct} ? {tt} : {ot}", _PREC["?:"]
    if isinstance(e, ast.Call):
        args = ", ".join(_expr(a)[0] for a in e.args)
        return f"{e.name}({args})", _POSTFIX_PREC
    if isinstance(e, ast.Index):
        bt, bp = _expr(e.base)
        if bp < _POSTFIX_PREC:
            bt = f"({bt})"
        return f"{bt}[{_expr(e.index)[0]}]", _POSTFIX_PREC
    if isinstance(e, ast.Cast):
        inner, prec = _expr(e.operand)
        if prec < _UNARY_PREC:
            inner = f"({inner})"
        return f"({e.type}){inner}", _UNARY_PREC
    raise TypeError(f"cannot print expression {type(e).__name__}")


def expr_to_c(e: ast.Expr) -> str:
    """Render a single expression as C text."""
    return _expr(e)[0]


def _type_and_name(base: CType, d: ast.Declarator) -> str:
    stars = "*" * base.pointers
    if d.array_size is not None:
        return f"{base.base} {stars}{d.name}[{d.array_size}]"
    return f"{base.base} {stars}{d.name}"


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Decl):
            parts = []
            for d in s.declarators:
                txt = _type_and_name(s.base, d) if not parts else (
                    _strip_type(_type_and_name(s.base, d))
                )
                if d.init is not None:
                    txt += f" = {expr_to_c(d.init)}"
                if d.array_init is not None:
                    txt += " = {" + ", ".join(expr_to_c(e) for e in d.array_init) + "}"
                parts.append(txt)
            self.emit(", ".join(parts) + ";")
        elif isinstance(s, ast.Assign):
            self.emit(f"{expr_to_c(s.target)} {s.op} {expr_to_c(s.value)};")
        elif isinstance(s, ast.IncDec):
            self.emit(f"{expr_to_c(s.target)}{s.op};")
        elif isinstance(s, ast.ExprStmt):
            self.emit(f"{expr_to_c(s.expr)};")
        elif isinstance(s, ast.Block):
            self.emit("{")
            self.depth += 1
            for inner in s.stmts:
                self.stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.If):
            self.emit(f"if ({expr_to_c(s.cond)}) {{")
            self.depth += 1
            for inner in s.then.stmts:
                self.stmt(inner)
            self.depth -= 1
            if s.other is not None:
                self.emit("} else {")
                self.depth += 1
                for inner in s.other.stmts:
                    self.stmt(inner)
                self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.For):
            init = self._inline_stmt(s.init) if s.init is not None else ""
            cond = expr_to_c(s.cond) if s.cond is not None else ""
            step = self._inline_stmt(s.step) if s.step is not None else ""
            self.emit(f"for ({init}; {cond}; {step}) {{")
            self.depth += 1
            for inner in s.body.stmts:
                self.stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.While):
            self.emit(f"while ({expr_to_c(s.cond)}) {{")
            self.depth += 1
            for inner in s.body.stmts:
                self.stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.Return):
            if s.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {expr_to_c(s.value)};")
        else:  # pragma: no cover
            raise TypeError(f"cannot print statement {type(s).__name__}")

    def _inline_stmt(self, s: ast.Stmt) -> str:
        if isinstance(s, ast.Decl):
            d = s.declarators[0]
            txt = _type_and_name(s.base, d)
            if d.init is not None:
                txt += f" = {expr_to_c(d.init)}"
            return txt
        if isinstance(s, ast.Assign):
            return f"{expr_to_c(s.target)} {s.op} {expr_to_c(s.value)}"
        if isinstance(s, ast.IncDec):
            return f"{expr_to_c(s.target)}{s.op}"
        raise TypeError(f"cannot inline statement {type(s).__name__}")


def _strip_type(decl_text: str) -> str:
    """Drop the leading base type from a declarator rendering (2nd+ item)."""
    return decl_text.split(" ", 1)[1]


def _signature(fn: ast.FunctionDef, qualifier: str = "") -> str:
    params = ", ".join(
        f"{p.type.base} {'*' * p.type.pointers}{p.name}" for p in fn.params
    )
    q = qualifier or fn.qualifier or ""
    if q:
        q += " "
    return f"{q}{fn.return_type} {fn.name}({params}) {{"


def print_c(unit: ast.TranslationUnit) -> str:
    """Render a translation unit as compilable C."""
    w = _Writer()
    for h in unit.includes:
        w.emit(f"#include <{h}>")
    for fn in unit.functions:
        w.emit("")
        w.emit(_signature(fn))
        w.depth += 1
        for s in fn.body.stmts:
            w.stmt(s)
        w.depth -= 1
        w.emit("}")
    return "\n".join(w.lines) + "\n"


def print_cuda(unit: ast.TranslationUnit) -> str:
    """Render the CUDA translation of a host program (§2.4).

    ``compute`` becomes ``__global__ void`` and the call site in ``main``
    becomes a single-block single-thread kernel launch,
    ``compute<<<1,1>>>(...)``.  Nothing else changes: no device
    synchronize is emitted.
    """
    w = _Writer()
    for h in unit.includes:
        w.emit(f"#include <{h}>")
    for fn in unit.functions:
        w.emit("")
        if fn.name == "compute":
            w.emit(_signature(fn, qualifier="__global__"))
        else:
            w.emit(_signature(fn))
        w.depth += 1
        for s in fn.body.stmts:
            if fn.name == "main":
                s = _rewrite_launch(s)
            w.stmt(s)
        w.depth -= 1
        w.emit("}")
    return "\n".join(w.lines) + "\n"


def _rewrite_launch(s: ast.Stmt) -> ast.Stmt:
    if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) and s.expr.name == "compute":
        # Render as a launch by textual substitution through a fake name.
        return ast.ExprStmt(ast.Call("compute<<<1,1>>>", s.expr.args))
    return s
