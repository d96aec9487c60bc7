"""C -> CUDA translation utilities (paper §2.4).

The textual translation lives in :func:`repro.frontend.printer.print_cuda`;
this module packages it with a re-parse, as a real pipeline would hand
nvcc a file.  Campaigns do not run it: the translation changes nothing the
later layers read, so the device compiler compiles the kernel lowered from
the host unit (see ``difftest.engine.frontend_kernels``), and
``tests/toolchains/test_cuda_identity.py`` checks that the translated unit
lowers to that same kernel.
"""

from __future__ import annotations

from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.printer import print_cuda

__all__ = ["translate_to_cuda", "cuda_source"]


def cuda_source(unit: ast.TranslationUnit) -> str:
    """Render the CUDA version of a host translation unit."""
    return print_cuda(unit)


def translate_to_cuda(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Translate and re-parse, as the real pipeline would hand nvcc a file.

    The returned unit is semantically identical (the kernel body is
    untouched); round-tripping through text asserts the translation stays
    within the accepted language.
    """
    return parse_program(cuda_source(unit))
