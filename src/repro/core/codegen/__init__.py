"""Kernel code generation (the paper's Clang-libtooling generator, Sec. 4).

The paper generates CUDA kernels specialized on compile-time ``num_guess``
so the speculated-state array unrolls into registers, and selects the
runtime-check implementation (nested loop vs hash) per configuration. This
subpackage reproduces both halves:

* :mod:`repro.core.codegen.select` — the selection logic: check
  implementation (hash iff k > 12), spec-k vs spec-N path, register/spill
  assessment, hot-state cache sizing;
* :mod:`repro.core.codegen.cuda_src` — emits the CUDA C source the paper's
  generator would produce (local-processing kernel, warp/block/global merge
  stages, checks, optional shared-memory cache). There is no ``nvcc`` here,
  so the output is structurally tested, not compiled.

The executable form of the same idea — C specialized on ``k`` and compiled
at first use — lives in :mod:`repro.core.native`.
"""

from repro.core.codegen.cuda_src import generate_cuda_kernel
from repro.core.codegen.select import KernelPlan, plan_kernel

__all__ = [
    "KernelPlan",
    "generate_cuda_kernel",
    "plan_kernel",
]
