#!/usr/bin/env python
"""The code generator: specialized kernels for every configuration.

The paper generates CUDA kernels with Clang libtooling, specializing on
``num_guess`` and selecting the runtime-check implementation. This example
plans kernels for several configurations, prints the generator's decisions,
writes the emitted ``.cu`` sources next to this script, and shows the
specialized C source that ``backend="native"`` compiles and executes here.

Run:  python examples/cuda_codegen_demo.py
"""

from pathlib import Path

from repro.apps.registry import get_application
from repro.core.codegen import generate_cuda_kernel, plan_kernel
from repro.core.kernels import plan_kernel as plan_stepping_kernel
from repro.core.native import NativeSpec, generate_source

OUT = Path(__file__).parent / "generated_kernels"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    dfa, _ = get_application("huffman").build_instance(100_000, seed=0)

    configs = [
        ("spec4", 4, False),
        ("spec16_hash", 16, False),
        ("specN_spill", None, False),
        ("spec8_cached", 8, True),
    ]
    for name, k, cached in configs:
        plan = plan_kernel(dfa, k, cache_table=cached)
        print(f"--- {name}")
        print(plan.describe())
        cu = generate_cuda_kernel(plan, name=f"fsm_{name}")
        path = OUT / f"{name}.cu"
        path.write_text(cu)
        print(f"wrote {path} ({len(cu)} bytes)\n")

    kplan = plan_stepping_kernel(
        dfa, chunk_len=1 << 12, num_chunks=64, k=2, kernel="stride2"
    )
    spec = NativeSpec(
        k=2,
        m=kplan.m,
        num_classes=kplan.compaction.num_classes,
        num_states=kplan.compaction.num_states,
    )
    print("generated C kernel for spec-2, stride-2 (engine backend='native'):\n")
    print(generate_source(spec))


if __name__ == "__main__":
    main()
