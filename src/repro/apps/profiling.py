"""Application operand profiling (the Multi2Sim role).

Runs a filter over an image corpus with recording hooks, producing the
per-FU :class:`~repro.workloads.streams.OperandStream` the paper feeds
into DTA: the exact sequence of operand pairs each FU executes, in
program order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..workloads.streams import OperandStream
from .filters import MASK32, FUHooks, run_filter


class RecordingHooks(FUHooks):
    """Exact execution + operand capture for both FUs."""

    def __init__(self) -> None:
        self.mul_ops: List[tuple] = []
        self.add_ops: List[tuple] = []

    def mul(self, a: int, b: int) -> int:
        self.mul_ops.append((a & MASK32, b & MASK32))
        return super().mul(a, b)

    def add(self, a: int, b: int) -> int:
        self.add_ops.append((a & MASK32, b & MASK32))
        return super().add(a, b)


def profile_filter(filter_name: str, images: Sequence[np.ndarray],
                   max_cycles: int = 0) -> Dict[str, OperandStream]:
    """Profile a filter over a corpus.

    Returns ``{"int_mul": stream, "int_add": stream}`` — the operand
    pairs each FU consumed, in execution order.  ``max_cycles``
    optionally truncates the streams (0 = keep everything).
    """
    hooks = RecordingHooks()
    for image in images:
        run_filter(filter_name, image, hooks)
    if len(hooks.mul_ops) < 2 or len(hooks.add_ops) < 2:
        raise ValueError("corpus too small: not enough profiled operations")

    streams = {}
    for fu_name, ops in (("int_mul", hooks.mul_ops),
                         ("int_add", hooks.add_ops)):
        if max_cycles:
            ops = ops[:max_cycles + 1]
        a = np.array([p[0] for p in ops], dtype=np.uint64)
        b = np.array([p[1] for p in ops], dtype=np.uint64)
        streams[fu_name] = OperandStream(f"{filter_name}_{fu_name}", a, b)
    return streams


def profile_filter_float(filter_name: str, images: Sequence[np.ndarray],
                         max_cycles: int = 0) -> Dict[str, OperandStream]:
    """FP-pipeline variant: profile the same kernels on normalized
    float32 pixels, yielding streams for the FP adder and multiplier.

    (The paper's OpenCL kernels run on a GPU whose ALUs include FPUs;
    this provides application workloads for FP_ADD / FP_MUL.)
    """
    from ..circuits.refmodels import float_to_bits

    mul_ops: List[tuple] = []
    add_ops: List[tuple] = []
    for image in images:
        img = np.asarray(image, dtype=np.float32) / np.float32(255.0)
        h, w = img.shape
        from .filters import GAUSS_KERNEL, SOBEL_GX
        kernels = ([SOBEL_GX, tuple(zip(*SOBEL_GX))]
                   if filter_name == "sobel" else [GAUSS_KERNEL])
        for kernel in kernels:
            for y in range(1, h - 1):
                for x in range(1, w - 1):
                    acc = np.float32(0.0)
                    for ky in range(3):
                        for kx in range(3):
                            coeff = np.float32(kernel[ky][kx])
                            if coeff == 0:
                                continue
                            pix = img[y + ky - 1, x + kx - 1]
                            mul_ops.append((float_to_bits(float(coeff)),
                                            float_to_bits(float(pix))))
                            prod = coeff * pix
                            add_ops.append((float_to_bits(float(acc)),
                                            float_to_bits(float(prod))))
                            acc = acc + prod
    streams = {}
    for fu_name, ops in (("fp_mul", mul_ops), ("fp_add", add_ops)):
        if max_cycles:
            ops = ops[:max_cycles + 1]
        a = np.array([p[0] for p in ops], dtype=np.uint64)
        b = np.array([p[1] for p in ops], dtype=np.uint64)
        streams[fu_name] = OperandStream(f"{filter_name}_{fu_name}", a, b)
    return streams


def app_stream(fu_name: str, filter_name: str,
               images: Sequence[np.ndarray],
               max_cycles: int = 0) -> OperandStream:
    """Profiled stream for one (FU, filter) pair."""
    if fu_name.startswith("fp"):
        return profile_filter_float(filter_name, images, max_cycles)[fu_name]
    return profile_filter(filter_name, images, max_cycles)[fu_name]

