"""Model of cuDNN 4.0's six convolution algorithms.

The paper's memory/performance trade-off hinges on the fact that cuDNN
exposes multiple convolution algorithms with very different *workspace*
(WS) requirements and speeds (Section II-B, footnote 2):

* ``IMPLICIT_GEMM`` needs **no** workspace — the memory-optimal ``(m)``
  configuration uses it everywhere;
* precomputed-index implicit GEMM and explicit GEMM need modest
  workspaces;
* FFT-based algorithms are the fastest for stride-1 convolutions but
  "incur larger memory allocations because of the additional data
  structures required to store the feature maps transformed into
  frequency domain" — these dominate the performance-optimal ``(p)``
  configurations.

Workspace formulas follow the cuDNN documentation's structure: explicit
GEMM lowers one image at a time (im2col buffer), FFT transforms X, W and Y
into padded frequency planes, and tiled FFT does the same over 32x32
tiles.  Speeds are expressed as multipliers over the roofline time; the
values are calibrated to published cuDNN-4-on-Maxwell benchmarks
(convnet-benchmarks) and only their *ordering* matters for the paper's
conclusions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..graph.layer import Conv2D
from ..graph.tensor import FP32_BYTES, TensorSpec


class ConvAlgo(enum.Enum):
    """The six cuDNN (v4) convolution algorithms, in workspace order."""

    IMPLICIT_GEMM = "implicit_gemm"
    IMPLICIT_PRECOMP_GEMM = "implicit_precomp_gemm"
    GEMM = "gemm"
    DIRECT = "direct"
    FFT_TILING = "fft_tiling"
    FFT = "fft"


#: The algorithm the memory-optimal (m) configuration uses everywhere:
#: "implicit GEMM requires the least memory allocation as no additional
#: workspace is needed".
MEMORY_OPTIMAL_ALGO = ConvAlgo.IMPLICIT_GEMM

#: Time multiplier applied to the ideal roofline latency.  Lower is
#: faster.  FFT variants beat GEMM variants for the stride-1 3x3/5x5
#: convolutions that dominate the studied networks.
_TIME_MULTIPLIER = {
    ConvAlgo.IMPLICIT_GEMM: 1.30,
    ConvAlgo.IMPLICIT_PRECOMP_GEMM: 1.10,
    ConvAlgo.GEMM: 1.18,
    ConvAlgo.DIRECT: 1.65,
    ConvAlgo.FFT_TILING: 0.72,
    ConvAlgo.FFT: 0.62,
}

_FFT_TILE = 32


@dataclass(frozen=True)
class AlgoProfile:
    """One algorithm's cost on one specific convolution layer.

    This is what cuDNN's ``cudnnFindConvolutionForwardAlgorithm`` returns
    and what the vDNN_dyn profiling passes consume: the algorithm, its
    workspace requirement in bytes, and its relative speed.
    """

    algo: ConvAlgo
    workspace_bytes: int
    time_multiplier: float


def _fft_dims(h: int, w: int, kernel: int) -> tuple:
    """Padded FFT plane extents (next even size >= H + kernel - 1)."""
    fh, fw = h + kernel - 1, w + kernel - 1
    return fh + (fh % 2), fw + (fw % 2)


@lru_cache(maxsize=4096)
def _applicable(algo: ConvAlgo, kernel: int, stride: int) -> bool:
    if algo in (ConvAlgo.FFT, ConvAlgo.FFT_TILING):
        if stride != 1:
            return False
        if algo is ConvAlgo.FFT_TILING and kernel > _FFT_TILE:
            return False
    return True


def algo_applicable(algo: ConvAlgo, layer: Conv2D) -> bool:
    """Whether cuDNN supports this algorithm for the layer's geometry."""
    return _applicable(algo, layer.kernel, layer.stride)


@lru_cache(maxsize=16384)
def _workspace_bytes(
    algo: ConvAlgo,
    kernel: int,
    out_channels: int,
    input_spec: TensorSpec,
    output_spec: TensorSpec,
) -> int:
    n, c, h, w = input_spec.shape
    k = out_channels
    _, _, oh, ow = output_spec.shape

    if algo in (ConvAlgo.IMPLICIT_GEMM, ConvAlgo.DIRECT):
        return 0

    if algo is ConvAlgo.IMPLICIT_PRECOMP_GEMM:
        # Precomputed input-index tiles: one int per (output pixel, tap).
        return oh * ow * kernel * kernel * FP32_BYTES

    if algo is ConvAlgo.GEMM:
        # im2col lowering of one image: (C*kh*kw) x (oh*ow) matrix of
        # input-precision elements.
        return c * kernel * kernel * oh * ow * input_spec.dtype_bytes

    complex_bytes = 2 * input_spec.dtype_bytes
    if algo is ConvAlgo.FFT:
        fh, fw = _fft_dims(h, w, kernel)
        planes = n * c + n * k + c * k  # X^, Y^ and W^ frequency planes
        return planes * fh * (fw // 2 + 1) * complex_bytes

    # FFT_TILING: same three transforms but over 32x32 tiles, so the
    # frequency planes are tile-sized and the X^/Y^ terms stay bounded.
    fh, fw = _fft_dims(_FFT_TILE, _FFT_TILE, kernel)
    tiles_h = -(-h // _FFT_TILE)
    tiles_w = -(-w // _FFT_TILE)
    batch_planes = min(n, 32) * c + min(n, 32) * k  # processed in chunks
    planes = batch_planes * tiles_h * tiles_w + c * k
    return planes * fh * (fw // 2 + 1) * complex_bytes


def workspace_bytes(
    algo: ConvAlgo, layer: Conv2D, input_spec: TensorSpec, output_spec: TensorSpec
) -> int:
    """Workspace requirement of ``algo`` on this layer, in bytes."""
    if not algo_applicable(algo, layer):
        raise ValueError(
            f"{algo.value} is not applicable to layer {layer.name!r} "
            f"(kernel={layer.kernel}, stride={layer.stride})"
        )
    return _workspace_bytes(algo, layer.kernel, layer.out_channels, input_spec, output_spec)


@lru_cache(maxsize=4096)
def _time_multiplier(algo: ConvAlgo, kernel: int) -> float:
    mult = _TIME_MULTIPLIER[algo]
    if algo in (ConvAlgo.FFT, ConvAlgo.FFT_TILING) and kernel == 1:
        mult = 1.20  # transforms buy nothing for pointwise convolutions
    return mult


def time_multiplier(algo: ConvAlgo, layer: Conv2D) -> float:
    """Relative runtime of ``algo`` vs. the roofline ideal (lower=faster).

    FFT's advantage shrinks for 1x1 kernels (no arithmetic saving) and
    for very small feature maps where transform overhead dominates.
    """
    return _time_multiplier(algo, layer.kernel)


@lru_cache(maxsize=16384)
def _profile_algorithms(
    kernel: int,
    stride: int,
    out_channels: int,
    input_spec: TensorSpec,
    output_spec: TensorSpec,
) -> Tuple[AlgoProfile, ...]:
    profiles = [
        AlgoProfile(
            algo=algo,
            workspace_bytes=_workspace_bytes(algo, kernel, out_channels, input_spec, output_spec),
            time_multiplier=_time_multiplier(algo, kernel),
        )
        for algo in ConvAlgo
        if _applicable(algo, kernel, stride)
    ]
    profiles.sort(key=lambda p: (p.time_multiplier, p.workspace_bytes))
    return tuple(profiles)


def profile_algorithms(
    layer: Conv2D, input_spec: TensorSpec, output_spec: TensorSpec
) -> List[AlgoProfile]:
    """All applicable algorithms for a layer, fastest first.

    Mirrors cuDNN's find-algorithm API: the caller gets every candidate
    with its workspace size and can pick under a memory budget.
    Profiles are memoized on the layer geometry — every VGG-16 batch-64
    probe in a sweep reuses one computed table.
    """
    return list(
        _profile_algorithms(
            layer.kernel, layer.stride, layer.out_channels, input_spec, output_spec
        )
    )


def performance_optimal_algo(
    layer: Conv2D,
    input_spec: TensorSpec,
    output_spec: TensorSpec,
    workspace_limit: Optional[int] = None,
) -> AlgoProfile:
    """The fastest applicable algorithm, optionally under a WS budget."""
    for profile in profile_algorithms(layer, input_spec, output_spec):
        if workspace_limit is None or profile.workspace_bytes <= workspace_limit:
            return profile
    raise ValueError(
        f"no convolution algorithm fits workspace limit {workspace_limit} "
        f"on layer {layer.name!r}"
    )


def memory_optimal_profile(
    layer: Conv2D, input_spec: TensorSpec, output_spec: TensorSpec
) -> AlgoProfile:
    """The zero-workspace implicit-GEMM profile."""
    return _memory_optimal_profile(layer.kernel)


@lru_cache(maxsize=None)
def _memory_optimal_profile(kernel: int) -> AlgoProfile:
    # Shared like the (p) profiles, so its cache-key text is made once.
    return AlgoProfile(MEMORY_OPTIMAL_ALGO, 0,
                       _time_multiplier(MEMORY_OPTIMAL_ALGO, kernel))


def next_cheaper_algo(
    current: ConvAlgo,
    layer: Conv2D,
    input_spec: TensorSpec,
    output_spec: TensorSpec,
) -> Optional[AlgoProfile]:
    """The fastest algorithm with strictly less workspace than ``current``.

    This is the "locally downgraded into a less performant but more
    memory-efficient one" step of the vDNN_dyn greedy pass (Section
    III-C, profiling pass 3).  Returns None when ``current`` is already
    implicit GEMM (workspace zero).
    """
    current_ws = workspace_bytes(current, layer, input_spec, output_spec)
    cheaper = [
        p for p in profile_algorithms(layer, input_spec, output_spec)
        if p.workspace_bytes < current_ws
    ]
    return cheaper[0] if cheaper else None
