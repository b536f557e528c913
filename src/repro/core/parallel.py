"""Multi-GPU data parallelism — the paper's alternative to vDNN.

Section I/IV-C: before vDNN, the way to train VGG-16 at batch 256 was to
"parallelize the DNN across multiple GPUs" — Simonyan & Zisserman split
it over four GPUs, each training a batch-64 replica that fits in one
card.  This module models that option so the benchmarks can compare
"N GPUs, baseline policy" against "1 GPU, vDNN" on cost-normalized
terms: per-GPU trainability, gradient all-reduce time over the shared
PCIe fabric, and end-to-end images/second.

Model: synchronous data parallelism with a ring all-reduce of all weight
gradients after backward propagation.  Ring all-reduce moves
``2 * (N-1)/N * weight_bytes`` through each GPU's link; with every GPU
behind the same PCIe switch the transfers serialize per link, giving
``allreduce_time = 2 * (N-1)/N * weight_bytes / dma_bandwidth``.
Compute does not overlap the all-reduce (the paper-era frameworks did
not overlap either).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.network import Network
from ..hw.config import SystemConfig
from .api import algo_config
from .executor import IterationResult, simulate_baseline


@dataclass(frozen=True)
class DataParallelReport:
    """One synchronous data-parallel training iteration."""

    network_name: str
    num_gpus: int
    global_batch: int
    per_gpu_batch: int
    per_gpu_trainable: bool
    compute_seconds: float
    allreduce_seconds: float

    @property
    def iteration_seconds(self) -> float:
        return self.compute_seconds + self.allreduce_seconds

    @property
    def images_per_second(self) -> float:
        if self.iteration_seconds == 0:
            return 0.0
        return self.global_batch / self.iteration_seconds

    @property
    def scaling_efficiency(self) -> float:
        """Achieved speedup over 1 GPU, divided by the GPU count."""
        ideal = self.compute_seconds + self.allreduce_seconds
        return self.compute_seconds / ideal if ideal else 0.0


def simulate_data_parallel(
    network: Network,
    num_gpus: int,
    system: SystemConfig,
    algo: str = "p",
) -> DataParallelReport:
    """Split ``network``'s global batch across ``num_gpus`` replicas.

    The network's own batch size is the *global* batch; it must divide
    evenly by the GPU count (as in the paper's 4x VGG-16 (64) setup).
    """
    if num_gpus < 1:
        raise ValueError("need at least one GPU")
    global_batch = network.batch_size
    if global_batch % num_gpus:
        raise ValueError(
            f"global batch {global_batch} does not divide across "
            f"{num_gpus} GPUs"
        )
    per_gpu_batch = global_batch // num_gpus
    replica = network.with_batch_size(per_gpu_batch)
    algos = algo_config(replica, algo)
    result: IterationResult = simulate_baseline(replica, system, algos)

    weight_bytes = network.total_weight_bytes()
    if num_gpus == 1:
        allreduce = 0.0
    else:
        volume = 2 * (num_gpus - 1) / num_gpus * weight_bytes
        allreduce = system.pcie.dma_time(int(volume))

    return DataParallelReport(
        network_name=network.name,
        num_gpus=num_gpus,
        global_batch=global_batch,
        per_gpu_batch=per_gpu_batch,
        per_gpu_trainable=result.trainable,
        compute_seconds=result.total_time,
        allreduce_seconds=allreduce,
    )


def min_gpus_for_baseline(
    network: Network, system: SystemConfig, algo: str = "p",
    max_gpus: int = 64,
) -> int:
    """Fewest GPUs whose per-replica slice fits the baseline policy.

    Returns 0 when even a batch-1 replica does not fit (very deep
    networks: no amount of data parallelism helps, which is the paper's
    Figure 15 punchline).
    """
    for num_gpus in range(1, max_gpus + 1):
        if network.batch_size % num_gpus:
            continue
        report = simulate_data_parallel(network, num_gpus, system, algo)
        if report.per_gpu_trainable:
            return num_gpus
    tiny = network.with_batch_size(1)
    if not simulate_baseline(tiny, system,
                             algo_config(tiny, algo)).trainable:
        return 0
    return max_gpus
