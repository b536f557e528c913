#!/usr/bin/env python3
"""Compare every way to train a too-big network (the Section I menu).

The paper's introduction lists the practitioner's options when a DNN
exceeds GPU memory: shrink the batch, use slower memory-lean
convolution algorithms, parallelize across GPUs — or virtualize memory
with vDNN.  This example also throws in the two strategies from the
broader literature that this repo implements: OS-style demand paging
(Section II-C's strawman) and gradient checkpointing.

Run:  python examples/memory_strategies.py
"""

from repro.cluster.dataparallel import simulate_cluster_iteration
from repro.core import (
    AlgoConfig,
    TransferPolicy,
    capacity_report,
    evaluate,
    paging_vs_vdnn,
    simulate_baseline,
    simulate_recompute,
    simulate_vdnn,
)
from repro.hw import PAPER_SYSTEM
from repro.hw.interconnects import pcie_switch_tree
from repro.reporting import format_table, gb_str, ms_str
from repro.zoo import build


def main() -> None:
    network = build("vgg16", 256)
    oracle_algos = AlgoConfig.performance_optimal(network)
    oracle = simulate_baseline(network, PAPER_SYSTEM.with_oracular_gpu(),
                               oracle_algos)
    print(f"Target: {network.name}, which needs "
          f"{gb_str(evaluate(network, policy='base', algo='p').max_usage_bytes)} "
          f"against a {gb_str(PAPER_SYSTEM.gpu.memory_bytes)} GPU.\n")

    rows = []

    # Option 0: pretend memory were infinite (the oracle reference).
    rows.append(["oracular GPU (reference)", "1 GPU", "yes",
                 ms_str(oracle.total_time), "1.00x"])

    # Option 1: shrink the batch until the baseline fits.
    cap = capacity_report(network, PAPER_SYSTEM,
                          policies={"base(p)": ("base", "p")},
                          upper_limit=256)
    best_batch = cap.max_batch["base(p)"]
    rows.append([f"shrink batch to {best_batch} (baseline)", "1 GPU", "yes",
                 "-", "- (different batch)"])

    # Option 2: memory-optimal algorithms everywhere, still baseline.
    mem = evaluate(network, policy="base", algo="m")
    rows.append(["memory-optimal algorithms (baseline)", "1 GPU",
                 "yes" if mem.trainable else "NO",
                 ms_str(mem.total_time),
                 f"{mem.total_time / oracle.total_time:.2f}x"])

    # Option 3: data parallelism across four GPUs behind a PCIe switch.
    dp = simulate_cluster_iteration("vgg16", 64, 4, pcie_switch_tree(4),
                                    rung="base(p)")
    replica = evaluate(build("vgg16", 64), policy="base", algo="p")
    rows.append(["data parallel, baseline per replica", "4 GPUs",
                 "yes" if replica.trainable else "NO",
                 ms_str(dp.iter_seconds),
                 f"{dp.iter_seconds / oracle.total_time:.2f}x"])

    # Option 4: OS demand paging (the strawman).
    paging = paging_vs_vdnn(network, PAPER_SYSTEM)
    rows.append(["demand paging (4 KB page migration)", "1 GPU", "yes",
                 "-", f"{paging['paging_slowdown']:.1f}x"])

    # Option 5: gradient checkpointing.
    rec = simulate_recompute(network, PAPER_SYSTEM,
                             AlgoConfig.memory_optimal(network))
    rows.append(["gradient checkpointing (sqrt L)", "1 GPU",
                 "yes" if rec.trainable else "NO",
                 ms_str(rec.total_time),
                 f"{rec.total_time / oracle.total_time:.2f}x"])

    # Option 6: vDNN (the paper).
    dyn = evaluate(network, policy="dyn")
    rows.append(["vDNN_dyn (this paper)", "1 GPU",
                 "yes" if dyn.trainable else "NO",
                 ms_str(dyn.total_time),
                 f"{dyn.total_time / oracle.total_time:.2f}x"])

    print(format_table(
        ["strategy", "hardware", "trains batch 256?", "iteration",
         "slowdown vs oracle"],
        rows,
        title="Ways to train VGG-16 (256) (12 GB Titan X)",
    ))


if __name__ == "__main__":
    main()
