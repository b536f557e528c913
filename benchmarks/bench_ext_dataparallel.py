"""Extension: 1 GPU + vDNN vs N GPUs + baseline (Section I's trade).

Simonyan & Zisserman trained VGG-16 (256) by splitting it over four
GPUs, each holding a batch-64 replica.  vDNN's pitch is doing it on
*one* card.  This bench puts both options on one table: hardware cost,
trainability, and images/second.  The N-GPU rows are the cluster model's
``base(p)`` gang on a PCIe switch, whose ring allreduce overlaps the
replicas' compute.
"""

from repro.cluster.dataparallel import simulate_cluster_iteration
from repro.core import evaluate
from repro.hw.interconnects import pcie_switch_tree
from repro.reporting import format_table
from repro.zoo import build

GLOBAL_BATCH = 256


def comparison():
    rows = []
    for num_gpus in (1, 2, 4):
        per_gpu_batch = GLOBAL_BATCH // num_gpus
        report = simulate_cluster_iteration(
            "vgg16", per_gpu_batch, num_gpus, pcie_switch_tree(num_gpus),
            rung="base(p)")
        replica = evaluate(build("vgg16", per_gpu_batch),
                           policy="base", algo="p")
        rows.append([
            f"{num_gpus} GPU(s), baseline",
            per_gpu_batch,
            "yes" if replica.trainable else "NO",
            f"{GLOBAL_BATCH / report.iter_seconds:,.0f}",
        ])
    network = build("vgg16", GLOBAL_BATCH)
    dyn = evaluate(network, policy="dyn")
    ips = network.batch_size / dyn.total_time if dyn.total_time else 0
    rows.append(["1 GPU, vDNN_dyn", network.batch_size,
                 "yes" if dyn.trainable else "NO", f"{ips:,.0f}"])
    return rows


def test_ext_data_parallel_vs_vdnn(benchmark, capsys):
    rows = benchmark.pedantic(comparison, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + format_table(
            ["configuration", "per-GPU batch", "trainable", "images/s"],
            rows,
            title="Extension: VGG-16 (256) — multi-GPU baseline vs 1-GPU vDNN",
        ) + "\n")
    assert rows[0][2] == "NO"    # 1 GPU baseline cannot
    assert rows[2][2] == "yes"   # 4 GPUs can (the paper's reference point)
    assert rows[3][2] == "yes"   # 1 GPU + vDNN can too
    # One vDNN GPU delivers (nearly) a 4-GPU cluster's per-card rate:
    four_gpu_ips = float(rows[2][3].replace(",", ""))
    vdnn_ips = float(rows[3][3].replace(",", ""))
    assert vdnn_ips > four_gpu_ips / 4 * 0.85
