"""Ablation (DESIGN.md 5.3): the baseline's dY/dX ping-pong reuse.

Section IV-A improves the Torch baseline by allocating only two
maximum-size gradient buffers that ping-pong through backward
propagation instead of one dX/dY pair per layer.  This ablation
quantifies how much that optimization saves — and therefore how much
*stronger* the baseline the paper compares against is.
"""

from repro.core import AlgoConfig, baseline_allocation_bytes, liveness_of
from repro.reporting import format_table, gb_str
from repro.zoo import build


def gradient_policies(network):
    algos = AlgoConfig.memory_optimal(network)
    liveness = liveness_of(network)
    improved = baseline_allocation_bytes(network, algos)
    naive_gradients = sum(
        s.nbytes for s in liveness.all_storages() if s.needs_gradient
    )
    naive_total = (improved["total"] - improved["gradient_maps"]
                   + naive_gradients)
    return improved, naive_gradients, naive_total


def test_ablation_baseline_gradient_reuse(benchmark, capsys):
    rows = []
    for key, batch in [("alexnet", 128), ("vgg16", 64), ("vgg16", 256)]:
        network = build(key, batch)
        improved, naive_gradients, naive_total = benchmark.pedantic(
            gradient_policies, args=(network,), rounds=1, iterations=1,
        ) if not rows else gradient_policies(network)
        rows.append([
            network.name,
            gb_str(naive_total),
            gb_str(improved["total"]),
            gb_str(naive_gradients - improved["gradient_maps"]),
        ])
        assert improved["gradient_maps"] <= naive_gradients
    with capsys.disabled():
        print("\n" + format_table(
            ["network", "naive per-layer dX/dY", "ping-pong reuse (paper)",
             "saved"],
            rows,
            title="Ablation: baseline gradient-buffer reuse",
        ) + "\n")
