"""Property: the fleet contention model's carried-over counts are exact.

``FleetContention.iteration_seconds`` keeps the per-link user counts and
per-GPU tenant counts of its previous call and counts only the entries
that joined or left since.  Random sequences of admissions, releases,
reorders and readmissions on other GPUs must leave every answer equal,
bit for bit, to a fresh instance's on the same entries.
"""

import random

import pytest

from repro.cluster import FleetContention, PlacedGang
from repro.hw import make_topology
from repro.sched.admission import RungEval

TOPOLOGIES = ["pcie-switch", "nvlink-ring", "nvlink-mesh"]
GPUS = 8
OVERHEAD = 0.05


def _gang(rng, name):
    rung = RungEval(
        rung="r", footprint_bytes=1, iter_seconds=rng.uniform(0.01, 1.0),
        compute_seconds=rng.uniform(0.01, 1.0),
        pcie_seconds=rng.uniform(0.0, 0.5),
        pcie_bytes=rng.choice((0, 1 << 20, 3 << 28, 5 << 30)))
    width = rng.choice((1, 1, 1, 2, 4))
    return PlacedGang(name, tuple(rng.sample(range(GPUS), width)), rung,
                      weight_bytes=rng.choice((0, 61 << 20, 548 << 20)))


def _fresh(topology, entries):
    return FleetContention(topology, OVERHEAD).iteration_seconds(entries)


def _readmit(rng, gang):
    """``gang`` placed again, same width, on a different set of GPUs."""
    while True:
        gpus = tuple(rng.sample(range(GPUS), len(gang.gpus)))
        if set(gpus) != set(gang.gpus):
            return PlacedGang(gang.name, gpus, gang.rung, gang.weight_bytes)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("seed", range(4))
def test_diffed_counts_equal_fresh_counts(topology, seed):
    rng = random.Random(f"{topology}-{seed}")
    topo = make_topology(topology, GPUS)
    model = FleetContention(topo, OVERHEAD)
    live, made, readmitted = [], 0, 0
    for _step in range(120):
        move = rng.random()
        if move < 0.4 or not live:
            live.append(_gang(rng, f"j{made}"))
            made += 1
        elif move < 0.65:
            live.pop(rng.randrange(len(live)))
        elif move < 0.8:
            rng.shuffle(live)
        else:
            # Evicted, then readmitted on other GPUs: a new entry with
            # the old one's name, rung and weights.
            old = live.pop(rng.randrange(len(live)))
            assert model.iteration_seconds(live) == _fresh(topo, live)
            live.insert(rng.randrange(len(live) + 1), _readmit(rng, old))
            readmitted += 1
        assert model.iteration_seconds(live) == _fresh(topo, live)
    assert readmitted and made > 20


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_readmitted_gang_moves_its_counts(topology):
    rng = random.Random(topology)
    topo = make_topology(topology, GPUS)
    model = FleetContention(topo, OVERHEAD)
    gang = PlacedGang("a", (0, 1), _gang(rng, "a").rung,
                      weight_bytes=548 << 20)
    neighbour = PlacedGang("b", (1,), _gang(rng, "b").rung)
    moved = PlacedGang("a", (4, 5), gang.rung, gang.weight_bytes)
    for entries in ([gang, neighbour], [neighbour], [neighbour, moved],
                    [moved, neighbour], []):
        assert model.iteration_seconds(entries) == _fresh(topo, entries)


def test_an_entry_listed_twice_is_refused():
    rng = random.Random(0)
    topo = make_topology("pcie-switch", GPUS)
    gang = _gang(rng, "a")
    with pytest.raises(ValueError, match="more than once"):
        FleetContention(topo).iteration_seconds([gang, gang])
