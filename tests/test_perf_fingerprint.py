"""Tests for canonical simulation-point fingerprints.

The cache is only sound if (a) identical points always collide and
(b) any parameter that changes the simulation changes the digest —
across processes and hash seeds.  Keys are also persisted (the on-disk
``REPRO_CACHE_DIR`` tier), so the encoder must keep writing exactly the
text it always has: the reference below is the original three-pass
canonicalizer (canonical dict, then ``json.dumps``), and pinned digests
catch a silent re-keying.
"""

import copy
import dataclasses
import enum
import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algo_config import AlgoConfig
from repro.core.cached import baseline_key, recompute_key, vdnn_key
from repro.core.joint import JointConfig, joint_key
from repro.core.policy import TransferPolicy
from repro.graph.network import Network
from repro.hw import PAPER_SYSTEM
from repro.perf import (
    canonical_json,
    fingerprint,
    fingerprint_network,
    fingerprint_point,
)
from repro.perf.fingerprint import lookup_key
from repro.zoo import available, build


# ----------------------------------------------------------------------
# Reference canonicalizer: the original dict-then-json.dumps encoding
# ----------------------------------------------------------------------
def _canon(value: Any) -> Any:
    """Reduce ``value`` to JSON-serializable canonical form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": _canon(value.value)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canon(v) for v in value),
                      key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, dict):
        return {
            str(key): _canon(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, Network):
        return network_signature(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
        body["__class__"] = type(value).__name__
        return body
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting"
    )


def network_signature(network: Network) -> dict:
    """Canonical description of a network's topology, shapes and dtypes."""
    return {
        "__class__": "Network",
        "name": network.name,
        "layers": [
            {
                "layer": _canon(node.layer),
                "output": _canon(node.output_spec),
                "weight": _canon(node.weight_spec),
                "bias": _canon(node.bias_spec),
                "producers": list(node.producers),
                "storage_index": node.storage_index,
                "weight_root": node.weight_root,
                "feature_extraction": node.is_feature_extraction,
            }
            for node in network
        ],
    }


def reference_json(value: Any) -> str:
    return json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))


def reference_digest(value: Any) -> str:
    return hashlib.sha256(reference_json(value).encode("utf-8")).hexdigest()


def reference_point(kind, network_digest, system, policy=None, algos=None,
                    extra=None) -> str:
    return reference_digest({
        "kind": kind,
        "network": network_digest,
        "system": system,
        "policy": policy,
        "algos": algos,
        "extra": extra,
    })


# ----------------------------------------------------------------------
# Encoder vs reference: the zoo grid
# ----------------------------------------------------------------------
SYSTEMS = {
    "paper": PAPER_SYSTEM,
    "oracular": PAPER_SYSTEM.with_oracular_gpu(),
    "2GiB": PAPER_SYSTEM.with_gpu_memory(2 << 30),
}


def _policies(network: Network):
    convs = sorted(node.index for node in network.conv_layers)
    # 9 and 10 ride along so a set holds a one- and a two-digit index.
    offload = set(convs) | {9, 10}
    return [
        TransferPolicy.none(),
        TransferPolicy.vdnn_all(),
        TransferPolicy.vdnn_conv(),
        TransferPolicy.vdnn_comp(),
        TransferPolicy.custom(offload, sorted(offload)[::2]),
    ]


@pytest.mark.parametrize("name", available())
def test_encoder_matches_reference_over_zoo_grid(name):
    network = build(name)
    assert canonical_json(network) == reference_json(network_signature(network))
    digest = reference_digest(network_signature(network))
    assert fingerprint_network(network) == digest
    for algos in (AlgoConfig.memory_optimal(network),
                  AlgoConfig.performance_optimal(network)):
        assert canonical_json(algos) == reference_json(algos)
        for system in SYSTEMS.values():
            assert canonical_json(system) == reference_json(system)
            assert baseline_key(network, system, algos) == \
                reference_point("baseline", digest, system, algos=algos)
            for policy in _policies(network):
                assert canonical_json(policy) == reference_json(policy)
                assert vdnn_key(network, system, policy, algos) == \
                    reference_point("vdnn", digest, system, policy, algos)


@pytest.mark.parametrize("name", ["alexnet", "googlenet", "resnet18"])
def test_joint_and_recompute_keys_match_reference(name):
    network = build(name, 16)
    digest = reference_digest(network_signature(network))
    algos = AlgoConfig.performance_optimal(network)
    convs = sorted(node.index for node in network.conv_layers)
    config = JointConfig(offload=frozenset(convs[0::3]),
                         compress=frozenset(convs[1::3]),
                         drop=frozenset(convs[2::3]))
    for system in SYSTEMS.values():
        assert joint_key(network, system, config, algos) == reference_point(
            "joint", digest, system, config.policy(), algos,
            {"drop": sorted(config.drop)})
        for segments in (None, 4, 12):
            assert recompute_key(network, system, algos, segments) == \
                reference_point("recompute", digest, system, algos=algos,
                                extra={"segment_count": segments})


def test_downgraded_algos_are_encoded_afresh():
    """AlgoConfig is mutable (``downgrade`` edits it in place), so its
    text is never memoized: the key follows the edit."""
    network = build("alexnet", 32)
    algos = AlgoConfig.performance_optimal(network)
    before = baseline_key(network, PAPER_SYSTEM, algos)
    layer = next(index for index, profile in sorted(algos.profiles.items())
                 if profile.workspace_bytes)
    assert algos.downgrade(network, layer)
    after = baseline_key(network, PAPER_SYSTEM, algos)
    assert after != before
    digest = reference_digest(network_signature(network))
    assert after == reference_point("baseline", digest, PAPER_SYSTEM,
                                    algos=algos)


# ----------------------------------------------------------------------
# Encoder vs reference: arbitrary nested values
# ----------------------------------------------------------------------
class Color(enum.Enum):
    RED = "red"
    GREEN = 2
    BLUE = (1, "b")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Mode(str, enum.Enum):
    FAST = "fast"
    SAFE = "ß"


@dataclasses.dataclass(frozen=True)
class Frozen:
    Zeta: Any
    alpha: Any
    hidden: Any = dataclasses.field(default=None, compare=False)


@dataclasses.dataclass
class Mutable:
    items: Any
    B: Any = None


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.1,
                  1e300, 5e-324, 1.0]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**20, max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=8),
    st.sampled_from(list(Color) + list(Level) + list(Mode)),
)
_hashables = st.recursive(
    _scalars, lambda inner: st.tuples(inner, inner), max_leaves=6)
_keys = st.one_of(st.text(max_size=6), st.integers(-20, 20), st.booleans(),
                  st.sampled_from(list(Color) + list(Level)))
_values = st.recursive(
    st.one_of(_scalars, st.frozensets(_hashables, max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.sets(_hashables, max_size=6),
        st.dictionaries(_keys, inner, max_size=4),
        st.builds(Frozen, inner, inner, inner),
        st.builds(Mutable, inner, inner),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_encoder_matches_reference_on_nested_values(value):
    assert canonical_json(value) == reference_json(value)
    assert fingerprint(value) == reference_digest(value)
    # A memoized frozen fragment reads back identically.
    assert canonical_json(value) == reference_json(value)


def test_equal_values_of_different_types_encode_differently():
    """Frozen fragments are memoized on the instance, never in a table
    keyed on equality: 1 == 1.0 == True but each keeps its own text."""
    boxes = [Frozen(1, 0), Frozen(1.0, 0), Frozen(True, 0)]
    assert boxes[0] == boxes[1] == boxes[2]
    texts = [canonical_json(box) for box in boxes]
    assert texts == [reference_json(box) for box in boxes]
    assert len(set(texts)) == 3
    assert [canonical_json(box) for box in reversed(boxes)] == texts[::-1]


def test_scalars_are_spelled_as_json_spells_them():
    value = [SPECIAL_FLOATS, [True, 1, 1.0, None], "naïve ☃ \n \"q\"",
             Level.HIGH, Mode.SAFE, Color.BLUE]
    assert canonical_json(value) == reference_json(value) == (
        '[[NaN,Infinity,-Infinity,-0.0,0.1,1e+300,5e-324,1.0],'
        '[true,1,1.0,null],"na\\u00efve \\u2603 \\n \\"q\\"",'
        '10,"\\u00df",{"__enum__":"Color","value":[1,"b"]}]')


def test_multi_digit_set_elements_sort_by_json_text():
    assert canonical_json({9, 10, 1}) == "[1,10,9]"


@pytest.mark.parametrize("value", [
    object(),
    [1, object()],
    {"k": {2: object()}},
    Frozen,            # a dataclass type, not an instance
    b"bytes",
])
def test_unknown_types_are_rejected(value):
    with pytest.raises(TypeError, match="canonicalize"):
        canonical_json(value)


# ----------------------------------------------------------------------
# Pinned digests: changing any of these orphans every on-disk cache entry
# ----------------------------------------------------------------------
def _pinned_points() -> Tuple[str, str, str, str]:
    network = build("alexnet", 32)
    memory = AlgoConfig.memory_optimal(network)
    performance = AlgoConfig.performance_optimal(network)
    config = JointConfig(offload=frozenset({1, 13}), compress=frozenset({5}),
                         drop=frozenset({9, 11}))
    return (
        baseline_key(network, PAPER_SYSTEM, performance),
        vdnn_key(network, PAPER_SYSTEM, TransferPolicy.vdnn_all(), memory),
        joint_key(network, PAPER_SYSTEM, config, performance),
        recompute_key(network, PAPER_SYSTEM, memory, 4),
    )


def test_pinned_point_digests():
    assert _pinned_points() == (
        "5f3b286ec5b4eb80165ad61880e856d36f84252f4226a17229f62ed1e003b6cc",
        "cc853cae4d47bc4e8157b9a4826120b2055d0f9f3f3d22761e1927d1cd19ad2f",
        "6a5b73895f0e21783933c5cbef7cfff777a9b48c2af949c480bb0dca55c6800a",
        "7e92f28950a9be6c48e230a1ed563d7458f137579d37fddf529d3c93981d9031",
    )


# ----------------------------------------------------------------------
# Network digests and the recipe that stands for one in process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available())
def test_recipe_memoized_digest_equals_content_digest(name):
    """``lookup_key`` names a zoo network by its recipe in place of its
    digest, which is sound only if every build of a recipe has one
    content: a network built after the first was dropped included."""
    for batch in (4, 16):
        first = build(name, batch)
        digest = fingerprint_network(first)
        recipe = first._repro_recipe
        assert lookup_key("dynamic", first, PAPER_SYSTEM)[1] == recipe
        del first
        rebuilt = build(name, batch)
        assert lookup_key("dynamic", rebuilt, PAPER_SYSTEM)[1] == recipe
        assert fingerprint(rebuilt) == digest


def test_derived_and_hand_built_networks_get_their_own_content_digest():
    network = build("alexnet", 64)
    fp16 = network.with_dtype_bytes(2)
    assert not hasattr(fp16, "_repro_recipe")
    assert fingerprint_network(fp16) == fingerprint(fp16)
    assert fingerprint_network(fp16) != fingerprint_network(network)

    hand_built = Network(network.name,
                         [copy.deepcopy(node.layer) for node in network])
    assert not hasattr(hand_built, "_repro_recipe")
    assert fingerprint_network(hand_built) == fingerprint(hand_built)
    assert fingerprint_network(hand_built) == fingerprint_network(network)


class TestNetworkFingerprint:
    def test_identical_builds_fingerprint_identically(self):
        assert fingerprint_network(build("alexnet", 64)) == \
            fingerprint_network(build("alexnet", 64))

    def test_memoized_digest_matches_fresh_digest(self):
        network = build("alexnet", 64)
        first = fingerprint_network(network)   # computes + memoizes
        assert fingerprint_network(network) == first
        assert fingerprint_network(build("alexnet", 64)) == first

    def test_different_networks_differ(self):
        assert fingerprint_network(build("alexnet", 64)) != \
            fingerprint_network(build("vgg16", 64))

    def test_batch_size_perturbs_digest(self):
        assert fingerprint_network(build("alexnet", 64)) != \
            fingerprint_network(build("alexnet", 65))

    def test_dtype_perturbs_digest(self):
        fp32 = build("alexnet", 64)
        fp16 = fp32.with_dtype_bytes(2)
        assert fingerprint_network(fp32) != fingerprint_network(fp16)


class TestPointFingerprint:
    def _point(self, **overrides):
        defaults = dict(
            kind="vdnn",
            network=build("alexnet", 64),
            system=PAPER_SYSTEM,
            policy=TransferPolicy.vdnn_all(),
            algos=AlgoConfig.memory_optimal(build("alexnet", 64)),
        )
        defaults.update(overrides)
        return fingerprint_point(**defaults)

    def test_identical_points_collide(self):
        assert self._point() == self._point()

    def test_system_memory_perturbs_digest(self):
        assert self._point() != self._point(
            system=PAPER_SYSTEM.with_gpu_memory(6 << 30))

    def test_policy_perturbs_digest(self):
        assert self._point() != self._point(policy=TransferPolicy.vdnn_conv())

    def test_algos_perturb_digest(self):
        network = build("alexnet", 64)
        assert self._point() != self._point(
            algos=AlgoConfig.performance_optimal(network))

    def test_kind_namespaces_simulators(self):
        assert self._point() != self._point(kind="baseline")

    def test_extra_parameters_perturb_digest(self):
        assert self._point(extra={"segment_count": 4}) != \
            self._point(extra={"segment_count": 5})


class TestCanonicalJson:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == \
            canonical_json({"b": 2, "a": 1})

    def test_set_order_is_irrelevant(self):
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})

    def test_live_objects_are_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json(object())


def _digest_in_subprocess(hash_seed: str) -> str:
    """Fingerprint one point in a child interpreter with a fixed seed."""
    code = (
        "from repro.perf import fingerprint_point\n"
        "from repro.hw import PAPER_SYSTEM\n"
        "from repro.core.algo_config import AlgoConfig\n"
        "from repro.zoo import build\n"
        "net = build('alexnet', 32)\n"
        "print(fingerprint_point('baseline', net, PAPER_SYSTEM,\n"
        "                        algos=AlgoConfig.memory_optimal(net)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    output = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, check=True,
    )
    return output.stdout.strip()


def test_fingerprints_stable_across_processes_and_hash_seeds():
    digest_a = _digest_in_subprocess("0")
    digest_b = _digest_in_subprocess("1")
    assert digest_a == digest_b
    assert len(digest_a) == 64  # sha256 hex
