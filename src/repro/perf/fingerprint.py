"""Canonical, process-stable fingerprints for simulation points.

A *simulation point* is everything that determines an
:class:`~repro.core.executor.IterationResult`: the network (topology,
shapes, dtypes), the :class:`~repro.hw.config.SystemConfig`, the
transfer policy and the per-layer convolution-algorithm configuration.
Two points that would simulate identically must fingerprint identically
— across processes, interpreter restarts and ``PYTHONHASHSEED`` values —
so fingerprints are sha256 digests of *canonical JSON*: sorted keys,
no object identities, no ``repr`` of live objects, enums reduced to
their values, sets sorted.

The canonical text is written in one recursive walk (:func:`_encode`),
with no intermediate dict and no second pass through :mod:`json`.  A
point key is looked up on every cache probe, so it must cost far less
than the simulation it replaces; two memos make repeated content free:

* a frozen dataclass instance (``TensorSpec``, ``AlgoProfile``,
  ``SystemConfig``, ``TransferPolicy``...) keeps its encoded text on
  itself, so an ``AlgoConfig`` of shared, ``lru_cache``'d profiles
  encodes as a join of cached strings.  Mutable dataclasses (layers,
  ``AlgoConfig``) are encoded afresh every time.
* a network's digest is kept on the network, and for networks built by
  :func:`repro.zoo.build` also per ``(builder key, batch size)`` recipe,
  process-wide: builders are deterministic and networks immutable, so a
  rebuilt network is not encoded again.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import hashlib
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Optional, Tuple

from ..graph.network import Network

#: Instance attribute holding a frozen dataclass's canonical text.
_MEMO = "_repro_canon"

#: Content digest per zoo recipe ``(builder key, batch size)``, filled
#: the first time a network built from that recipe is fingerprinted.
_RECIPE_DIGESTS: Dict[Tuple[str, int], str] = {}

_INF = float("inf")


def _encode_float(value: float) -> str:
    # json's spelling: repr for finite values, JS names otherwise.
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# Containers dispatch inline, ``_ENCODERS[type(item)](item)``, rather
# than through ``_encode``: one Python call per value instead of two.
def _encode_list(value: Any) -> str:
    return "[" + ",".join([_ENCODERS[type(item)](item) for item in value]) + "]"


def _encode_set(value: Any) -> str:
    # Elements ordered by their JSON text, so 10 sorts before 9.
    return "[" + ",".join(
        sorted([_ENCODERS[type(item)](item) for item in value])) + "]"


def _encode_dict(value: Any) -> str:
    # Keys are stringified first; of two keys with one text, the later wins.
    entries = {str(key): item for key, item in value.items()}
    return "{" + ",".join([
        _quote(key) + ":" + _ENCODERS[type(item)](item)
        for key, item in sorted(entries.items())
    ]) + "}"


def _encode_network(network: Network) -> str:
    """A network's topology, shapes and dtypes, straight from its nodes.

    Built only from declared structure (layer parameters, wiring) and
    inferred facts (output/weight specs, storage aliasing, regions) —
    never from object identities — so two independently constructed
    identical networks encode identically.
    """
    layers = ",".join([
        '{"bias":' + _encode(node.bias_spec)
        + ',"feature_extraction":' + _encode(node.is_feature_extraction)
        + ',"layer":' + _encode(node.layer)
        + ',"output":' + _encode(node.output_spec)
        + ',"producers":' + _encode_list(node.producers)
        + ',"storage_index":' + _encode(node.storage_index)
        + ',"weight":' + _encode(node.weight_spec)
        + ',"weight_root":' + _encode(node.weight_root)
        + "}"
        for node in network
    ])
    return ('{"__class__":"Network","layers":[' + layers
            + '],"name":' + _encode(network.name) + "}")


def _enum_encoder(cls: type) -> Callable[[Any], str]:
    head = '{"__enum__":' + _quote(cls.__name__) + ',"value":'
    return lambda member: head + _encode(member.value) + "}"


def _dataclass_encoder(cls: type) -> Callable[[Any], str]:
    """Encoder for one dataclass type: its ``compare`` fields plus a
    ``__class__`` tag, in key order fixed once for the type."""
    tag = '"__class__":' + _quote(cls.__name__)
    names = sorted(f.name for f in dataclasses.fields(cls) if f.compare)
    prefixes = [_quote(name) + ":" for name in names]
    # The tag's place among the sorted keys: after capitalized names.
    split = bisect.bisect(names, "__class__")

    def encode(value: Any) -> str:
        fields = [getattr(value, name) for name in names]
        parts = [prefix + _ENCODERS[type(field)](field)
                 for prefix, field in zip(prefixes, fields)]
        parts.insert(split, tag)
        return "{" + ",".join(parts) + "}"

    if not cls.__dataclass_params__.frozen:
        return encode

    def encode_frozen(value: Any) -> str:
        # The memo lives on the instance, never in a table keyed on
        # equality: 1 == 1.0 == True, but they encode differently.
        text = getattr(value, _MEMO, None)
        if text is None:
            text = encode(value)
            object.__setattr__(value, _MEMO, text)
        return text

    return encode_frozen


def _encoder_for(cls: type) -> Callable[[Any], str]:
    """Pick the encoder for a type, in the canonical form's precedence:
    int/str (and their enum mixins) before floats before enums before
    containers before networks before dataclasses."""
    if issubclass(cls, int):  # bool is exact-typed in _ENCODERS
        return int.__repr__
    if issubclass(cls, str):
        return _quote
    if issubclass(cls, float):
        return _encode_float
    if issubclass(cls, enum.Enum):
        return _enum_encoder(cls)
    if issubclass(cls, (list, tuple)):
        return _encode_list
    if issubclass(cls, (set, frozenset)):
        return _encode_set
    if issubclass(cls, dict):
        return _encode_dict
    if issubclass(cls, Network):
        return _encode_network
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_encoder(cls)
    raise TypeError(
        f"cannot canonicalize {cls.__name__!r} for fingerprinting"
    )


class _EncoderTable(dict):
    """Encoder per exact type; other types are added on first sight."""

    def __missing__(self, cls: type) -> Callable[[Any], str]:
        encoder = self[cls] = _encoder_for(cls)
        return encoder


_ENCODERS = _EncoderTable({
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    float: _encode_float,
    str: _quote,
    list: _encode_list,
    tuple: _encode_list,
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
})


def _encode(value: Any) -> str:
    return _ENCODERS[type(value)](value)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def canonical_json(value: Any) -> str:
    """The canonical JSON text hashed by :func:`fingerprint`.

    Sorted keys, compact separators, ASCII-escaped strings; enums as
    ``{"__enum__": type name, "value": ...}``; dataclasses as their
    ``compare`` fields plus a ``__class__`` tag; sets ordered by their
    elements' JSON text.  Raises :class:`TypeError` for anything else.
    """
    return _encode(value)


def fingerprint(value: Any) -> str:
    """sha256 hex digest of ``value``'s canonical JSON."""
    return _digest(_encode(value))


def fingerprint_network(network: Network) -> str:
    """The network's content digest, encoded at most once per instance
    and, for zoo-built networks, once per recipe per process.

    The digest itself is pure content: two independently built
    identical networks get equal digests, whether or not either came
    from :func:`repro.zoo.build`.
    """
    digest = getattr(network, "_repro_fingerprint", None)
    if digest is None:
        recipe = getattr(network, "_repro_recipe", None)
        if recipe is not None:
            digest = _RECIPE_DIGESTS.get(recipe)
        if digest is None:
            digest = _digest(_encode_network(network))
            if recipe is not None:
                _RECIPE_DIGESTS[recipe] = digest
        network._repro_fingerprint = digest
    return digest


def fingerprint_point(
    kind: str,
    network: Network,
    system: Any,
    policy: Any = None,
    algos: Any = None,
    extra: Optional[dict] = None,
) -> str:
    """Fingerprint one simulation point.

    ``kind`` namespaces the simulator entry (``"vdnn"``, ``"baseline"``,
    ``"recompute"``, ``"dynamic"``); ``extra`` carries any additional
    simulator parameters (e.g. a recompute segment count).  The digest
    is that of the canonical JSON of ``{"kind", "network" (its digest),
    "system", "policy", "algos", "extra"}``, written here in key order.
    """
    return _digest(
        '{"algos":' + _encode(algos)
        + ',"extra":' + _encode(extra)
        + ',"kind":' + _encode(kind)
        + ',"network":' + _quote(fingerprint_network(network))
        + ',"policy":' + _encode(policy)
        + ',"system":' + _encode(system)
        + "}"
    )
