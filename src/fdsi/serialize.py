"""Strict JSON serialization for instances and allocations.

File formats (canonical field order, integers only, no floats):

Instance file::

    {
      "agents": [{"id": "a1", "weight": 1, "aware": true}, ...],
      "items": ["g1", ...],
      "valuations": [[...], ...],   # one row per agent
      "impacts": [[...], ...]
    }

``weight`` defaults to 1 and ``aware`` to true; unknown keys are rejected,
and so is a key given twice in one object of either file.

Allocation file::

    {"bundles": {"a1": ["g1"], ...}}

Agents may be omitted (empty bundle); bundles must be disjoint and hold item
ids, which are strings.  A notion spec is no file format: ``Notion.parse``
reads it.
"""

from __future__ import annotations

# json.loads and json.dumps run these two C functions; importing them from
# _json skips the json package's Python layer and its regex compiles
from _json import encode_basestring_ascii, make_scanner

from .model import Allocation, Instance, ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from os import PathLike

_AGENT_KEYS = {"id", "weight", "aware"}
_INSTANCE_KEYS = {"agents", "items", "valuations", "impacts"}
_ALLOCATION_KEYS = {"bundles"}


def instance_to_obj(inst: Instance) -> dict:
    return {
        "agents": [
            {"id": inst.agents[i], "weight": inst.weights[i], "aware": inst.aware[i]}
            for i in range(inst.n)
        ],
        "items": list(inst.items),
        "valuations": [list(row) for row in inst.valuations],
        "impacts": [list(row) for row in inst.impacts],
    }


def instance_from_obj(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ValidationError("instance file must be a JSON object")
    unknown = set(obj) - _INSTANCE_KEYS
    if unknown:
        raise ValidationError(f"unknown instance keys: {sorted(unknown)}")
    missing = _INSTANCE_KEYS - set(obj)
    if missing:
        raise ValidationError(f"missing instance keys: {sorted(missing)}")
    if not isinstance(obj["agents"], list):
        raise ValidationError("agents must be a list")
    ids: list[str] = []
    weights: list[int] = []
    aware: list[bool] = []
    for entry in obj["agents"]:
        if not isinstance(entry, dict):
            raise ValidationError("each agent must be an object")
        bad = set(entry) - _AGENT_KEYS
        if bad:
            raise ValidationError(f"unknown agent keys: {sorted(bad)}")
        if "id" not in entry or not isinstance(entry["id"], str):
            raise ValidationError("each agent needs a string id")
        ids.append(entry["id"])
        weights.append(entry.get("weight", 1))
        flag = entry.get("aware", True)
        if not isinstance(flag, bool):
            raise ValidationError("agent aware flag must be a boolean")
        aware.append(flag)
    if not isinstance(obj["items"], list) or any(
        not isinstance(x, str) for x in obj["items"]
    ):
        raise ValidationError("items must be a list of strings")
    for key in ("valuations", "impacts"):
        matrix = obj[key]
        if not isinstance(matrix, list) or any(
            not isinstance(row, list) for row in matrix
        ):
            raise ValidationError(f"{key} must be a list of rows")
    # the constructor checks the shapes and entries
    return Instance(ids, obj["items"], obj["valuations"], obj["impacts"], weights, aware)


def allocation_to_obj(inst: Instance, alloc: Allocation) -> dict:
    return {
        "bundles": {
            inst.agents[i]: [inst.items[g] for g in sorted(alloc.bundles[i])]
            for i in range(inst.n)
        }
    }


def allocation_from_obj(inst: Instance, obj) -> Allocation:
    if not isinstance(obj, dict):
        raise ValidationError("allocation file must be a JSON object")
    unknown = set(obj) - _ALLOCATION_KEYS
    if unknown:
        raise ValidationError(f"unknown allocation keys: {sorted(unknown)}")
    if "bundles" not in obj or not isinstance(obj["bundles"], dict):
        raise ValidationError("allocation file needs a bundles object")
    agent_index = {a: i for i, a in enumerate(inst.agents)}
    item_index = {g: j for j, g in enumerate(inst.items)}
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    seen: set[int] = set()
    for agent_id, member_list in obj["bundles"].items():
        if agent_id not in agent_index:
            raise ValidationError(f"unknown agent id {agent_id!r}")
        if not isinstance(member_list, list):
            raise ValidationError(f"bundle of {agent_id!r} must be a list")
        for item_id in member_list:
            if not isinstance(item_id, str):
                raise ValidationError(f"bundle of {agent_id!r} holds a non-string item id")
            if item_id not in item_index:
                raise ValidationError(f"unknown item id {item_id!r}")
            g = item_index[item_id]
            if g in seen:
                raise ValidationError(f"item {item_id!r} appears in two bundles")
            seen.add(g)
            bundles[agent_index[agent_id]].add(g)
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


# how each scalar type is written; bool is its own type, so True is never 1
_SCALARS = {
    str: encode_basestring_ascii,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it when it starts at
    ``indent``.  A list whose entries are all of one scalar type is one
    C-level join, so only the containers cost Python steps."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("keys must be str")
        body = sep.join(
            f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in obj.items()
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:
            body = sep.join(map(scalar, obj))
        else:
            body = sep.join(_encode(x, inner) for x in obj)
        return f"[\n{inner}{body}\n{indent}]"
    # subclasses are written as their base, as json writes them
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj: dict) -> str:
    """The canonical text of every file and stdout fdsi writes: exactly
    ``json.dumps(obj, indent=2) + "\\n"`` (two-space indent, ASCII escapes,
    tuples as lists), without json's pure-Python indent encoder.  ``obj`` is
    built from dicts with string keys, lists, tuples, strings, ints, bools
    and None; anything else raises ``TypeError``."""
    return _encode(obj, "") + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice (``json`` alone
    keeps its last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


class _Settings:
    """The decoder attributes ``_json``'s scanner reads: strict strings,
    repeated keys refused, numbers and constants as ``json.loads`` parses
    them (``float("NaN")`` and ``float("-Infinity")`` are its constants)."""

    strict = True
    object_hook = None
    object_pairs_hook = staticmethod(_unique_keys)
    parse_float = float
    parse_int = int
    parse_constant = float


_scan_once = make_scanner(_Settings())
_WHITESPACE = " \t\n\r"  # what json skips around the value


def _decode_error(msg: str, text: str, pos: int) -> ValueError:
    from json.decoder import JSONDecodeError  # only an error needs json

    return JSONDecodeError(msg, text, pos)


def _loads(text: str):
    """``json.loads(text, object_pairs_hook=_unique_keys)``: the same value,
    or the same exception with the same message, from the same C scanner,
    with the four checks that ``json.loads`` makes in Python around it."""
    if text.startswith("\ufeff"):
        raise _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        obj, end = _scan_once(text, start)
    except StopIteration as err:
        raise _decode_error("Expecting value", text, err.value) from None
    except SystemError:
        # on Python 3.11 the scanner looks JSONDecodeError up in
        # sys.modules without importing it, so malformed text fails this way
        # until json.decoder is loaded; then the same scan raises json's error
        import json.decoder

        obj, end = _scan_once(text, start)
    end = len(text) - len(text[end:].lstrip(_WHITESPACE))
    if end != len(text):
        raise _decode_error("Extra data", text, end)
    return obj


def _read_json(path: str | PathLike):
    """Parse a UTF-8 JSON file.  Every way the text can be malformed raises
    :class:`ValidationError`: bad JSON, a leading byte order mark, data after
    the value, an empty file, bytes that are not UTF-8 (all ``ValueError``),
    a key given twice in one object, an integer too long to convert
    (``ValueError``) or nesting too deep to parse (``RecursionError``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _loads(fh.read())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def load_instance(path: str | PathLike) -> Instance:
    return instance_from_obj(_read_json(path))


def load_allocation(inst: Instance, path: str | PathLike) -> Allocation:
    return allocation_from_obj(inst, _read_json(path))


def save_instance(inst: Instance, path: str | PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance_to_obj(inst)))
