"""The on-disk convention of every file the toolkit reads or writes.

Files are UTF-8 with one trailing newline. Reports, configs and reward
specs are JSON indented by 2, for people to read. Datasets and probability
tables are compact JSON (no indent, no spaces) whose columns are base64
strings of binary buffers and bitmaps (format 3, read and written by
tridrive.model.RaggedColumns, to_buffer and to_bitmap), so json.dumps and
json.loads handle a few long strings rather than a number per entry. A
write goes to a temporary sibling that is renamed over the target, so a
crash leaves the old file or the new one, never half of either. Read
failures are FormatErrors.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import types
import typing
from pathlib import Path

from .errors import FormatError


def read_json(path: str | Path, what: str):
    """The parsed document at path; what names it in error messages."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable UTF-8, an integer literal past the digit limit
        raise FormatError(f"{path}: {exc}") from exc


def write_text(path: str | Path, text: str) -> Path:
    """Write text to path atomically, creating its directory; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Not named *.json, so globs over a stage's outputs never match it.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json(path: str | Path, doc) -> Path:
    return write_text(path, json.dumps(doc, indent=2) + "\n")


def write_compact_json(path: str | Path, doc) -> Path:
    return write_text(path, json.dumps(doc, separators=(",", ":")) + "\n")


def fields_from_json(
    cls, doc, what: str, exclude: tuple[str, ...] = (), finite: bool = True, keys=None
) -> dict:
    """Keyword arguments of dataclass cls read from the JSON object doc.

    Each key must name a field of cls outside exclude, each such field
    without a default must be present, and each value must have its field's
    type: a JSON integer for int, a JSON number for float (integers widen),
    a JSON bool for bool, never a bool for a number. A float must be finite
    unless finite is False, which leaves the range check to the class's
    validate(). keys maps a field name to its JSON key where the two differ.
    Nested dataclasses and enums are left for the caller to read.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    keys = keys or {}
    by_key = {
        keys.get(f.name, f.name): f for f in dataclasses.fields(cls) if f.name not in exclude
    }
    unknown = set(doc) - set(by_key)
    if unknown:
        raise FormatError(f"{what}: unknown keys {sorted(unknown)}")
    missing = [
        key
        for key, f in by_key.items()
        if key not in doc
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise FormatError(f"{what}: missing keys {missing}")
    hints = _type_hints(cls)
    return {
        by_key[key].name: _typed(value, hints[by_key[key].name], f"{what}: {key}", finite)
        for key, value in doc.items()
    }


@functools.cache
def _type_hints(cls) -> dict:
    """typing.get_type_hints(cls), computed once per class."""
    return typing.get_type_hints(cls)


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


def _typed(value, hint, where: str, finite: bool):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _typed(value, args[0], where, finite)
    if hint is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass  # stays an int, so it is rejected below
    if hint in _KINDS:
        if type(value) is not hint:
            raise FormatError(f"{where} must be {_KINDS[hint]}, got {value!r}")
        if hint is float and finite and not math.isfinite(value):
            raise FormatError(f"{where} must be a finite number, got {value!r}")
        return value
    if origin is list and isinstance(value, list):
        return [_typed(v, args[0], where, finite) for v in value]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_typed(v, a, where, finite) for v, a in zip(value, args))
    if origin is dict and isinstance(value, dict):
        return {k: _typed(v, args[1], f"{where}[{k!r}]", finite) for k, v in value.items()}
    if origin in (list, tuple, dict):
        shape = {list: "an array", tuple: f"an array of {len(args)}", dict: "an object"}
        raise FormatError(f"{where} must be {shape[origin]}, got {value!r}")
    return value
