"""The on-disk convention of every file the toolkit reads or writes.

Reports, configs and reward specs are UTF-8 JSON indented by 2, for people
to read, with one trailing newline. A spec, schema or config is a dataclass
document: to_json writes it and from_json reads it back, checking every key
and type. Datasets and probability tables are column files (format 4): the
line MAGIC, one compact JSON header line, then the raw little-endian
buffers of the columns the header lists (read and written by
tridrive.model.RaggedColumns and pack_columns), so a load is one read, one
small JSON parse and a view per column. A write goes to a temporary
sibling that is renamed over the target, so a crash leaves the old file or
the new one, never half of either. Read failures are FormatErrors.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import types
import typing
from collections.abc import Mapping
from enum import Enum
from pathlib import Path

from .errors import FormatError


# The first line of a column file; its number is the format's.
MAGIC = b"TRIDRIVE COLUMNS 4\n"


def _read_bytes(path: str | Path, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, what: str):
    """The parsed document at path; what names it in error messages."""
    raw = _read_bytes(path, what)
    if raw.startswith(MAGIC):
        raise FormatError(
            f"{path}: a column file (a dataset or probability table), not the JSON {what}"
        )
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, deep nesting
        raise FormatError(f"{path}: {exc}") from exc


def write_bytes(path: str | Path, *chunks: bytes) -> Path:
    """Write the chunks, in order, to path atomically, creating its
    directory; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Not named *.json, so globs over a stage's outputs never match it.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_text(path: str | Path, text: str) -> Path:
    return write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, doc) -> Path:
    return write_text(path, json.dumps(doc, indent=2) + "\n")


def write_columns(path: str | Path, header: dict, data: bytes) -> Path:
    """Write a column file: MAGIC, header as one line of compact JSON,
    padded with spaces so that data, the buffer section, starts at a
    multiple of 8 bytes, then data."""
    line = json.dumps(header, separators=(",", ":")).encode("ascii")
    pad = -(len(MAGIC) + len(line) + 1) % 8
    return write_bytes(path, MAGIC, line, b" " * pad + b"\n", data)


def read_columns(path: str | Path, what: str) -> tuple[dict, memoryview]:
    """The header and the buffer section of the column file at path, read
    at once; what names it in error messages. The header is only parsed:
    its columns are checked by whoever reads them."""
    raw = _read_bytes(path, what)
    if not raw.startswith(MAGIC):
        raise FormatError(f"{what} {path}: {_not_a_column_file(raw)}")
    end = raw.find(b"\n", len(MAGIC))
    if end < 0:
        raise FormatError(f"{what} {path}: the header line has no end")
    if (end + 1) % 8:
        raise FormatError(
            f"{what} {path}: the buffers start at byte {end + 1}, not a multiple of 8"
        )
    try:
        header = json.loads(raw[len(MAGIC) : end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, deep nesting
        raise FormatError(f"{what} {path}: invalid header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{what} {path}: the header must be a JSON object")
    return header, memoryview(raw)[end + 1 :]


_JSON_FORMAT = re.compile(rb'\s*\{\s*"format"\s*:\s*(\d{1,9})\b')


def _not_a_column_file(raw: bytes) -> str:
    """Why raw is not read: the earlier format it has, if it has one."""
    found = _JSON_FORMAT.match(raw)
    if found:
        kind = {3: " (columns as base64 text in JSON)", 2: " (numbers as JSON text)"}
        number = int(found[1])
        old = f"a format-{number} file{kind.get(number, '')}"
    elif raw.lstrip()[:1] == b"{":
        old = "a JSON file without a format number, as in the one-object-per-row format"
    else:
        return f"not a format-4 column file (its first line is not {MAGIC.decode().strip()!r})"
    return f"{old}, which this version no longer reads; regenerate it in format 4"


def fields_from_json(
    cls, doc, what: str, exclude: tuple[str, ...] = (), finite: bool = True
) -> dict:
    """Keyword arguments of dataclass cls read from the JSON object doc.

    Each key must name a field of cls outside exclude (under its JSON key:
    the field's metadata "json", else its name), each such field without a
    default must be present, and each value must have its field's type: a
    JSON integer for int, a JSON number for float (integers widen), a JSON
    bool for bool, never a bool for a number, an enum's value for an enum,
    and for a dataclass an object of its fields, read by these rules and
    then made. A float must be finite unless finite is False, which leaves
    the range check to the class's validate().
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    by_key = {_key(f): f for f in dataclasses.fields(cls) if f.name not in exclude}
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
        by_key[key].name: from_json(value, hints[by_key[key].name], f"{what}: {key}", finite)
        for key, value in doc.items()
    }


def to_json(value):
    """The JSON form of value, which from_json reads back: a dataclass as
    an object of its fields in field order, under their JSON keys, leaving
    out those that are None; an enum as its value; a mapping with its keys
    sorted; a tuple or list as an array; a number, string or bool as itself."""
    if type(value) in _KINDS:
        return value
    if dataclasses.is_dataclass(value):
        return {
            _key(f): to_json(item)
            for f in dataclasses.fields(value)
            if (item := getattr(value, f.name)) is not None
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {key: to_json(value[key]) for key in sorted(value)}
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    return value


def _key(f: dataclasses.Field) -> str:
    """The JSON key of dataclass field f."""
    return f.metadata.get("json", f.name)


@functools.cache
def _type_hints(cls) -> dict:
    """typing.get_type_hints(cls), computed once per class."""
    return typing.get_type_hints(cls)


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


def from_json(value, hint, what: str, finite: bool = True):
    """The value of type hint read from the JSON value by the rules of
    fields_from_json; what names it in error messages."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else from_json(value, args[0], what, finite)
    if hint is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass  # stays an int, so it is rejected below
    if hint in _KINDS:
        if type(value) is not hint:
            raise FormatError(f"{what} must be {_KINDS[hint]}, got {value!r}")
        if hint is float and finite and not math.isfinite(value):
            raise FormatError(f"{what} must be a finite number, got {value!r}")
        return value
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            parent, _, key = what.rpartition(": ")
            raise FormatError(f"{parent}: unknown {key} {value!r}") from None
    if dataclasses.is_dataclass(hint):
        return hint(**fields_from_json(hint, value, what, finite=finite))
    if origin is list and isinstance(value, list):
        return [from_json(v, args[0], what, finite) for v in value]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(from_json(v, a, what, finite) for v, a in zip(value, args))
    if origin is dict and isinstance(value, dict):
        return {k: from_json(v, args[1], f"{what}[{k!r}]", finite) for k, v in value.items()}
    if origin in (list, tuple, dict):
        shape = {list: "an array", tuple: f"an array of {len(args)}", dict: "an object"}
        raise FormatError(f"{what} must be {shape[origin]}, got {value!r}")
    return value
