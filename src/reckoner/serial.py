"""Deterministic serialization and the JSON document codec.

Reports round-trip floats at 12 significant digits; checkpoints use Python's
shortest-exact float repr so reloads are bit-identical. Every JSON document
the package reads or writes goes through ``read_json`` and ``write_json``
(``write_jsonl`` for the training log); config dataclasses decode through
``JsonConfig``. Every artifact is written whole or not at all
(``write_text``, which JSON documents stream to in chunks), into a
directory made by ``make_dir``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import typing
from pathlib import Path
from typing import Any, Iterable

from .errors import ConfigError


def format_float(x: float | None) -> str:
    """Render a float with 12 significant digits for CSV output; None is empty."""
    return "" if x is None else f"{float(x):.12g}"


def round_float(x: float | None) -> float | None:
    """Round to the 12-significant-digit grid used by JSON reports; None stays."""
    return None if x is None else float(format_float(x))


def canonical_dumps(obj: Any) -> str:
    """JSON with sorted keys and fixed separators; stable across runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_of_obj(obj: Any) -> str:
    return sha256_hex(canonical_dumps(obj).encode("utf-8"))


def read_json(path: str | Path, what: str) -> Any:
    """Parse a UTF-8 JSON file; an unreadable or malformed one is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def make_dir(path: str | Path) -> Path:
    """Create the output directory ``path`` and its parents; one that cannot
    be made (a file is in the way, no permission) is a ConfigError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a str or an iterable of str chunks, as UTF-8 through a
    temp file in the target's directory, then ``os.replace`` it: a failed
    write, an error raised while the chunks are made included, leaves an
    existing target as it was and removes the temp file. An ``OSError`` on
    the way (the target is a directory, the disk is full) is a
    ConfigError."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                for chunk in [text] if isinstance(text, str) else text:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_json(path: str | Path, obj: Any) -> None:
    """Sorted keys, one-space indent, trailing newline: the bytes of
    ``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``. The encoder's
    chunks stream to the file, so the document is never one string; with
    ``indent`` set, ``json.dumps`` joins these same chunks."""
    encoder = json.JSONEncoder(sort_keys=True, indent=1)
    write_text(path, itertools.chain(encoder.iterencode(obj), ["\n"]))


def write_jsonl(path: str | Path, rows: list[dict]) -> None:
    """One sorted-key JSON object per line."""
    write_text(path, (json.dumps(r, sort_keys=True) + "\n" for r in rows))


class JsonConfig:
    """Strict JSON codec for a frozen config dataclass.

    ``from_dict`` accepts only a JSON object of the dataclass's fields and
    takes missing ones from its defaults. Each value must match its field's
    annotation: a bool only where a bool is expected, a non-bool int where
    an int is, ``None`` only where the annotation allows it, a finite int
    or float where a float is (stored as a float; NaN and infinities are
    rejected), and a list of objects where a ``tuple`` of ``JsonConfig``
    items is (``to_dict``'s tuples read back).
    """

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Any):
        name = cls.__name__
        if not isinstance(doc, dict):
            raise ConfigError(f"{name} must be a JSON object, got {type(doc).__name__}")
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        unknown = set(doc) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        values = {}
        for f in fields:
            if f.name in doc:
                values[f.name] = _decode(name, f.name, doc[f.name], hints[f.name])
            elif f.default is dataclasses.MISSING:
                raise ConfigError(f"{name} is missing key {f.name!r}")
        return cls(**values)


def _decode(owner: str, key: str, value: Any, annotation: Any) -> Any:
    allowed = typing.get_args(annotation) or (annotation,)
    if typing.get_origin(annotation) is tuple and type(value) in (list, tuple):
        return tuple(allowed[0].from_dict(item) for item in value)
    if float in allowed and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    elif type(value) in allowed:
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{owner} key {key!r} must be finite, got {value}")
        return value
    want = getattr(annotation, "__name__", annotation)
    raise ConfigError(f"{owner} key {key!r} must be {want}, got {type(value).__name__}")
