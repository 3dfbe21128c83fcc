"""Loading of the pipeline's dataclasses from JSON documents, and their
writing back.

One loader serves every experiment config section and the headers of
dataset files and model checkpoints. It reads each field by its declared
type and rejects unknown keys, wrong types and non-finite numbers, naming
the field path. dump is its inverse: it writes the run manifest's config
and both artifact headers.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np


class ConfigError(ValueError):
    """Invalid or unknown configuration field; message carries the field path."""


def load(cls, doc, path: str = "", base=None):
    """Build dataclass `cls` from a JSON object. Omitted fields keep the values
    of `base`, or cls's defaults when base is None."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config root'}: expected an object")
    hints = typing.get_type_hints(cls)
    prefix = path + "." if path else ""
    for key in doc:
        if key not in hints:
            raise ConfigError(f"unknown config field: {prefix}{key}")
    kwargs = {key: _value(hints[key], value, prefix + key) for key, value in doc.items()}
    try:
        return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
    except (TypeError, ValueError) as exc:  # missing fields, or __post_init__ checks
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def _value(kind, value, path: str):
    if typing.get_origin(kind) is typing.Union:  # Optional[X]: null or an X
        (inner,) = [a for a in typing.get_args(kind) if a is not type(None)]
        return None if value is None else _value(inner, value, path)
    if dataclasses.is_dataclass(kind):
        if isinstance(value, list):  # a dataclass may be written as its fields in order
            names = [f.name for f in dataclasses.fields(kind)]
            if len(value) != len(names):
                raise ConfigError(f"{path}: expected {len(names)} values, got {value!r}")
            value = dict(zip(names, value))
        return load(kind, value, path)
    if typing.get_origin(kind) is tuple or kind is np.ndarray:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        args = typing.get_args(kind) or (float, ...)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} values, got {value!r}")
        items = tuple(_value(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
        return np.array(items, dtype=np.float64) if kind is np.ndarray else items
    if kind in (int, float):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not number or not math.isfinite(value) or (kind is int and not isinstance(value, int)):
            what = "an integer" if kind is int else "a finite number"
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return kind(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def dump(value):
    """The JSON value that load reads back as `value`: a dataclass becomes an
    object of its fields, a tuple or list a list, an ndarray its tolist()."""
    if dataclasses.is_dataclass(value):
        return {f.name: dump(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [dump(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
