"""JSON dataset files shared by the CLI commands.

Two kinds, both with row-major flattened float arrays:

``spd``::

    {"kind": "spd", "dim": d,
     "matrices": [[d*d floats], ...],
     "labels": [int, ...] | null}

``timeseries``::

    {"kind": "timeseries", "channels": d, "samples": M,
     "trials": [[d*M floats], ...],
     "labels": [int, ...] | null}

Header fields are JSON integers >= 1, values are finite, and every SPD
matrix is validated on load, so a file that parses is immediately usable.
Floats survive a save/load round trip bit-exactly (JSON carries Python's
shortest round-trip representation).
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import manifold
from .errors import InvalidInput, SpdotError


@dataclass(frozen=True)
class SpdDataset:
    matrices: np.ndarray  # (n, dim, dim)
    labels: np.ndarray | None = None


@dataclass(frozen=True)
class TimeseriesDataset:
    trials: np.ndarray  # (n, channels, samples)
    labels: np.ndarray | None = None


def _check_labels(labels, count, path):
    if labels is None:
        return None
    if not isinstance(labels, list) or len(labels) != count:
        raise InvalidInput(f"{path}: labels must be a list of {count} integers")
    for i, label in enumerate(labels):  # JSON true/false load as bool, an int subclass
        if type(label) is not int or abs(label) >= 2**63:
            raise InvalidInput(f"{path}: label {i} is {label!r}, not a 64-bit integer")
    return np.array(labels, dtype=np.int64)


def load_dataset(path):
    """Load a dataset file; returns :class:`SpdDataset` or :class:`TimeseriesDataset`.

    Raises :class:`InvalidInput` naming the file and the first offending
    record on any schema or invariant violation.
    """
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InvalidInput(f"{path}: expected a JSON object, got {type(raw).__name__}")

    kind = raw.get("kind")
    if kind == "spd":
        dim = _size(raw, "dim", path)
        stack = _records(raw, "matrices", "matrix", (dim, dim), manifold.check_spd, path)
        dataset = SpdDataset
    elif kind == "timeseries":
        shape = (_size(raw, "channels", path), _size(raw, "samples", path))
        stack = _records(raw, "trials", "trial", shape, _check_finite, path)
        dataset = TimeseriesDataset
    else:
        raise InvalidInput(f"{path}: unknown dataset kind {kind!r}")
    return dataset(stack, _check_labels(raw.get("labels"), len(stack), path))


def _size(raw, key, path):
    """Header field ``key``, a JSON integer >= 1 (``true`` loads as a bool)."""
    value = raw.get(key)
    if type(value) is not int or value < 1:
        raise InvalidInput(f"{path}: {key} must be an integer >= 1, got {value!r}")
    return value


def _check_finite(stack, name):
    if not np.isfinite(stack).all():
        raise InvalidInput(f"{name} has non-finite values")
    return stack


def _records(raw, key, name, shape, check, path):
    """``raw[key]``, flat records of ``shape``, as one stack that passes ``check``.

    The whole list is converted and checked at once; a list that fails is
    re-read record by record so the error names the first bad ``name``.
    """
    records = raw.get(key)
    if not isinstance(records, list) or not records:
        raise InvalidInput(f"{path}: {key} must be a nonempty list")
    size = math.prod(shape)
    try:
        stack = np.asarray(records, dtype=float)
        if stack.shape != (len(records), size):
            raise InvalidInput(f"{key} do not form a ({len(records)}, {size}) array")
        return check(stack.reshape(-1, *shape), name=key)
    except (TypeError, ValueError, SpdotError) as exc:
        for i, rec in enumerate(records):
            try:
                arr = np.asarray(rec, dtype=float)
            except (TypeError, ValueError) as err:
                raise InvalidInput(f"{path}: {name} {i} is not numeric ({err})") from err
            if arr.shape != (size,):
                got = f"{arr.size} entries" if arr.ndim == 1 else f"shape {arr.shape}"
                raise InvalidInput(
                    f"{path}: {name} {i} has {got}, expected a flat list of {size}"
                )
            try:
                check(arr.reshape(shape), name=f"{name} {i}")
            except SpdotError as err:
                raise InvalidInput(f"{path}: {err}") from err
        raise InvalidInput(f"{path}: {exc}") from exc


def _indented(value, depth):
    """``json.dumps(value, indent=1)`` for a value nested ``depth`` levels deep.

    Handles scalars, lists of numbers and lists of such lists.  A list of
    numbers goes through the C encoder in one call and gets its line breaks
    spliced in afterwards: no JSON number contains ``", "``.
    """
    if not isinstance(value, list) or not value:
        return json.dumps(value)
    pad = "\n" + " " * (depth + 1)
    if isinstance(value[0], list):
        body = ("," + pad).join(_indented(v, depth + 1) for v in value)
    else:
        body = json.dumps(value)[1:-1].replace(", ", "," + pad)
    return "[" + pad + body + "\n" + " " * depth + "]"


def _dump(path, payload):
    """Write ``json.dump(payload, indent=1)`` and a newline, byte for byte.

    ``payload`` is a flat dict of scalars, lists of numbers and lists of
    such lists; :func:`_indented` encodes them far faster than the
    pure-Python indenting encoder.
    """
    fields = [f"{json.dumps(k)}: {_indented(v, 1)}" for k, v in payload.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n " + ",\n ".join(fields) + "\n}\n")


def save_spd_dataset(path, matrices, labels=None):
    """Write an ``spd`` dataset file."""
    matrices = np.asarray(matrices, dtype=float)
    payload = {
        "kind": "spd",
        "dim": int(matrices.shape[-1]),
        "matrices": [m.reshape(-1).tolist() for m in matrices],
        "labels": None if labels is None else [int(x) for x in labels],
    }
    _dump(path, payload)


def save_timeseries_dataset(path, trials, labels=None):
    """Write a ``timeseries`` dataset file."""
    trials = np.asarray(trials, dtype=float)
    payload = {
        "kind": "timeseries",
        "channels": int(trials.shape[1]),
        "samples": int(trials.shape[2]),
        "trials": [t.reshape(-1).tolist() for t in trials],
        "labels": None if labels is None else [int(x) for x in labels],
    }
    _dump(path, payload)


def file_digest(path):
    """Hex SHA-256 digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
