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

Files are written as one line of compact JSON, ``json.dumps`` of the
payload with its keys in the order above, and a newline; any layout loads.
Header fields are JSON integers >= 1, values are finite JSON numbers, and
every SPD matrix is validated on save and load: a file that parses is usable.
Floats survive a save/load round trip bit-exactly (JSON carries Python's
shortest round-trip representation).
"""

import hashlib
import itertools
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
    sha256: str | None = None  # hex digest of the file it was loaded from


@dataclass(frozen=True)
class TimeseriesDataset:
    trials: np.ndarray  # (n, channels, samples)
    labels: np.ndarray | None = None
    sha256: str | None = None  # hex digest of the file it was loaded from


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

    The file is read once, and the dataset's ``sha256`` is that of its bytes.
    Raises :class:`InvalidInput` naming the file, and the first offending
    record, if it cannot be read, is not UTF-8 JSON or breaks the schema.
    """
    path = str(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        raw = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path}: JSON nested too deeply to parse") from exc
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
    labels = _check_labels(raw.get("labels"), len(stack), path)
    return dataset(stack, labels, hashlib.sha256(data).hexdigest())


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

    Entries are JSON numbers (``np.asarray`` also parses ``"2"`` and
    ``true``).  The whole list is type-scanned, converted and checked at
    once; a list that fails is re-read record by record so the error names
    the first bad ``name``.
    """
    records = raw.get(key)
    if not isinstance(records, list) or not records:
        raise InvalidInput(f"{path}: {key} must be a nonempty list")
    size = math.prod(shape)
    try:
        if not set(map(type, itertools.chain.from_iterable(records))) <= {int, float}:
            raise InvalidInput(f"{key} hold an entry that is not a JSON number")
        stack = np.asarray(records, dtype=float)
        if stack.shape != (len(records), size):
            raise InvalidInput(f"{key} do not form a ({len(records)}, {size}) array")
        return check(stack.reshape(-1, *shape), name=key)
    except (TypeError, ValueError, OverflowError, SpdotError) as exc:
        for i, rec in enumerate(records):
            try:
                arr = np.asarray(rec, dtype=float)
            except (TypeError, ValueError, OverflowError) as err:
                raise InvalidInput(f"{path}: {name} {i} is not numeric ({err})") from err
            if arr.shape != (size,):
                got = f"{arr.size} entries" if arr.ndim == 1 else f"shape {arr.shape}"
                raise InvalidInput(
                    f"{path}: {name} {i} has {got}, expected a flat list of {size}"
                )
            bad = [v for v in rec if type(v) not in (int, float)]
            if bad:
                raise InvalidInput(
                    f"{path}: {name} {i} holds {bad[0]!r}, not a JSON number"
                )
            try:
                check(arr.reshape(shape), name=f"{name} {i}")
            except SpdotError as err:
                raise InvalidInput(f"{path}: {err}") from err
        raise InvalidInput(f"{path}: {exc}") from exc


def _save(path, kind, fields, key, stack, labels, check):
    """Write a ``kind`` dataset file: ``json.dumps(payload)`` and a newline, byte for byte.

    Only what the loader accepts, else nothing: a nonempty 3-D ``stack`` that
    passes ``check``, one integer label per record.  The header gives the
    trailing sizes under ``fields``.  One ``json.dumps`` call per record keeps
    the encoder from holding a string for every number in the file at once.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or not stack.size:
        raise InvalidInput(f"{path}: {key} must be a nonempty 3-D stack, got {stack.shape}")
    check(stack, name=f"{path}: {key}")
    if labels is not None:
        labels = _check_labels(np.asarray(labels).tolist(), len(stack), path).tolist()
    header = json.dumps({"kind": kind, **dict(zip(fields, stack.shape[1:]))})
    records = ", ".join(json.dumps(r.reshape(-1).tolist()) for r in stack)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{header[:-1]}, "{key}": [{records}], "labels": {json.dumps(labels)}}}\n')


def save_spd_dataset(path, matrices, labels=None):
    """Write an ``spd`` dataset file."""
    _save(path, "spd", ("dim", "dim"), "matrices", matrices, labels, manifold.check_spd)


def save_timeseries_dataset(path, trials, labels=None):
    """Write a ``timeseries`` dataset file."""
    _save(path, "timeseries", ("channels", "samples"), "trials", trials, labels,
          _check_finite)
