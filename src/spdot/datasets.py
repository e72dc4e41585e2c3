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

Every SPD matrix is validated on load, so a file that parses is immediately
usable.  Floats survive a save/load round trip bit-exactly (JSON carries
Python's shortest round-trip representation).
"""

import hashlib
import json
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

    kind = raw.get("kind")
    if kind == "spd":
        return _load_spd(raw, path)
    if kind == "timeseries":
        return _load_timeseries(raw, path)
    raise InvalidInput(f"{path}: unknown dataset kind {kind!r}")


def _load_spd(raw, path):
    try:
        dim = int(raw["dim"])
        records = raw["matrices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: missing or malformed spd fields ({exc})") from exc
    if dim < 1 or not isinstance(records, list) or not records:
        raise InvalidInput(f"{path}: needs dim >= 1 and a nonempty matrix list")
    try:  # the whole stack at once; a bad file is re-read record by record
        flat = np.asarray(records, dtype=float)
        if flat.shape != (len(records), dim * dim):
            raise InvalidInput("ragged matrix records")
        matrices = manifold.check_spd(flat.reshape(-1, dim, dim), name="matrices")
    except (TypeError, ValueError, SpdotError):
        matrices = _spd_records(records, dim, path)
    labels = _check_labels(raw.get("labels"), len(records), path)
    return SpdDataset(matrices, labels)


def _spd_records(records, dim, path):
    """Validate ``records`` one by one, naming the first offending record."""
    matrices = np.empty((len(records), dim, dim))
    for i, rec in enumerate(records):
        arr = np.asarray(rec, dtype=float)
        if arr.shape != (dim * dim,):
            raise InvalidInput(
                f"{path}: matrix {i} has {arr.size} entries, expected {dim * dim}"
            )
        M = arr.reshape(dim, dim)
        try:
            manifold.check_spd(M, name=f"matrix {i}")
        except SpdotError as exc:  # symmetry or definiteness violation
            raise InvalidInput(f"{path}: {exc}") from exc
        matrices[i] = M
    return matrices


def _load_timeseries(raw, path):
    try:
        channels = int(raw["channels"])
        samples = int(raw["samples"])
        records = raw["trials"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(
            f"{path}: missing or malformed timeseries fields ({exc})"
        ) from exc
    if channels < 1 or samples < 1 or not isinstance(records, list) or not records:
        raise InvalidInput(
            f"{path}: needs channels >= 1, samples >= 1 and a nonempty trial list"
        )
    trials = np.empty((len(records), channels, samples))
    for i, rec in enumerate(records):
        arr = np.asarray(rec, dtype=float)
        if arr.shape != (channels * samples,):
            raise InvalidInput(
                f"{path}: trial {i} has {arr.size} entries, "
                f"expected {channels * samples}"
            )
        trials[i] = arr.reshape(channels, samples)
    labels = _check_labels(raw.get("labels"), len(records), path)
    return TimeseriesDataset(trials, labels)


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
