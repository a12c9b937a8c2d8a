"""Single-file binary checkpoints.

Layout: magic ``SSNC``, little-endian u32 format version, u64 header
length, a JSON header (graph spec, iteration, generator state, optimizer
metadata, blob index, free-form extras), then the raw blob payload.
Values serialize as 32-bit little-endian floats. Saving refuses state
of any other dtype, which could not be restored exactly (a float64 graph
would resume rounded), and state holding a NaN or an infinity, which no
run can resume from; loading refuses a non-finite payload too. Writes go
to a temp file renamed into place.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import CheckpointError

__all__ = ["MAGIC", "FORMAT_VERSION", "checkpoint_save", "checkpoint_load",
           "restore_graph_state", "copy_blobs", "restore_rng"]

MAGIC = b"SSNC"
FORMAT_VERSION = 1

# JSON type of each header field, as checkpoint_save writes it
_HEADER_TYPES = {"graph": dict, "iteration": int, "rng_state": (dict, type(None)),
                 "optimizer": (dict, type(None)), "blobs": list, "extra": dict}


def restore_rng(state):
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt generator state: {exc!r}") from None
    return rng


def _nonfinite_blob(payload, index):
    """Name of the first blob in ``index`` holding a NaN or an infinity, or
    None. A finite payload costs one pass; index offsets are multiples of 4."""
    values = np.frombuffer(payload, dtype="<f4")
    if np.isfinite(values).all():
        return None
    for entry in index:
        start = entry["offset"] // 4
        if not np.isfinite(values[start:start + entry["nbytes"] // 4]).all():
            return entry["name"]
    return None


def _collect_blobs(graph, optimizer=None):
    blobs = {}
    for name, p in graph.named_parameters():
        blobs[f"param.{name}"] = p.data
    for name, b in graph.named_buffers():
        blobs[f"buffer.{name}"] = b
    if optimizer is not None:
        blobs.update(optimizer.state_blobs())
    return blobs


def checkpoint_save(path, graph, optimizer=None, rng=None, iteration=0, extra=None):
    """Serialize graph parameters/buffers, optimizer state, and the
    generator state; returns the number of bytes written."""
    blobs = _collect_blobs(graph, optimizer)
    index = []
    payload = bytearray()
    for name in blobs:
        if blobs[name].dtype != np.float32:
            raise CheckpointError(f"{name}: cannot store {blobs[name].dtype} state "
                                  "exactly; checkpoints hold float32 only")
        arr = np.ascontiguousarray(blobs[name], dtype="<f4")
        index.append({"name": name, "shape": list(arr.shape),
                      "offset": len(payload), "nbytes": arr.nbytes})
        payload += arr.tobytes()
    bad = _nonfinite_blob(payload, index)
    if bad is not None:
        raise CheckpointError(f"{bad}: holds non-finite values; refusing to save "
                              "state no run can resume from")
    header = {
        "graph": graph.spec(),
        "iteration": int(iteration),
        "rng_state": None if rng is None else rng.bit_generator.state,
        "optimizer": None if optimizer is None else optimizer.meta(),
        "blobs": index,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header).encode()
    out = bytearray()
    out += MAGIC
    out += np.uint32(FORMAT_VERSION).tobytes()
    out += np.uint64(len(header_bytes)).tobytes()
    out += header_bytes
    out += payload

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(out)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(out)


def _index_entry_ok(entry):
    def count(v):
        return type(v) is int and v >= 0

    return (isinstance(entry, dict)
            and set(entry) == {"name", "shape", "offset", "nbytes"}
            and isinstance(entry["name"], str)
            and isinstance(entry["shape"], list)
            and all(map(count, [entry["offset"], entry["nbytes"], *entry["shape"]]))
            and entry["offset"] % 4 == 0)


def checkpoint_load(path):
    """Parse and validate a checkpoint; returns (header, {blob name: array}).

    Rejects bad magic, unknown versions, truncated or overlong files (with
    the expected/actual byte counts), headers that are not a JSON mapping or
    lack a field of the type ``checkpoint_save`` writes, blob-index entries
    that do not describe an aligned float32 array inside the payload, and
    blobs holding a NaN or an infinity.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise CheckpointError(f"truncated checkpoint: expected >= 16 bytes, got {len(raw)}")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unknown checkpoint version {version}, this build reads {FORMAT_VERSION}")
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    if len(raw) < 16 + header_len:
        raise CheckpointError(
            f"truncated header: expected {16 + header_len} bytes, got {len(raw)}")
    try:
        header = json.loads(raw[16:16 + header_len].decode())
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(
            f"corrupt header: expected a mapping, got {type(header).__name__}")
    for key, kind in _HEADER_TYPES.items():
        if key not in header or not isinstance(header[key], kind):
            raise CheckpointError(f"corrupt header: field {key!r} is missing or malformed")
    index = header["blobs"]
    if not all(map(_index_entry_ok, index)):
        raise CheckpointError("corrupt header: malformed blob index")
    payload = raw[16 + header_len:]
    expected = sum(b["nbytes"] for b in index)
    if len(payload) != expected:
        what = "truncated payload" if len(payload) < expected else "overlong payload"
        raise CheckpointError(f"{what}: expected {expected} bytes, got {len(payload)}")
    blobs = {}
    for entry in index:
        name, shape = entry["name"], entry["shape"]
        start, n = entry["offset"], entry["nbytes"]
        if start + n > len(payload):
            raise CheckpointError(
                f"blob {name}: bytes {start}..{start + n} lie outside the "
                f"{len(payload)}-byte payload")
        need = math.prod(shape) * 4
        if need != n:
            raise CheckpointError(
                f"blob {name}: shape {shape} needs {need} bytes, index says {n}")
        arr = np.frombuffer(payload[start:start + n], dtype="<f4")
        blobs[name] = arr.reshape(shape).copy()
    bad = _nonfinite_blob(payload, index)
    if bad is not None:
        raise CheckpointError(f"blob {bad}: holds non-finite values")
    return header, blobs


def copy_blobs(targets, blobs, what):
    """Copy ``blobs[key]`` into each ``(key, array)`` target, casting to the
    target's dtype; every key needs a blob of the target's shape."""
    for key, arr in targets:
        if key not in blobs:
            raise CheckpointError(f"missing {what} blob {key}")
        if blobs[key].shape != arr.shape:
            raise CheckpointError(
                f"blob {key}: shape {blobs[key].shape} does not match {arr.shape}")
        arr[...] = blobs[key]


def restore_graph_state(graph, blobs):
    """Copy parameter/buffer blobs into a graph rebuilt from the spec."""
    copy_blobs([(f"param.{n}", p.data) for n, p in graph.named_parameters()],
               blobs, "parameter")
    copy_blobs([(f"buffer.{n}", b) for n, b in graph.named_buffers()],
               blobs, "buffer")
