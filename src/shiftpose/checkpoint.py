"""Single-file binary checkpoints.

Layout: magic ``SSNC``, little-endian u32 format version, u64 header
length, a JSON header (graph spec, iteration, generator state, optimizer
metadata, blob index, free-form extras), then the raw blob payload. The
format version covers the graph spec too, and every checkpoint can resume
a run. A blob index entry is a name and a shape: the blobs lie back to
back in index order as 32-bit little-endian floats, so each starts where
the values before it end, and the payload holds 4 bytes per value.
Loading refuses a repeated name and any blob name outside the writer's
``param.``, ``buffer.`` and ``opt.``, and restoring refuses a blob that no
slot of its graph or optimizer takes. Saving refuses state of any other
dtype, which could not be restored exactly (a float64 graph would resume
rounded), and state holding a NaN or an infinity, which no run can resume
from; loading refuses a non-finite blob too.
Writes go to a temp file renamed into place.
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
FORMAT_VERSION = 3
# the blob name prefixes checkpoint_save writes: graph state, then optimizer state
_BLOB_PREFIXES = ("param.", "buffer.", "opt.")

# JSON type of each header field, as checkpoint_save writes it
_HEADER_TYPES = {"graph": dict, "iteration": int, "rng_state": dict,
                 "optimizer": dict, "blobs": list, "extra": dict}


def _count(v):
    return type(v) is int and v >= 0


def restore_rng(state):
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt generator state: {exc!r}") from None
    return rng


def _graph_blobs(graph):
    """A graph's state as ``(blob name, array)`` in graph order: each
    parameter as ``param.<node>.<slot>``, then each buffer as ``buffer.``."""
    return ([(f"param.{n}", p.data) for n, p in graph.named_parameters()]
            + [(f"buffer.{n}", b) for n, b in graph.named_buffers()])


def _nonfinite_blob(blobs):
    """Name of the first blob holding a NaN or an infinity, or None."""
    return next((name for name, arr in blobs.items() if not np.isfinite(arr).all()),
                None)


def checkpoint_save(path, graph, optimizer, rng, iteration=0, extra=None):
    """Serialize graph parameters/buffers, optimizer state, and the
    generator state; returns the number of bytes written."""
    blobs = dict(_graph_blobs(graph)) | optimizer.state_blobs()
    for name, arr in blobs.items():
        if arr.dtype != np.float32:
            raise CheckpointError(f"{name}: cannot store {arr.dtype} state "
                                  "exactly; checkpoints hold float32 only")
    bad = _nonfinite_blob(blobs)
    if bad is not None:
        raise CheckpointError(f"{bad}: holds non-finite values; refusing to save "
                              "state no run can resume from")
    header = json.dumps({
        "graph": graph.spec(),
        "iteration": int(iteration),
        "rng_state": rng.bit_generator.state,
        "optimizer": optimizer.meta(),
        "blobs": [{"name": name, "shape": list(arr.shape)} for name, arr in blobs.items()],
        "extra": extra or {},
    }).encode()
    out = b"".join([MAGIC, np.uint32(FORMAT_VERSION).tobytes(),
                    np.uint64(len(header)).tobytes(), header]
                   + [arr.astype("<f4", copy=False).tobytes() for arr in blobs.values()])

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


def checkpoint_load(path):
    """Parse and validate a checkpoint; returns (header, {blob name: array}).

    Rejects bad magic, unknown versions, truncated or overlong files (with
    the expected/actual byte counts), headers that are not a JSON mapping or
    lack a field of the type ``checkpoint_save`` writes, an iteration that
    is not a non-negative int, a blob index other than the one
    ``checkpoint_save`` writes (unique names under its name prefixes, each
    with a shape), and blobs holding a NaN or an infinity. Each blob starts
    where the values of the blobs before it end; the blobs are views of one
    array of the payload.
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
    if not _count(header["iteration"]):
        raise CheckpointError("corrupt header: iteration is not a non-negative int")
    index, names, ends = header["blobs"], set(), [0]
    for e in index:
        # the entry checkpoint_save writes: a new name under its prefixes
        # and the shape of its float32 array
        if not (isinstance(e, dict) and set(e) == {"name", "shape"}
                and isinstance(e["name"], str) and e["name"] not in names
                and e["name"].startswith(_BLOB_PREFIXES)
                and isinstance(e["shape"], list) and all(map(_count, e["shape"]))):
            raise CheckpointError("corrupt header: malformed blob index")
        names.add(e["name"])
        ends.append(ends[-1] + math.prod(e["shape"]))
    size, total = len(raw) - 16 - header_len, 4 * ends[-1]
    if size != total:
        what = "truncated payload" if size < total else "overlong payload"
        raise CheckpointError(f"{what}: expected {total} bytes, got {size}")
    values = np.frombuffer(raw, dtype="<f4", offset=16 + header_len).copy()
    blobs = {e["name"]: values[lo:hi].reshape(e["shape"])
             for e, lo, hi in zip(index, ends, ends[1:])}
    bad = _nonfinite_blob(blobs)
    if bad is not None:
        raise CheckpointError(f"blob {bad}: holds non-finite values")
    return header, blobs


def copy_blobs(targets, blobs, prefixes, owner):
    """Copy ``blobs[key]`` into the array of each key of the ``targets``
    mapping, casting to the target's dtype; every key needs a blob of the
    target's shape, and every blob named under ``prefixes`` needs a
    target: one that ``owner`` has no slot for is refused."""
    unread = next((name for name in blobs
                   if name.startswith(prefixes) and name not in targets), None)
    if unread is not None:
        raise CheckpointError(f"blob {unread}: {owner} has no slot for it")
    for key, arr in targets.items():
        if key not in blobs:
            raise CheckpointError(f"missing blob {key}")
        if blobs[key].shape != arr.shape:
            raise CheckpointError(
                f"blob {key}: shape {blobs[key].shape} does not match {arr.shape}")
        arr[...] = blobs[key]


def restore_graph_state(graph, blobs):
    """Copy parameter/buffer blobs into a graph rebuilt from the spec; a
    ``param.`` or ``buffer.`` blob that no graph slot takes is refused."""
    copy_blobs(dict(_graph_blobs(graph)), blobs, ("param.", "buffer."), "the graph")
