"""Adam optimizer with named parameter groups.

Groups exist so the trainer can drive one learning-rate schedule per
group: ``step`` takes each group's rate, and no rate is stored.
``training`` decides which parameters share a group. A group added
mid-training (delayed insertion) starts with a fresh step counter, so its
bias correction treats it as newly initialized.

Each group keeps its values, gradients and moments in four flat
buffers. Adding a parameter copies it in and rebinds its ``data`` and
``grad`` to views of the buffers, so one elementwise ``adam_step`` per
group updates every parameter of the group in place, and the per-entry
moment views keep the checkpoint blobs per parameter. The checkpoint
metadata is each group's step count, ``{group: t}``.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import _count, copy_blobs
from .errors import CheckpointError

__all__ = ["adam_step", "Adam"]


def adam_step(value, grad, m, v, t, lr):
    """One in-place Adam update with beta1 = 0.9, beta2 = 0.999 and
    eps = 1e-8; ``t`` is the 1-based step count."""
    beta1, beta2 = 0.9, 0.999
    m += (1.0 - beta1) * (grad - m)
    v += (1.0 - beta2) * (grad * grad - v)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    value -= lr * mhat / (np.sqrt(vhat) + 1e-8)


class Adam:
    def __init__(self):
        self.groups = {}

    def add_group(self, name, named_params):
        """Register parameters as ``(slot_name, Parameter)`` pairs and move
        them into the group's flat buffers. A parameter already held by a
        group, or a group whose parameters differ in dtype, is refused:
        either would leave some buffer updating arrays no one reads."""
        if name in self.groups:
            raise ValueError(f"optimizer group {name!r} already exists")
        named_params = list(named_params)
        held = {id(e["param"]): gname
                for gname, group in self.groups.items() for e in group["entries"]}
        for pname, p in named_params:
            if id(p) in held:
                raise ValueError(
                    f"{pname}: already held by optimizer group {held[id(p)]!r}")
            held[id(p)] = name
        dtypes = sorted({p.dtype.name for _, p in named_params})
        if len(dtypes) > 1:
            raise ValueError(f"optimizer group {name!r} mixes dtypes {dtypes}")
        size = sum(p.size for _, p in named_params)
        value, grad, m, v = (np.zeros(size, dtype=dtypes[0] if dtypes else None)
                             for _ in range(4))
        entries, start = [], 0
        for pname, p in named_params:
            shape, span = p.shape, slice(start, start + p.size)
            start += p.size
            value[span], grad[span] = p.data.reshape(-1), p.grad.reshape(-1)
            p.data, p.grad = value[span].reshape(shape), grad[span].reshape(shape)
            entries.append({"name": pname, "param": p,
                            "m": m[span].reshape(shape), "v": v[span].reshape(shape)})
        self.groups[name] = {"t": 0, "entries": entries,
                             "value": value, "grad": grad, "m": m, "v": v}

    def zero_grad(self):
        for group in self.groups.values():
            group["grad"].fill(0)

    def step(self, rates):
        """One update of every group, group ``name`` at ``rates[name]``."""
        for name, group in self.groups.items():
            if not group["entries"]:
                continue
            group["t"] += 1
            adam_step(group["value"], group["grad"], group["m"], group["v"],
                      group["t"], rates[name])

    # -- checkpoint support ------------------------------------------------

    def state_blobs(self):
        """Moment arrays keyed ``opt.<m|v>.<group>.<param>`` for serialization."""
        blobs = {}
        for gname, group in self.groups.items():
            for e in group["entries"]:
                blobs[f"opt.m.{gname}.{e['name']}"] = e["m"]
                blobs[f"opt.v.{gname}.{e['name']}"] = e["v"]
        return blobs

    def meta(self):
        return {name: g["t"] for name, g in self.groups.items()}

    def load_state(self, meta, blobs):
        """Restore every group's step count (a non-negative int) and moments
        from ``meta`` (as :meth:`meta` writes it) and the moment blobs; an
        ``opt.`` blob that :meth:`state_blobs` does not name is refused."""
        if set(meta) != set(self.groups):
            raise CheckpointError(f"optimizer groups {sorted(meta)} in the checkpoint "
                                  f"do not match {sorted(self.groups)}")
        for gname, t in meta.items():
            if not _count(t):
                raise CheckpointError(f"optimizer group {gname!r}: step count {t!r} "
                                      "is not a non-negative int")
            self.groups[gname]["t"] = t
        copy_blobs(self.state_blobs(), blobs, ("opt.",), "the optimizer")
