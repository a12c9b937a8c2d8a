"""Adam optimizer with named parameter groups.

Groups exist so the trainer can drive one learning-rate schedule per
group; ``training`` decides which parameters share a group. A group
added mid-training (delayed insertion) starts with a fresh step counter,
so its bias correction treats it as newly initialized.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import copy_blobs
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

    def add_group(self, name, named_params, lr):
        """Register parameters as ``(slot_name, Parameter)`` pairs."""
        if name in self.groups:
            raise ValueError(f"optimizer group {name!r} already exists")
        entries = []
        for pname, p in named_params:
            entries.append({
                "name": pname,
                "param": p,
                "m": np.zeros_like(p.data),
                "v": np.zeros_like(p.data),
            })
        self.groups[name] = {"lr": float(lr), "t": 0, "entries": entries}

    def set_lr(self, name, lr):
        self.groups[name]["lr"] = float(lr)

    def zero_grad(self):
        for group in self.groups.values():
            for e in group["entries"]:
                e["param"].zero_grad()

    def step(self):
        for group in self.groups.values():
            if not group["entries"]:
                continue
            group["t"] += 1
            for e in group["entries"]:
                adam_step(e["param"].data, e["param"].grad, e["m"], e["v"],
                          group["t"], group["lr"])

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
        return {name: {"lr": g["lr"], "t": g["t"]} for name, g in self.groups.items()}

    def load_state(self, meta, blobs):
        """Restore every group's lr, step count and moments from ``meta``
        (as written by :meth:`meta`) and the moment blobs."""
        if set(meta) != set(self.groups):
            raise CheckpointError(f"optimizer groups {sorted(meta)} in the checkpoint "
                                  f"do not match {sorted(self.groups)}")
        for gname, info in meta.items():
            try:
                self.groups[gname].update(lr=float(info["lr"]), t=int(info["t"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"optimizer group {gname!r}: malformed state {exc!r}") from None
        copy_blobs(self.state_blobs().items(), blobs, "optimizer")
