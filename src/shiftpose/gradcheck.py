"""Finite-difference validation of analytic gradients.

The harness contracts an operation's output with a fixed random
projection to obtain a scalar, then compares its ``autodiff.grad`` gradients
against central differences taken independently per scalar input.
Double precision inputs and a step around 1e-3 put the truncation error
orders of magnitude below the 1e-4 acceptance tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = ["GradCheckReport", "finite_diff_gradcheck"]


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    checked: int = 0
    message: str = ""

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"gradcheck {status}: max_rel_error={self.max_rel_error:.3e} "
                f"(tol {self.tolerance:.1e}, {self.checked} scalars){self.message}")


def finite_diff_gradcheck(fn, inputs, step=1e-3, tolerance=1e-4, seed=0):
    """Check ``fn``'s backward against central finite differences.

    ``fn`` maps the given tensors to a single output tensor and must be a
    pure function of their ``data`` (stateful layers should be wrapped so
    each call sees fresh running buffers). Inputs should sit away from
    non-smooth points; the stock battery in ``verify`` keeps offsets at
    least 0.12 from integers and relu pre-activations at least 0.05 from
    zero.
    """
    rng = np.random.default_rng(seed)
    out = fn(*inputs)
    proj = rng.standard_normal(out.shape).astype(out.dtype)
    if not np.isfinite(out.data).all():
        return GradCheckReport(np.inf, tolerance, False,
                               message="; non-finite forward output")

    analytic = ad.grad(out, inputs, proj)

    def loss_value():
        return float((fn(*inputs).data * proj).sum())

    max_rel = 0.0
    checked = 0
    for idx, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = loss_value()
            flat[i] = orig - step
            minus = loss_value()
            flat[i] = orig
            num[i] = (plus - minus) / (2.0 * step)
        ana = analytic[idx].reshape(-1)
        if not (np.isfinite(num).all() and np.isfinite(ana).all()):
            return GradCheckReport(np.inf, tolerance, False, checked,
                                   message=f"; non-finite gradient on input {idx}")
        # elements far below the tensor's gradient scale carry only
        # finite-difference noise; compare them at that scale instead
        scale = max(np.abs(ana).max(), np.abs(num).max()) if flat.size else 0.0
        floor = max(1e-6, 1e-3 * scale)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        rel = float((np.abs(ana - num) / denom).max()) if flat.size else 0.0
        max_rel = max(max_rel, rel)
        checked += flat.size

    return GradCheckReport(max_rel, tolerance, max_rel < tolerance, checked)
