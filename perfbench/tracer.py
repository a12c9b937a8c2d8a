"""Outside-in layer tracing for the benchmark.

The tracer wraps the program's public functions where their callers look
them up (module attributes, class attributes and each graph node's
``layer.forward``), so nothing in ``src/`` changes. Every wrapped call
becomes a span ``[name, start, end, parent, node]`` kept in memory; the
``node`` field names the graph node whose forward was running when the
span (or, for backward closures, the tensor it belongs to) was created.

An *operation* is one closed-loop unit of work: a train step or an
inference call. Counts are kept per operation so that they can be
checked for exact repetition, and per-layer times are reported per
operation of the steady phase (the phase most operations are in, e.g.
the train steps after delayed insertion).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from shiftpose import autodiff as ad
from shiftpose import checkpoint, fsm, network, optim, synthdata, training
from shiftpose.autodiff import Parameter, Tensor

# ad.__all__ entries that are not tape operations
_NOT_OPS = {"Tensor", "Parameter", "tensor", "bilinear_sample", "conv_out_size"}
TAPE_OPS = tuple(n for n in ad.__all__ if n not in _NOT_OPS)

# every node name of the toy and 3block3fsm graphs; absent nodes report 0
NODES = ("stem", "stem2", "pool", "fsm1", "fsm2", "fsm3",
         "block1", "block2", "block3", "neck", "head")
CONV_OPS = ("conv2d", "conv1x1")
NORM_POOL_OPS = ("group_norm", "batch_norm", "max_pool2d", "relu")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for op in CONV_OPS:
        units.update({f"autodiff.{op}.fwd_ms": "ms", f"autodiff.{op}.bwd_ms": "ms",
                      f"autodiff.{op}.calls": "count",
                      f"autodiff.{op}.gflops": "GFLOP/s"})
    units.update({"fsm.shift.fwd_ms": "ms", "fsm.shift.bwd_ms": "ms",
                  "fsm.shift.mb_moved": "MB", "fsm.ca.fwd_ms": "ms",
                  "synthdata.augment_ms": "ms", "training.draw_batch_ms": "ms",
                  "synthdata.generate_s": "s",
                  "autodiff.backward_ms": "ms", "autodiff.tape_self_ms": "ms",
                  "autodiff.tape_nodes": "count", "autodiff.grad_buffers": "count",
                  "optim.step_ms": "ms", "optim.adam_calls": "count"})
    for op in NORM_POOL_OPS:
        units.update({f"autodiff.{op}.fwd_ms": "ms", f"autodiff.{op}.bwd_ms": "ms",
                      f"autodiff.{op}.calls": "count"})
    for node in NODES:
        units.update({f"network.{node}.fwd_ms": "ms", f"network.{node}.bwd_ms": "ms",
                      f"network.{node}.gflops": "GFLOP/s"})
    units.update({"network.activation_mb": "MB",
                  "checkpoint.load_ms": "ms", "checkpoint.save_ms": "ms",
                  "checkpoint.mb": "MB",
                  "training.loss_ms": "ms", "training.self_ms": "ms",
                  "trace.overhead_ms": "ms"})
    return units


def _conv_flops(out, weight):
    """Multiply-adds of a convolution, counted as 2 operations each."""
    return 2 * out.data.size * int(np.prod(weight.shape[1:]))


def count_grad_buffers(root):
    """Tape tensors other than parameters that hold a gradient buffer."""
    seen, stack, n = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.grad is not None and not isinstance(t, Parameter):
            n += 1
        stack.extend(t._parents)
    return n


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, node]
        self.ops = []            # (span index, phase, Counter)
        self.flops_by_node = {}  # node name -> forward ops per sample
        self.problems = []
        self._stack = []
        self._node = None
        self._idle = Counter()   # counts made outside any operation
        self._cur = self._idle
        self._patches = []
        self._watched = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, node=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._node if node is None else node]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def span(self, name, fn):
        return self._call(name, fn, (), {})

    def op(self, fn, phase=0):
        """Run one closed-loop operation as a root span with its own counts."""
        index, self._cur = len(self.spans), Counter()
        try:
            return self._call("op", fn, (), {})
        finally:
            self.ops.append((index, phase, self._cur))
            self._cur = self._idle

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_plain(self, owner, attr, name, count=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if count:
                self._cur[count] += 1
            return self._call(name, orig, args, kwargs)

        self._patch(owner, attr, wrapper)

    def _wrap_tape_op(self, owner, attr, label, measure=None):
        """Wrap an op that returns a tape tensor; its backward closure is
        wrapped too and tagged with the node that created it."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            out = self._call(label + ".fwd", orig, args, kwargs)
            cur = self._cur
            cur[label + ".calls"] += 1
            fwd_work = measure(out, args) if measure else None
            if fwd_work:
                cur[label + ".work_fwd"] += fwd_work[0]
            if out._backward is not None:
                cur["autodiff.tape_nodes"] += 1
                cur["network.activation_bytes"] += out.data.nbytes
                out._backward = self._wrap_backward(out._backward, label, fwd_work)
            return out

        self._patch(owner, attr, wrapper)

    def _wrap_backward(self, fn, label, work):
        node = self._node

        def traced(g):
            if work:
                self._cur[label + ".work_bwd"] += work[1]
            return self._call(label + ".bwd", fn, (g,), {}, node=node)

        return traced

    def install(self):
        def conv_work(out, args):
            f = _conv_flops(out, args[1])
            return (f, 2 * f)        # backward: weight and input gradients

        def shift_work(out, args):
            # essential traffic: forward reads the maps and writes the
            # output; backward reads the gradient and the maps and writes
            # the map gradient
            return (2 * out.data.nbytes, 3 * out.data.nbytes)

        for name in TAPE_OPS:
            self._wrap_tape_op(ad, name, f"autodiff.{name}",
                               conv_work if name in CONV_OPS else None)
        self._wrap_tape_op(fsm, "shift", "fsm.shift", shift_work)
        self._wrap_plain(fsm, "ca_forward", "fsm.ca.fwd")
        self._wrap_plain(training, "augment_sample", "synthdata.augment")
        self._wrap_plain(training.Trainer, "_draw_batch", "training.draw_batch")
        self._wrap_plain(training.Trainer, "_losses", "training.loss")
        self._wrap_plain(optim.Adam, "step", "optim.step")
        self._wrap_plain(optim.Adam, "zero_grad", "optim.zero_grad")
        self._wrap_plain(optim, "adam_step", "optim.adam_step", count="optim.adam_calls")
        self._wrap_plain(synthdata, "generate_dataset", "synthdata.generate")
        self._wrap_plain(checkpoint, "checkpoint_save", "checkpoint.save")
        self._wrap_plain(checkpoint, "checkpoint_load", "checkpoint.load")
        self._wrap_plain(checkpoint, "restore_graph_state", "checkpoint.restore")

        orig_backward = Tensor.backward

        def backward(t, seed=None):
            out = self._call("autodiff.backward", orig_backward, (t, seed), {})
            self._cur["autodiff.grad_buffers"] += count_grad_buffers(t)
            return out

        self._patch(Tensor, "backward", backward)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        for layer in self._watched:
            del layer.forward
        self._watched.clear()

    def watch_graph(self, graph, batch):
        """Trace each node's forward and take its work from ``count_flops``.

        ``count_flops`` is called without ``input_size``, which keeps shape
        inference on the graph's own sizes; the clamp bounds of the shifting
        modules are checked to be unchanged by it.
        """
        bounds = {n: m.clamp_bound for n, m in graph.fsm_layers()}
        report = network.count_flops(graph)
        if {n: m.clamp_bound for n, m in graph.fsm_layers()} != bounds:
            self.problems.append("count_flops changed a clamp bound")
        if sum(report.by_layer.values()) != report.flops:
            self.problems.append("per-node operations do not sum to CostReport.flops")
        self.flops_by_node = {n: ops * batch for n, ops in report.by_layer.items()}
        for node in graph.nodes:
            self._watch_node(node)

    def _watch_node(self, node):
        layer, orig, name = node.layer, node.layer.forward, node.name

        def forward(*args, **kwargs):
            prev, self._node = self._node, name
            try:
                return self._call(f"network.{name}.fwd", orig, args, kwargs)
            finally:
                self._node = prev

        layer.forward = forward
        self._watched.append(layer)

    # -- reduction -------------------------------------------------------------

    def check_counts(self):
        """Counts must repeat exactly for every operation of one phase."""
        first = {}
        for index, phase, counts in self.ops:
            ref = first.setdefault(phase, dict(counts))
            if dict(counts) != ref:
                diff = sorted(k for k in set(ref) | set(counts)
                              if ref.get(k, 0) != counts.get(k, 0))
                self.problems.append(
                    f"counts differ between operations of phase {phase}: {diff}")
                return False
        return True

    def layer_metrics(self, checkpoint_bytes=0):
        """Per-layer metrics per operation of the steady phase."""
        spans = self.spans
        root = [0] * len(spans)
        child = defaultdict(float)
        for i, (_, start, end, parent, _) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start

        phases = Counter(ph for _, ph, _ in self.ops)
        steady_phase = phases.most_common(1)[0][0]
        steady = [(i, c) for i, ph, c in self.ops if ph == steady_phase]
        steady_roots = {i for i, _ in steady}
        counts = steady[-1][1]
        n = len(steady)

        total, self_time = defaultdict(float), defaultdict(float)
        node_bwd = defaultdict(float)
        generate = setups = 0.0
        outside = defaultdict(list)
        for i, (name, start, end, parent, node) in enumerate(spans):
            d = end - start
            if root[i] in steady_roots:
                total[name] += d
                self_time[name] += d - child[i]
                if name.endswith(".bwd") and node:
                    node_bwd[node] += d
            elif name == "setup":
                setups += 1
            elif name == "synthdata.generate" and spans[root[i]][0] == "setup":
                generate += d
            elif name.startswith("checkpoint."):
                outside[name].append(d)

        def ms(name):
            return 1e3 * total[name] / n

        def gflops(work, seconds):
            return work / seconds / 1e9 if seconds > 0 else 0.0

        m = {}
        for op in CONV_OPS + NORM_POOL_OPS:
            label = f"autodiff.{op}"
            m[f"{label}.fwd_ms"] = ms(f"{label}.fwd")
            m[f"{label}.bwd_ms"] = ms(f"{label}.bwd")
            m[f"{label}.calls"] = counts[f"{label}.calls"]
            if op in CONV_OPS:
                work = counts[f"{label}.work_fwd"] + counts[f"{label}.work_bwd"]
                seconds = (total[f"{label}.fwd"] + total[f"{label}.bwd"]) / n
                m[f"{label}.gflops"] = gflops(work, seconds)
        m["fsm.shift.fwd_ms"] = ms("fsm.shift.fwd")
        m["fsm.shift.bwd_ms"] = ms("fsm.shift.bwd")
        m["fsm.shift.mb_moved"] = (counts["fsm.shift.work_fwd"]
                                   + counts["fsm.shift.work_bwd"]) / 1e6
        m["fsm.ca.fwd_ms"] = ms("fsm.ca.fwd")
        m["synthdata.augment_ms"] = ms("synthdata.augment")
        m["training.draw_batch_ms"] = ms("training.draw_batch")
        m["synthdata.generate_s"] = generate / setups if setups else 0.0
        m["autodiff.backward_ms"] = ms("autodiff.backward")
        m["autodiff.tape_self_ms"] = 1e3 * self_time["autodiff.backward"] / n
        m["autodiff.tape_nodes"] = counts["autodiff.tape_nodes"]
        m["autodiff.grad_buffers"] = counts["autodiff.grad_buffers"]
        m["optim.step_ms"] = ms("optim.step")
        m["optim.adam_calls"] = counts["optim.adam_calls"]
        for node in NODES:
            fwd = total[f"network.{node}.fwd"] / n
            m[f"network.{node}.fwd_ms"] = 1e3 * fwd
            m[f"network.{node}.bwd_ms"] = 1e3 * node_bwd[node] / n
            m[f"network.{node}.gflops"] = gflops(self.flops_by_node.get(node, 0), fwd)
        m["network.activation_mb"] = counts["network.activation_bytes"] / 1e6

        def mean_ms(name):
            d = outside[name]
            return 1e3 * sum(d) / len(d) if d else 0.0

        m["checkpoint.load_ms"] = mean_ms("checkpoint.load") + mean_ms("checkpoint.restore")
        m["checkpoint.save_ms"] = mean_ms("checkpoint.save")
        m["checkpoint.mb"] = checkpoint_bytes / 1e6
        m["training.loss_ms"] = ms("training.loss")
        m["training.self_ms"] = 1e3 * self_time["op"] / n
        return m

    def write_spans(self, path):
        """Spans as tab-separated rows; times in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\tnode\n")
            for i, (name, start, end, parent, node) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{parent}\t{node or ''}\n")
