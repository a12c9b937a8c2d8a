"""Network construction: layers, graphs, builders, and cost accounting.

A :class:`NetworkGraph` is an ordered list of named nodes. Each node
names its inputs, so sequential backbones and the U-shaped variant with
top-down addition both fit the same structure. Output shapes are
validated at build time; the last node is the main predictor and extra
head nodes (early-stage predictors) branch off named layers.
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import InitVar, asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, conv_out_size, default_groups
from .config import _read, _value
from .errors import ConfigError, DimensionError
from .fsm import FeatureShiftModule

__all__ = [
    "NetworkGraph", "ConvBlock", "Bottleneck", "MaxPool",
    "UpsampleAdd", "build_3block3fsm", "build_toy_fsm_net", "build_fpn_ssn",
    "attach_esp", "count_params", "count_flops", "CostReport",
]


def _he_conv(rng, out_ch, in_ch, kh, kw, dtype):
    std = np.sqrt(2.0 / (in_ch * kh * kw))
    return Parameter((rng.standard_normal((out_ch, in_ch, kh, kw)) * std).astype(dtype))


@dataclass(eq=False)
class ConvBlock:
    """Convolution with optional norm and ReLU (one Table-style row).

    A ReLU after a norm runs in the norm's pass (``relu=True``); only a
    block with no norm runs it as ``ad.relu``."""

    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 0
    norm: str = None
    act: str = None
    bias: bool = False
    rng: InitVar = None
    dtype: InitVar = np.float32

    kind = "conv"

    def __post_init__(self, rng, dtype):
        rng = rng or np.random.default_rng()
        k = self.kernel
        self.weight = _he_conv(rng, self.out_ch, self.in_ch, k, k, dtype)
        self.bias_param = (Parameter(np.zeros(self.out_ch, dtype=dtype))
                           if self.bias else None)
        c = self.out_ch
        if self.norm:
            self.norm_scale = Parameter(np.ones(c, dtype=dtype))
            self.norm_offset = Parameter(np.zeros(c, dtype=dtype))
        if self.norm == "bn":
            self.running_mean = np.zeros(c, dtype=dtype)
            self.running_var = np.ones(c, dtype=dtype)
        elif self.norm == "gn" and c % default_groups(c):
            raise ConfigError("norm.groups", f"{default_groups(c)} does not divide {c}")
        elif self.norm not in (None, "gn"):
            raise ConfigError("norm.kind", f"unknown norm kind {self.norm!r}")

    def forward(self, x, mode):
        out = ad.conv2d(x, self.weight, self.stride, self.padding, self.bias_param)
        relu = self.act == "relu"
        if self.norm == "bn":
            return ad.batch_norm(out, self.norm_scale, self.norm_offset,
                                 self.running_mean, self.running_var, mode, relu=relu)
        if self.norm == "gn":
            return ad.group_norm(out, self.norm_scale, self.norm_offset,
                                 default_groups(self.out_ch), relu=relu)
        return ad.relu(out) if relu else out

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(
                f"conv: channels: layer expects C={self.in_ch}, input has C={c}")
        k = self.kernel
        return (self.out_ch,
                *conv_out_size(self.kind, h, w, k, k, self.stride, self.padding))

    def state(self):
        """Every slot as (checkpoint name, Parameter or buffer ndarray), the
        learned ones first."""
        out = [("weight", self.weight)]
        if self.bias_param is not None:
            out.append(("bias", self.bias_param))
        if self.norm:
            out += [("norm.scale", self.norm_scale), ("norm.offset", self.norm_offset)]
        if self.norm == "bn":
            out += [("norm.running_mean", self.running_mean),
                    ("norm.running_var", self.running_var)]
        return out

    def cost_ops(self, in_shape):
        _, ho, wo = self.out_shape(in_shape)
        ops = 2 * self.out_ch * self.in_ch * self.kernel * self.kernel * ho * wo
        elems = self.out_ch * ho * wo
        if self.norm:
            ops += 2 * elems
        if self.act:
            ops += 2 * elems
        return ops


@dataclass(eq=False)
class MaxPool:
    """3x3 max pooling at stride 2 with padding 1, the one window every
    builder uses."""

    kind = "maxpool"
    kernel, stride, padding = 3, 2, 1

    def forward(self, x, mode):
        return ad.max_pool2d(x, self.kernel, self.stride, self.padding)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        k = self.kernel
        return (c, *conv_out_size(self.kind, h, w, k, k, self.stride, self.padding))

    def state(self):
        return []

    def cost_ops(self, in_shape):
        c, ho, wo = self.out_shape(in_shape)
        return self.kernel * self.kernel * c * ho * wo


@dataclass(eq=False)
class Bottleneck:
    """Residual block: 1x1 reduce, 3x3, 1x1 expand, shortcut, ReLU, each
    conv group-normed.

    The projection shortcut exists exactly when the input/output shapes
    differ (channel change or stride). The shortcut is added, and the
    final ReLU taken, in the expand conv's group-norm pass, with the bytes
    of ``relu(add(expand, shortcut))``; ``expand`` itself has no act, and
    ``cost_ops`` counts the add and the ReLU here.
    """

    in_ch: int
    mid_ch: int
    out_ch: int
    stride: int = 1
    rng: InitVar = None
    dtype: InitVar = np.float32

    kind = "bottleneck"

    def __post_init__(self, rng, dtype):
        rng = rng or np.random.default_rng()
        in_ch, mid_ch, out_ch, stride = self.in_ch, self.mid_ch, self.out_ch, self.stride
        self.reduce = ConvBlock(in_ch, mid_ch, 1, norm="gn", act="relu",
                                rng=rng, dtype=dtype)
        self.spatial = ConvBlock(mid_ch, mid_ch, 3, stride=stride, padding=1,
                                 norm="gn", act="relu", rng=rng, dtype=dtype)
        self.expand = ConvBlock(mid_ch, out_ch, 1, norm="gn", act=None,
                                rng=rng, dtype=dtype)
        if in_ch != out_ch or stride != 1:
            self.project = ConvBlock(in_ch, out_ch, 1, stride=stride, norm="gn",
                                     act=None, rng=rng, dtype=dtype)
        else:
            self.project = None

    def forward(self, x, mode):
        mid = self.spatial.forward(self.reduce.forward(x, mode), mode)
        shortcut = self.project.forward(x, mode) if self.project else x
        e = self.expand
        return ad.group_norm(ad.conv2d(mid, e.weight), e.norm_scale, e.norm_offset,
                             default_groups(e.out_ch), relu=True, residual=shortcut)

    def out_shape(self, in_shape):
        return self.expand.out_shape(self.spatial.out_shape(self.reduce.out_shape(in_shape)))

    def state(self):
        blocks = {"reduce": self.reduce, "spatial": self.spatial,
                  "expand": self.expand, "project": self.project}
        return [(f"{label}.{slot}", v) for label, block in blocks.items() if block
                for slot, v in block.state()]

    def cost_ops(self, in_shape):
        s1 = self.reduce.out_shape(in_shape)
        s2 = self.spatial.out_shape(s1)
        ops = (self.reduce.cost_ops(in_shape) + self.spatial.cost_ops(s1)
               + self.expand.cost_ops(s2))
        if self.project:
            ops += self.project.cost_ops(in_shape)
        c, ho, wo = self.out_shape(in_shape)
        ops += 3 * c * ho * wo  # residual add + final relu
        return ops


@dataclass(eq=False)
class UpsampleAdd:
    """2x nearest upsample of the second input added to the first (top-down merge)."""

    kind = "upsample_add"

    def forward(self, lateral, deeper, mode):
        return ad.add(lateral, ad.upsample_nearest2x(deeper))

    def out_shape(self, lateral_shape, deeper_shape):
        c, h, w = lateral_shape
        cd, hd, wd = deeper_shape
        if (cd, hd * 2, wd * 2) != (c, h, w):
            raise DimensionError(
                f"upsample_add: spatial: cannot merge {deeper_shape} into {lateral_shape}")
        return lateral_shape

    def state(self):
        return []

    def cost_ops(self, lateral_shape, deeper_shape):
        c, h, w = lateral_shape
        return c * h * w


class _Node:
    __slots__ = ("name", "layer", "inputs", "out_shape", "is_head")

    def __init__(self, name, layer, inputs, out_shape, is_head=False):
        self.name = name
        self.layer = layer
        self.inputs = tuple(inputs)
        self.out_shape = out_shape
        self.is_head = is_head


class NetworkGraph:
    """Ordered, shape-validated layer graph with named predictor heads."""

    def __init__(self, input_shape, dtype=np.float32):
        self.input_shape = tuple(input_shape)  # (C, H, W)
        self.dtype = np.dtype(dtype)
        self.nodes = []
        self._by_name = {}
        self.main_head = None

    def add(self, name, layer, inputs=None, is_head=False):
        if name in self._by_name or name == "input":
            raise ConfigError("graph.layer", f"duplicate layer name {name!r}")
        if inputs is None:
            inputs = (self.nodes[-1].name,) if self.nodes else ("input",)
        shapes = [self.shape_of(i) for i in inputs]
        out_shape = layer.out_shape(*shapes)
        if isinstance(layer, FeatureShiftModule):
            layer.name = name
            # beyond the larger side an offset moves the whole map out of view
            layer.clamp_bound = float(max(shapes[0][1:]))
        node = _Node(name, layer, inputs, out_shape, is_head)
        self.nodes.append(node)
        self._by_name[name] = node
        if not is_head:
            self.main_head = name
        return node

    def shape_of(self, name):
        return self.input_shape if name == "input" else self.node(name).out_shape

    def node(self, name):
        if name not in self._by_name:
            raise ConfigError("graph.layer", f"unknown layer id {name!r}")
        return self._by_name[name]

    def input_array(self, x):
        """``x`` copied to the graph dtype, with its subnormal values (below
        that dtype's smallest normal magnitude) read as zero, so the first
        layer multiplies no subnormal floats: on common CPUs such a product
        runs many times slower than one of normal floats."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        return np.where(np.abs(x) < np.finfo(self.dtype).tiny, 0, x)

    def forward(self, x, mode="train"):
        """Run all nodes; returns (head outputs, every node output).

        Head outputs are keyed "main" plus each ESP node name. An ndarray
        input is converted by ``input_array``; a ``Tensor`` is used as is.

        The tape is recorded only where a caller can ask for a gradient: in
        train mode, or when ``x`` is a ``Tensor`` that requires one (the
        analyses pass such a leaf to back-propagate through an eval
        forward). Any other forward records none, so its outputs are plain
        tensors and backward from them raises ``StateError``.
        """
        taped = mode == "train" or (isinstance(x, Tensor) and x.requires_grad)
        if isinstance(x, np.ndarray):
            x = Tensor(self.input_array(x))
        expect = tuple(self.input_shape)
        if x.ndim != 4 or tuple(x.shape[1:]) != expect:
            raise DimensionError(
                f"graph: input: expected (B,{expect[0]},{expect[1]},{expect[2]}), "
                f"got {tuple(x.shape)}")
        outputs = {"input": x}
        with ad._recording(taped):
            for node in self.nodes:
                outputs[node.name] = node.layer.forward(
                    *(outputs[i] for i in node.inputs), mode)
        heads = {"main": outputs[self.main_head]}
        for node in self.nodes:
            if node.is_head:
                heads[node.name] = outputs[node.name]
        return heads, outputs

    # -- parameter plumbing --------------------------------------------------

    def named_parameters(self):
        """Every parameter slot as (unique name, Parameter)."""
        return [s for s in self._state() if isinstance(s[1], Parameter)]

    def named_buffers(self):
        """Every buffer slot as (unique name, ndarray)."""
        return [s for s in self._state() if not isinstance(s[1], Parameter)]

    def _state(self):
        return [(f"{node.name}.{slot}", v) for node in self.nodes
                for slot, v in node.layer.state()]

    def fsm_layers(self):
        return [(n.name, n.layer) for n in self.nodes
                if isinstance(n.layer, FeatureShiftModule)]

    # -- serialization --------------------------------------------------------

    def spec(self):
        nodes = []
        for n in self.nodes:
            nodes.append({"name": n.name, "kind": n.layer.kind,
                          "inputs": list(n.inputs), "is_head": n.is_head,
                          "config": asdict(n.layer)})
        return {"input_shape": list(self.input_shape), "dtype": str(self.dtype),
                "nodes": nodes}

    @classmethod
    def from_spec(cls, spec):
        """The graph ``spec()`` described; every node error names its node."""
        rng = np.random.default_rng(0)
        graph = cls(_value("tuple", spec.get("input_shape"), "graph.input_shape",
                           _GRAPH_LIMITS, (1, 1, 1)),
                    _value("str", spec.get("dtype"), "graph.dtype", _GRAPH_LIMITS))
        try:
            nodes = list(spec["nodes"])
        except (KeyError, TypeError) as exc:
            raise ConfigError("graph", f"malformed spec: {exc!r}") from None
        for i, nd in enumerate(nodes):
            name = nd.get("name", f"#{i}") if isinstance(nd, dict) else f"#{i}"
            where = f"graph.nodes.{name}"
            try:
                graph.add(_value("str", nd["name"], f"{where}.name", {}),
                          _layer_from_spec(nd, where, rng, graph.dtype),
                          _value("tuple", nd["inputs"], f"{where}.inputs", {}, ()),
                          _value("bool", nd["is_head"], f"{where}.is_head", {}))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(where, f"malformed node: {exc!r}") from None
            except (ConfigError, DimensionError) as exc:
                # a node that does not fit its inputs, or that its own layer
                # or the graph refuses, named by its node path
                if f"{getattr(exc, 'key_path', '')}.".startswith(f"{where}."):
                    raise
                raise ConfigError(where, str(exc)) from None
        return graph


# kind -> (layer class, its fields, whether it draws weights from rng)
_LAYER_KINDS = {cls.kind: (cls, fields(cls), "rng" in inspect.signature(cls).parameters)
                for cls in (ConvBlock, MaxPool, Bottleneck, FeatureShiftModule,
                            UpsampleAdd)}

# the graph's input: three sizes, and the dtypes the layers are built at
_GRAPH_LIMITS = {"graph.input_shape": (1, None), "graph.dtype": ("float32", "float64")}

# layer kind -> each field's bounds or choices: with a size or stride of 0
# a layer would divide by zero, with any other choice a conv would run with
# no activation, a shifting module fail only in its forward, and a norm be
# refused without the name of its node
_FIELD_LIMITS = {
    "conv": {"in_ch": (1, None), "out_ch": (1, None), "kernel": (1, None),
             "stride": (1, None), "padding": (0, None),
             "norm": (None, "gn", "bn"), "act": (None, "relu")},
    "bottleneck": {"in_ch": (1, None), "mid_ch": (1, None), "out_ch": (1, None),
                   "stride": (1, None)},
    "fsm": {"channels": (1, None), "shift_channels": (1, None)},
}


def _layer_from_spec(nd, where, rng, dtype):
    """The layer of the node at spec path ``where``, built from a config
    whose keys are exactly the layer's fields, each value read by
    ``config._read`` within its kind's ``_FIELD_LIMITS``."""
    if nd["kind"] not in _LAYER_KINDS:
        raise ConfigError(f"{where}.kind", f"unknown layer kind {nd['kind']!r}")
    cls, flds, seeded = _LAYER_KINDS[nd["kind"]]
    cfg = dict(nd["config"])
    keys = {f.name for f in flds}
    if set(cfg) != keys:
        missing, unknown = sorted(keys - set(cfg)), sorted(set(cfg) - keys)
        raise ConfigError(where, f"config keys: missing {missing}, unknown {unknown}")
    limits = {f"{where}.{key}": limit
              for key, limit in _FIELD_LIMITS.get(nd["kind"], {}).items()}
    return _read(cls, cfg, where, limits, **(dict(rng=rng, dtype=dtype) if seeded else {}))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_3block3fsm(input_size=(256, 192), shift_channels=256, keypoints=17,
                     fsm_active=True, rng=None, dtype=np.float32):
    """Lightweight backbone: stem, pool, then FSM/Bottleneck interleaved 3x,
    a pointwise neck, and a 3x3 predictor producing one heatmap per keypoint
    at quarter resolution."""
    h, w = input_size
    if h % 4 or w % 4:
        raise ConfigError("network.input_size",
                          f"{h}x{w} must be divisible by 4")
    rng = rng or np.random.default_rng(0)
    g = NetworkGraph((3, h, w), dtype=dtype)
    g.add("stem", ConvBlock(3, 64, 7, stride=2, padding=3, norm="gn", act="relu",
                            rng=rng, dtype=dtype))
    g.add("pool", MaxPool())
    for i in range(3):
        in_ch = 64 if i == 0 else 256
        g.add(f"fsm{i + 1}", FeatureShiftModule(in_ch, shift_channels, rng, dtype,
                                                active=fsm_active))
        g.add(f"block{i + 1}", Bottleneck(in_ch, 64, 256, rng=rng, dtype=dtype))
    g.add("neck", ConvBlock(256, 256, 1, norm="gn", act="relu", rng=rng, dtype=dtype))
    g.add("head", ConvBlock(256, keypoints, 3, padding=1, norm="bn", act=None,
                            rng=rng, dtype=dtype))
    return g


def build_toy_fsm_net(input_size=(32, 32), in_channels=1, keypoints=1,
                      shift_channels=8, width=16, fsm_active=False, rng=None,
                      dtype=np.float32):
    """Desk-scale net for the synthetic tasks: two stride-2 stem convs, one
    FSM/Bottleneck pair, and the usual neck + predictor at quarter resolution."""
    h, w = input_size
    if h % 4 or w % 4:
        raise ConfigError("network.input_size", f"{h}x{w} must be divisible by 4")
    rng = rng or np.random.default_rng(0)
    half = max(width // 2, 4)
    g = NetworkGraph((in_channels, h, w), dtype=dtype)
    g.add("stem", ConvBlock(in_channels, half, 3, stride=2, padding=1,
                            norm="gn", act="relu", rng=rng, dtype=dtype))
    g.add("stem2", ConvBlock(half, width, 3, stride=2, padding=1,
                             norm="gn", act="relu", rng=rng, dtype=dtype))
    g.add("fsm1", FeatureShiftModule(width, shift_channels, rng, dtype,
                                     active=fsm_active))
    g.add("block1", Bottleneck(width, half, width, rng=rng, dtype=dtype))
    g.add("neck", ConvBlock(width, width, 1, norm="gn", act="relu",
                            rng=rng, dtype=dtype))
    g.add("head", ConvBlock(width, keypoints, 3, padding=1, norm="bn", act=None,
                            rng=rng, dtype=dtype))
    return g


def build_fpn_ssn(input_size=(64, 48), keypoints=17, base_channels=8,
                  shift_channels=None, fsm_active=True, rng=None,
                  dtype=np.float32):
    """Structural U-shaped variant: four bottleneck stages (3,4,6,3 blocks)
    with shifting modules before every block except right after the
    stride-2 downsampling blocks (the first module with half the shifting
    channels), pointwise laterals, top-down merges, and a predictor per
    pyramid level (deepest first: p1..p4).

    Provided for structure and accounting at configurable width; not a
    training target at full scale.
    """
    h, w = input_size
    if h % 32 or w % 32:
        raise ConfigError("network.input_size", f"{h}x{w} must be divisible by 32")
    rng = rng or np.random.default_rng(0)
    cb = base_channels
    if shift_channels is None:
        shift_channels = 8 * cb
    g = NetworkGraph((3, h, w), dtype=dtype)
    g.add("stem", ConvBlock(3, cb, 7, stride=2, padding=3, norm="gn", act="relu",
                            rng=rng, dtype=dtype))
    g.add("pool", MaxPool())

    stage_blocks = (3, 4, 6, 3)
    stage_out = [4 * cb * (2 ** i) for i in range(4)]
    stage_tips = []
    in_ch = cb
    for s, blocks in enumerate(stage_blocks):
        out_ch = stage_out[s]
        mid = out_ch // 4
        for bidx in range(blocks):
            stride = 2 if (s > 0 and bidx == 0) else 1
            after_downsample = s > 0 and bidx == 1
            if not after_downsample:
                k = shift_channels // 2 if s == 0 and bidx == 0 else shift_channels
                g.add(f"s{s + 1}_fsm{bidx + 1}", FeatureShiftModule(
                    in_ch, k, rng, dtype, active=fsm_active))
            g.add(f"s{s + 1}_block{bidx + 1}",
                  Bottleneck(in_ch, mid, out_ch, stride=stride, rng=rng, dtype=dtype))
            in_ch = out_ch
        stage_tips.append(f"s{s + 1}_block{blocks}")

    lateral_ch = 4 * cb
    for s, tip in enumerate(stage_tips):
        g.add(f"lateral{s + 1}", ConvBlock(stage_out[s], lateral_ch, 1, norm="gn",
                                           act=None, rng=rng, dtype=dtype),
              inputs=(tip,))
    g.add("merge3", UpsampleAdd(), inputs=("lateral3", "lateral4"))
    g.add("merge2", UpsampleAdd(), inputs=("lateral2", "merge3"))
    g.add("merge1", UpsampleAdd(), inputs=("lateral1", "merge2"))
    # predictors from deepest pyramid level to shallowest
    for idx, source in enumerate(("lateral4", "merge3", "merge2", "merge1")):
        is_head = idx != 3
        g.add(f"p{idx + 1}", ConvBlock(lateral_ch, keypoints, 1, rng=rng,
                                       dtype=dtype, bias=True),
              inputs=(source,), is_head=is_head)
    return g


def attach_esp(graph, after_layer, keypoints):
    """Branch an early-stage predictor (pointwise conv to one channel per
    keypoint) off the named layer; the trainer adds its loss to the main head's.
    Its weights are drawn from a generator seeded by the layer name."""
    node = graph.node(after_layer)
    c = node.out_shape[0]
    rng = np.random.default_rng(zlib.crc32(after_layer.encode()))
    layer = ConvBlock(c, keypoints, 1, bias=True, rng=rng, dtype=graph.dtype)
    graph.add(f"esp_{after_layer}", layer, inputs=(after_layer,), is_head=True)
    return graph


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def count_params(graph):
    return sum(p.size for _, p in graph.named_parameters())


class CostReport:
    """Operation counts for one forward pass.

    ``flops`` counts a multiply-accumulate as 2 operations (and norms or
    activations at 2 per element); ``macs`` is the same total expressed in
    fused multiply-add units (flops / 2), the convention lightweight-model
    tables are usually quoted in.
    """

    def __init__(self, flops, by_layer):
        self.flops = flops
        self.macs = flops / 2.0
        self.by_layer = by_layer

    def __repr__(self):
        return f"CostReport(flops={self.flops:.3e}, macs={self.macs:.3e})"


def count_flops(graph):
    """Per-layer operation counts at the input shapes the graph was built
    for."""
    by_layer = {node.name: node.layer.cost_ops(*map(graph.shape_of, node.inputs))
                for node in graph.nodes}
    return CostReport(sum(by_layer.values()), by_layer)

