"""Network construction: layers, graphs, builders, and cost accounting.

A :class:`NetworkGraph` is an ordered list of named nodes. Each node
names its inputs, so sequential backbones and the U-shaped variant with
top-down addition both fit the same structure. Output shapes are
validated at build time; the last node is the main predictor and extra
head nodes (early-stage predictors) branch off named layers.
"""

from __future__ import annotations

import inspect
from dataclasses import InitVar, asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, conv_out_size, default_groups
from .errors import ConfigError, DimensionError, NumericError
from .fsm import CA_SIGMOID, CA_SOFTPLUS, FeatureShiftModule

__all__ = [
    "NetworkGraph", "ConvBlock", "Bottleneck", "MaxPool",
    "UpsampleAdd", "build_3block3fsm", "build_toy_fsm_net", "build_fpn_ssn",
    "attach_esp", "count_params", "count_flops", "CostReport",
    "validate_fsm_placement", "GRAPH_FORMAT_VERSION",
]

GRAPH_FORMAT_VERSION = 1


def _he_conv(rng, out_ch, in_ch, kh, kw, dtype):
    std = np.sqrt(2.0 / (in_ch * kh * kw))
    return Parameter((rng.standard_normal((out_ch, in_ch, kh, kw)) * std).astype(dtype))


class _Norm:
    """Channel norm attached to a conv: group or batch flavour."""

    def __init__(self, kind, channels, dtype):
        self.kind = kind
        self.scale = Parameter(np.ones(channels, dtype=dtype))
        self.offset = Parameter(np.zeros(channels, dtype=dtype))
        if kind == "bn":
            self.running_mean = np.zeros(channels, dtype=dtype)
            self.running_var = np.ones(channels, dtype=dtype)
        elif kind == "gn":
            self.groups = default_groups(channels)
            if channels % self.groups:
                raise ConfigError("norm.groups",
                                  f"{self.groups} does not divide {channels}")
        else:
            raise ConfigError("norm.kind", f"unknown norm kind {kind!r}")

    def forward(self, x, mode):
        if self.kind == "bn":
            return ad.batch_norm(x, self.scale, self.offset,
                                 self.running_mean, self.running_var, mode)
        return ad.group_norm(x, self.scale, self.offset, self.groups)

    def named_params(self, prefix):
        return [(f"{prefix}.scale", self.scale), (f"{prefix}.offset", self.offset)]

    def buffers(self, prefix):
        if self.kind == "bn":
            return [(f"{prefix}.running_mean", self.running_mean),
                    (f"{prefix}.running_var", self.running_var)]
        return []


@dataclass(eq=False)
class ConvBlock:
    """Convolution with optional norm and ReLU (one Table-style row)."""

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
        self.norm_layer = _Norm(self.norm, self.out_ch, dtype) if self.norm else None

    def forward(self, x, mode):
        out = ad.conv2d(x, self.weight, self.stride, self.padding, self.bias_param)
        if self.norm_layer:
            out = self.norm_layer.forward(out, mode)
        if self.act == "relu":
            out = ad.relu(out)
        return out

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(
                f"conv: channels: layer expects C={self.in_ch}, input has C={c}")
        return (self.out_ch,
                conv_out_size(h, self.kernel, self.stride, self.padding),
                conv_out_size(w, self.kernel, self.stride, self.padding))

    def named_params(self):
        out = [("weight", self.weight)]
        if self.bias_param is not None:
            out.append(("bias", self.bias_param))
        if self.norm_layer:
            out += self.norm_layer.named_params("norm")
        return out

    def buffers(self):
        return self.norm_layer.buffers("norm") if self.norm_layer else []

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
    kernel: int = 3
    stride: int = 2
    padding: int = 1

    kind = "maxpool"

    def forward(self, x, mode):
        return ad.max_pool2d(x, self.kernel, self.stride, self.padding)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c, conv_out_size(h, self.kernel, self.stride, self.padding),
                conv_out_size(w, self.kernel, self.stride, self.padding))

    def named_params(self):
        return []

    def buffers(self):
        return []

    def cost_ops(self, in_shape):
        c, ho, wo = self.out_shape(in_shape)
        return self.kernel * self.kernel * c * ho * wo


@dataclass(eq=False)
class Bottleneck:
    """Residual block: 1x1 reduce, 3x3, 1x1 expand, shortcut, ReLU.

    The projection shortcut exists exactly when the input/output shapes
    differ (channel change or stride).
    """

    in_ch: int
    mid_ch: int
    out_ch: int
    stride: int = 1
    norm: str = "gn"
    rng: InitVar = None
    dtype: InitVar = np.float32

    kind = "bottleneck"

    def __post_init__(self, rng, dtype):
        rng = rng or np.random.default_rng()
        in_ch, mid_ch, out_ch = self.in_ch, self.mid_ch, self.out_ch
        stride, norm = self.stride, self.norm
        self.reduce = ConvBlock(in_ch, mid_ch, 1, norm=norm, act="relu",
                                rng=rng, dtype=dtype)
        self.spatial = ConvBlock(mid_ch, mid_ch, 3, stride=stride, padding=1,
                                 norm=norm, act="relu", rng=rng, dtype=dtype)
        self.expand = ConvBlock(mid_ch, out_ch, 1, norm=norm, act=None,
                                rng=rng, dtype=dtype)
        if in_ch != out_ch or stride != 1:
            self.project = ConvBlock(in_ch, out_ch, 1, stride=stride, norm=norm,
                                     act=None, rng=rng, dtype=dtype)
        else:
            self.project = None

    def forward(self, x, mode):
        branch = self.expand.forward(
            self.spatial.forward(self.reduce.forward(x, mode), mode), mode)
        shortcut = self.project.forward(x, mode) if self.project else x
        return ad.relu(ad.add(branch, shortcut))

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(
                f"bottleneck: channels: expects C={self.in_ch}, input has C={c}")
        shape = self.expand.out_shape(self.spatial.out_shape(
            self.reduce.out_shape(in_shape)))
        return shape

    def _pieces(self):
        pieces = [("reduce", self.reduce), ("spatial", self.spatial),
                  ("expand", self.expand)]
        if self.project:
            pieces.append(("project", self.project))
        return pieces

    def named_params(self):
        out = []
        for label, block in self._pieces():
            out += [(f"{label}.{n}", p) for n, p in block.named_params()]
        return out

    def buffers(self):
        out = []
        for label, block in self._pieces():
            out += [(f"{label}.{n}", b) for n, b in block.buffers()]
        return out

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

    def named_params(self):
        return []

    def buffers(self):
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

    def forward(self, x, mode="train", check_finite=False):
        """Run all nodes; returns (head outputs, every node output).

        Head outputs are keyed "main" plus each ESP node name.
        """
        if isinstance(x, np.ndarray):
            x = Tensor(np.ascontiguousarray(x, dtype=self.dtype))
        expect = tuple(self.input_shape)
        if x.ndim != 4 or tuple(x.shape[1:]) != expect:
            raise DimensionError(
                f"graph: input: expected (B,{expect[0]},{expect[1]},{expect[2]}), "
                f"got {tuple(x.shape)}")
        outputs = {"input": x}
        for node in self.nodes:
            out = node.layer.forward(*(outputs[i] for i in node.inputs), mode)
            if check_finite and not np.isfinite(out.data).all():
                raise NumericError(f"non-finite output at layer {node.name!r}")
            outputs[node.name] = out
        heads = {"main": outputs[self.main_head]}
        for node in self.nodes:
            if node.is_head:
                heads[node.name] = outputs[node.name]
        return heads, outputs

    # -- parameter plumbing --------------------------------------------------

    def named_parameters(self):
        """Every parameter slot as (unique name, Parameter)."""
        out = []
        for node in self.nodes:
            out += [(f"{node.name}.{n}", p) for n, p in node.layer.named_params()]
        return out

    def named_buffers(self):
        out = []
        for node in self.nodes:
            out += [(f"{node.name}.{n}", b) for n, b in node.layer.buffers()]
        return out

    def fsm_layers(self):
        return [(n.name, n.layer) for n in self.nodes
                if isinstance(n.layer, FeatureShiftModule)]

    def backbone_parameters(self):
        out = []
        for node in self.nodes:
            if isinstance(node.layer, FeatureShiftModule):
                continue
            out += [(f"{node.name}.{n}", p) for n, p in node.layer.named_params()]
        return out

    # -- serialization --------------------------------------------------------

    def spec(self):
        nodes = []
        for n in self.nodes:
            nodes.append({"name": n.name, "kind": n.layer.kind,
                          "inputs": list(n.inputs), "is_head": n.is_head,
                          "config": asdict(n.layer)})
        return {"format": "shiftpose-graph", "version": GRAPH_FORMAT_VERSION,
                "input_shape": list(self.input_shape), "dtype": str(self.dtype),
                "nodes": nodes}

    @classmethod
    def from_spec(cls, spec, rng=None):
        if spec.get("format") != "shiftpose-graph":
            raise ConfigError("graph.format", "not a graph spec document")
        if spec.get("version") != GRAPH_FORMAT_VERSION:
            raise ConfigError("graph.version",
                              f"unsupported version {spec.get('version')!r}, "
                              f"expected {GRAPH_FORMAT_VERSION}")
        rng = rng or np.random.default_rng(0)
        shape = spec.get("input_shape")
        if not (isinstance(shape, list) and len(shape) == 3
                and all(type(v) is int and v > 0 for v in shape)):
            raise ConfigError("graph.input_shape",
                              f"expected three positive integers, got {shape!r}")
        try:
            graph = cls(tuple(shape), dtype=np.dtype(spec["dtype"]))
            nodes = list(spec["nodes"])
        except (KeyError, TypeError) as exc:
            raise ConfigError("graph", f"malformed spec: {exc!r}") from None
        for i, nd in enumerate(nodes):
            name = nd.get("name", f"#{i}") if isinstance(nd, dict) else f"#{i}"
            try:
                graph.add(nd["name"], _layer_from_spec(nd, name, rng, graph.dtype),
                          nd["inputs"], nd["is_head"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"graph.nodes.{name}",
                                  f"malformed node: {exc!r}") from None
        return graph


# kind -> (layer class, its fields, whether it draws weights from rng)
_LAYER_KINDS = {cls.kind: (cls, fields(cls), "rng" in inspect.signature(cls).parameters)
                for cls in (ConvBlock, MaxPool, Bottleneck, FeatureShiftModule,
                            UpsampleAdd)}

# a layer field's annotation -> the type its spec value must have
_FIELD_TYPES = {"int": int, "bool": bool, "str": str}


def _value_fits(field, value):
    """Whether a spec value has its field's type: a bool is not an int,
    and a ``str`` field whose default is None also takes None."""
    if value is None:
        return field.type == "str" and field.default is None
    if isinstance(value, bool):
        return field.type == "bool"
    return isinstance(value, _FIELD_TYPES[field.type])


def _layer_from_spec(nd, name, rng, dtype):
    """The node's layer, built from a config whose keys are exactly the
    layer's fields and whose values have the fields' types."""
    if nd["kind"] not in _LAYER_KINDS:
        raise ConfigError("graph.kind", f"unknown layer kind {nd['kind']!r}")
    cls, flds, seeded = _LAYER_KINDS[nd["kind"]]
    cfg = dict(nd["config"])
    keys = {f.name for f in flds}
    if set(cfg) != keys:
        missing, unknown = sorted(keys - set(cfg)), sorted(set(cfg) - keys)
        raise ConfigError(f"graph.nodes.{name}",
                          f"config keys: missing {missing}, unknown {unknown}")
    for f in flds:
        if not _value_fits(f, cfg[f.name]):
            raise ConfigError(f"graph.nodes.{name}",
                              f"{f.name}: expected {f.type}, got {cfg[f.name]!r}")
    if seeded:
        cfg.update(rng=rng, dtype=dtype)
    return cls(**cfg)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_3block3fsm(input_size=(256, 192), shift_channels=256, keypoints=17,
                     ca_variant=CA_SIGMOID, fsm_active=True, rng=None,
                     dtype=np.float32):
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
    g.add("pool", MaxPool(3, 2, 1))
    for i in range(3):
        in_ch = 64 if i == 0 else 256
        g.add(f"fsm{i + 1}", FeatureShiftModule(in_ch, shift_channels, ca_variant,
                                                rng, dtype, active=fsm_active))
        g.add(f"block{i + 1}", Bottleneck(in_ch, 64, 256, norm="gn",
                                          rng=rng, dtype=dtype))
    g.add("neck", ConvBlock(256, 256, 1, norm="gn", act="relu", rng=rng, dtype=dtype))
    g.add("head", ConvBlock(256, keypoints, 3, padding=1, norm="bn", act=None,
                            rng=rng, dtype=dtype))
    return g


def build_toy_fsm_net(input_size=(32, 32), in_channels=1, keypoints=1,
                      shift_channels=8, width=16, ca_variant=CA_SIGMOID,
                      fsm_active=False, rng=None, dtype=np.float32):
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
    g.add("fsm1", FeatureShiftModule(width, shift_channels, ca_variant, rng, dtype,
                                     active=fsm_active))
    g.add("block1", Bottleneck(width, half, width, norm="gn", rng=rng, dtype=dtype))
    g.add("neck", ConvBlock(width, width, 1, norm="gn", act="relu",
                            rng=rng, dtype=dtype))
    g.add("head", ConvBlock(width, keypoints, 3, padding=1, norm="bn", act=None,
                            rng=rng, dtype=dtype))
    return g


def build_fpn_ssn(input_size=(64, 48), keypoints=17, base_channels=8,
                  shift_channels=None, ca_variant=CA_SOFTPLUS, fsm_active=True,
                  rng=None, dtype=np.float32):
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
    g.add("pool", MaxPool(3, 2, 1))

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
                    in_ch, k, ca_variant, rng, dtype, active=fsm_active))
            g.add(f"s{s + 1}_block{bidx + 1}",
                  Bottleneck(in_ch, mid, out_ch, stride=stride, norm="gn",
                             rng=rng, dtype=dtype))
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


def attach_esp(graph, after_layer, keypoints, rng=None):
    """Branch an early-stage predictor (pointwise conv to one channel per
    keypoint) off the named layer; its loss is averaged with the main head's."""
    import zlib

    node = graph.node(after_layer)
    c = node.out_shape[0]
    if rng is None:
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


def validate_fsm_placement(graph):
    """Reject shifting modules placed immediately after a downsampling
    block, where they tend to lock onto compensating for the lost
    resolution."""
    violations = []
    for node in graph.nodes:
        if not isinstance(node.layer, FeatureShiftModule):
            continue
        for src in node.inputs:
            if src == "input":
                continue
            prev = graph.node(src).layer
            if isinstance(prev, Bottleneck) and prev.stride > 1:
                violations.append((node.name, src))
    if violations:
        detail = ", ".join(f"{f} after {p}" for f, p in violations)
        raise ConfigError("graph.fsm_placement", f"shifting module(s) {detail}")
    return True
