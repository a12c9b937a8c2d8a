"""Graph construction, builders, accounting, serialization."""

import dataclasses
import re

import numpy as np
import pytest

from shiftpose import autodiff as ad
from shiftpose import network as net
from shiftpose.errors import ConfigError, DimensionError, NumericError, StateError
from shiftpose.fsm import FeatureShiftModule
from shiftpose.gradcheck import finite_diff_gradcheck


class TestBottleneck:
    def test_zero_final_conv_identity_shortcut_is_relu(self):
        rng = np.random.default_rng(0)
        block = net.Bottleneck(4, 2, 4, rng=rng, dtype=np.float64)
        block.expand.weight.data[...] = 0.0
        x = ad.tensor(rng.standard_normal((2, 4, 5, 5)))
        out = block.forward(x, "train")
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0.0), atol=1e-12)

    def test_stride_two_halves_spatial_dims(self):
        block = net.Bottleneck(4, 2, 8, stride=2)
        assert block.out_shape((4, 9, 12)) == (8, 5, 6)
        assert block.project is not None

    def test_projection_absent_when_shapes_match(self):
        assert net.Bottleneck(8, 2, 8, stride=1).project is None

    def test_gradcheck_tiny_block(self):
        from shiftpose.verify import _case_bottleneck, _is_smooth_case

        seed = 1
        while True:  # skip draws that sit on a relu kink, per the harness contract
            fn, inputs = _case_bottleneck(np.random.default_rng(seed))
            if _is_smooth_case(fn, inputs):
                break
            seed += 1
        report = finite_diff_gradcheck(fn, inputs)
        assert report.passed, str(report)

    def test_channel_mismatch(self):
        block = net.Bottleneck(4, 2, 4)
        with pytest.raises(DimensionError, match="channels"):
            block.out_shape((3, 5, 5))


class TestConvBlockNorm:
    @pytest.mark.parametrize("channels,norm,key", [(8, "ln", "norm.kind"),
                                                   (40, "gn", "norm.groups")])
    def test_norm_refused_at_construction(self, channels, norm, key):
        with pytest.raises(ConfigError) as info:
            net.ConvBlock(1, channels, 1, norm=norm)
        assert info.value.key_path == key

    @pytest.mark.parametrize("norm,slots", [
        (None, []), ("gn", ["norm.scale", "norm.offset"]),
        ("bn", ["norm.scale", "norm.offset", "norm.running_mean", "norm.running_var"])])
    def test_norm_slots_keep_their_names_and_order(self, norm, slots):
        block = net.ConvBlock(2, 4, 1, norm=norm, bias=True)
        names = [n for n, _ in block.state()]
        assert names == ["weight", "bias"] + slots


def _held_arrays(layer):
    """Every Parameter and ndarray attribute of ``layer``, its blocks' included."""
    held = []
    for value in vars(layer).values():
        if isinstance(value, (ad.Parameter, np.ndarray)):
            held.append(value)
        elif isinstance(value, net.ConvBlock):
            held += _held_arrays(value)
    return held


LAYER_VARIANTS = {
    **{f"conv-{norm}-{'bias' if bias else 'nobias'}":
       (lambda norm=norm, bias=bias: net.ConvBlock(2, 4, 3, norm=norm, bias=bias))
       for norm in (None, "gn", "bn") for bias in (False, True)},
    "bottleneck-identity": lambda: net.Bottleneck(4, 2, 4),
    "bottleneck-projection": lambda: net.Bottleneck(4, 2, 8, stride=2),
    "maxpool": net.MaxPool,
    "upsample_add": net.UpsampleAdd,
    "fsm-active": lambda: FeatureShiftModule(4, 3, active=True),
    "fsm-bypassed": lambda: FeatureShiftModule(4, 3, active=False),
}


@pytest.mark.parametrize("make", LAYER_VARIANTS.values(), ids=LAYER_VARIANTS.keys())
def test_state_lists_every_held_array_exactly_once(make):
    layer = make()
    state = layer.state()
    assert len({name for name, _ in state}) == len(state)
    assert sorted(id(v) for _, v in state) == sorted(map(id, _held_arrays(layer)))


class TestBuild3Block3Fsm:
    def test_paper_scale_output_shape_and_params(self):
        g = net.build_3block3fsm((256, 192), 256, 17)
        assert g.shape_of("head") == (17, 64, 48)
        params = net.count_params(g)
        assert abs(params - 0.8e6) / 0.8e6 < 0.05
        # regression baseline from this implementation's slot enumeration
        assert params == 775_650

    def test_k512_params(self):
        g = net.build_3block3fsm((256, 192), 512, 17)
        assert net.count_params(g) == 1_219_554
        assert abs(net.count_params(g) - 1.2e6) / 1.2e6 < 0.05

    def test_small_input_shape_only(self):
        g = net.build_3block3fsm((32, 32), 8, 1)
        assert g.shape_of("head") == (1, 8, 8)
        heads, _ = g.forward(np.zeros((1, 3, 32, 32), dtype=np.float32), "eval")
        assert heads["main"].shape == (1, 1, 8, 8)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError, match="input_size"):
            net.build_3block3fsm((30, 32), 8, 1)

    def test_channel_progression_matches_structure_table(self):
        g = net.build_3block3fsm((256, 192), 256, 17)
        expected = [("stem", (64, 128, 96)), ("pool", (64, 64, 48)),
                    ("fsm1", (64, 64, 48)), ("block1", (256, 64, 48)),
                    ("fsm2", (256, 64, 48)), ("block2", (256, 64, 48)),
                    ("fsm3", (256, 64, 48)), ("block3", (256, 64, 48)),
                    ("neck", (256, 64, 48)), ("head", (17, 64, 48))]
        got = [(n.name, n.out_shape) for n in g.nodes]
        assert got == expected


class TestEsp:
    def _tiny(self):
        rng = np.random.default_rng(2)
        return net.build_toy_fsm_net((16, 16), 1, 3, 4, 8, fsm_active=True, rng=rng)

    def test_attach_to_final_layer_duplicates_main_shape(self):
        g = self._tiny()
        net.attach_esp(g, g.main_head, 3)
        esp = g.node(f"esp_{g.main_head}")
        assert esp.out_shape == g.node(g.main_head).out_shape

    def test_two_esps_produce_two_extra_heads(self):
        g = self._tiny()
        net.attach_esp(g, "stem", 3)
        net.attach_esp(g, "stem2", 3)
        heads, _ = g.forward(np.zeros((2, 1, 16, 16), dtype=np.float32), "eval")
        assert set(heads) == {"main", "esp_stem", "esp_stem2"}
        assert heads["esp_stem"].shape == (2, 3, 8, 8)
        assert heads["esp_stem2"].shape == (2, 3, 4, 4)

    def test_esp_raises_early_layer_gradient_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        targets = {}

        def grad_norm(with_esp):
            g = self._tiny()
            if with_esp:
                net.attach_esp(g, "stem2", 3)
            heads, _ = g.forward(x, "train")
            loss = None
            for name, pred in heads.items():
                t = targets.setdefault(
                    (name, pred.shape),
                    rng.standard_normal(pred.shape).astype(np.float32))
                term = ad.mse_loss(pred, t)
                loss = term if loss is None else ad.add(loss, term)
            stem_w = dict(g.node("stem").layer.state())["weight"]
            (gw,) = ad.grad(loss, [stem_w])
            return float(np.linalg.norm(gw))

        assert grad_norm(True) > grad_norm(False)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ConfigError, match="layer"):
            net.attach_esp(self._tiny(), "nonexistent", 3)


class TestFlops:
    def test_single_conv_formula_instantiation(self):
        g = net.NetworkGraph((1, 2, 2))
        g.add("only", net.ConvBlock(1, 1, 1))
        assert net.count_flops(g).flops == 8

    def test_table5_figures_within_20_percent(self):
        for k, target in ((256, 2.5e9), (512, 3.9e9)):
            g = net.build_3block3fsm((256, 192), k, 17)
            macs = net.count_flops(g).macs
            assert abs(macs - target) / target < 0.20, (k, macs)


class TestSerialization:
    @pytest.mark.parametrize("build", [
        lambda: net.build_3block3fsm((32, 32), 8, 2, fsm_active=False),
        lambda: net.build_toy_fsm_net((16, 16), 1, 1, 4, 8),
        lambda: net.build_fpn_ssn((64, 64), 3, base_channels=4, shift_channels=4),
    ])
    def test_round_trip_preserves_structure(self, build):
        g = build()
        spec = g.spec()
        rebuilt = net.NetworkGraph.from_spec(spec)
        assert rebuilt.spec() == spec
        orig = g.named_parameters()
        new = rebuilt.named_parameters()
        assert [n for n, _ in orig] == [n for n, _ in new]
        assert [p.shape for _, p in orig] == [p.shape for _, p in new]

    @staticmethod
    def _edited_spec(node, change):
        spec = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8).spec()
        change(next(n for n in spec["nodes"] if n["name"] == node)["config"])
        return spec

    @pytest.mark.parametrize("node,key", [("stem", "stride"), ("fsm1", "active")])
    def test_missing_config_key_rejected(self, node, key):
        spec = self._edited_spec(node, lambda cfg: cfg.pop(key))
        with pytest.raises(ConfigError, match=re.escape(f"graph.nodes.{node}: ")):
            net.NetworkGraph.from_spec(spec)

    @pytest.mark.parametrize("node,key", [("stem", "bogus"), ("fsm1", "rng"),
                                          ("block1", "norm")])
    def test_unknown_config_key_rejected(self, node, key):
        spec = self._edited_spec(node, lambda cfg: cfg.update({key: 0}))
        with pytest.raises(ConfigError, match=re.escape(f"graph.nodes.{node}: ")):
            net.NetworkGraph.from_spec(spec)

    @pytest.mark.parametrize("node,key,value", [
        ("fsm1", "active", "false"), ("fsm1", "shift_channels", 4.0),
        ("stem", "kernel", True), ("stem", "bias", 0), ("stem", "norm", 3),
        ("head", "act", "gelu"), ("head", "act", ["relu"]), ("stem", "norm", "ln"),
    ])
    def test_wrong_value_type_rejected(self, node, key, value):
        spec = self._edited_spec(node, lambda cfg: cfg.update({key: value}))
        with pytest.raises(ConfigError, match=re.escape(f"graph.nodes.{node}.{key}: ")):
            net.NetworkGraph.from_spec(spec)

    # one layer of each kind with every int field at its bound
    AT_BOUNDS = {"conv": lambda: net.ConvBlock(1, 1, 1, stride=1, padding=0),
                 "bottleneck": lambda: net.Bottleneck(1, 1, 1, stride=1),
                 "fsm": lambda: FeatureShiftModule(1, 1)}

    @pytest.mark.parametrize("kind,key", [
        (kind, f.name) for kind, make in AT_BOUNDS.items()
        for f in dataclasses.fields(make()) if f.type == "int"])
    def test_int_fields_are_bounded(self, kind, key):
        g = net.NetworkGraph((1, 4, 4))
        g.add("only", self.AT_BOUNDS[kind]())
        spec = g.spec()
        assert net.NetworkGraph.from_spec(spec).spec() == spec
        bound = spec["nodes"][0]["config"][key]
        spec["nodes"][0]["config"][key] = bound - 1
        with pytest.raises(ConfigError, match=re.escape(
                f"graph.nodes.only.{key}: must be >= {bound}")):
            net.NetworkGraph.from_spec(spec)

    @pytest.mark.parametrize("key,value,message", [
        ("input_shape", [1, 16, 0], "graph.input_shape: must be >= 1"),
        ("input_shape", [1, 16.0, 16], "graph.input_shape: expected int"),
        ("input_shape", [1, 16], "graph.input_shape: expected a list of 3 values"),
        ("dtype", None, "graph.dtype: expected str"),
    ])
    def test_bad_graph_input_rejected(self, key, value, message):
        spec = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8).spec()
        spec[key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            net.NetworkGraph.from_spec(spec)

    def test_layer_refusal_names_its_node(self):
        spec = net.build_3block3fsm((32, 32), 8, 2).spec()
        next(n for n in spec["nodes"] if n["name"] == "neck")["config"]["out_ch"] = 40
        with pytest.raises(ConfigError, match=re.escape(
                "graph.nodes.neck: norm.groups: 32 does not divide 40")):
            net.NetworkGraph.from_spec(spec)

    def test_unique_parameter_owners(self):
        g = net.build_3block3fsm((32, 32), 8, 2)
        names = [n for n, _ in g.named_parameters()]
        assert len(names) == len(set(names))


class TestClampBounds:
    def test_costing_another_size_leaves_bounds_unchanged(self):
        from shiftpose.config import RunConfig, build_network

        g = build_network(RunConfig())
        assert {n: m.clamp_bound for n, m in g.fsm_layers()} == {"fsm1": 8.0}
        net.count_flops(g)
        assert {n: m.clamp_bound for n, m in g.fsm_layers()} == {"fsm1": 8.0}

    def test_graph_rebuilt_from_spec_gets_bounds(self):
        g = net.build_fpn_ssn((64, 64), 3, base_channels=4, shift_channels=4)
        expect = {n: float(max(g.shape_of(g.node(n).inputs[0])[1:]))
                  for n, _ in g.fsm_layers()}
        assert set(expect.values()) == {16.0, 8.0, 4.0, 2.0}
        rebuilt = net.NetworkGraph.from_spec(g.spec())
        for graph in (g, rebuilt):
            assert {n: m.clamp_bound for n, m in graph.fsm_layers()} == expect


class TestShapeAudit:
    def test_declared_shapes_match_forward_for_random_configs(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            hw = int(rng.integers(2, 5)) * 4
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            width = int(rng.integers(1, 4)) * 4
            if trial % 3 == 0:
                g = net.build_3block3fsm((hw, hw), k, m,
                                         fsm_active=bool(rng.integers(0, 2)))
                cin = 3
            else:
                g = net.build_toy_fsm_net((hw, hw), 1, m, k, width,
                                          fsm_active=bool(rng.integers(0, 2)))
                cin = 1
            x = rng.standard_normal((2, cin, hw, hw)).astype(np.float32)
            _, outputs = g.forward(x, "train")
            for node in g.nodes:
                assert outputs[node.name].shape[1:] == node.out_shape, node.name

    def test_fpn_structure(self):
        g = net.build_fpn_ssn((64, 64), keypoints=3, base_channels=4,
                              shift_channels=8)
        # 16 bottlenecks, 13 shifting modules (3, 3, 5, 2 per stage)
        kinds = [n.layer.kind for n in g.nodes]
        assert kinds.count("bottleneck") == 16
        assert kinds.count("fsm") == 13
        per_stage = [sum(1 for n in g.nodes if n.name.startswith(f"s{s}_fsm"))
                     for s in (1, 2, 3, 4)]
        assert per_stage == [3, 3, 5, 2]
        heads, _ = g.forward(np.zeros((1, 3, 64, 64), dtype=np.float32), "eval")
        assert heads["main"].shape == (1, 3, 16, 16)  # quarter-resolution merge
        assert len(heads) == 4

    def test_bad_input_shape_message(self):
        g = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8)
        with pytest.raises(DimensionError, match="input"):
            g.forward(np.zeros((1, 2, 16, 16), dtype=np.float32))


class TestGraphInput:
    def test_subnormal_pixels_read_as_zero(self):
        g = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8, fsm_active=True)
        rng = np.random.default_rng(5)
        tiny = np.finfo(np.float32).tiny
        images = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        subnormal = rng.uniform(-0.9, 0.9, images.shape).astype(np.float32) * tiny
        # the second image holds only subnormals, the first a sprinkling
        images[1] = subnormal[1]
        sprinkled = rng.random((16, 16)) < 0.2
        images[0, 0][sprinkled] = subnormal[0, 0][sprinkled]
        zeroed = np.where(np.abs(images) < tiny, np.float32(0), images)
        held = images.copy()
        for mode in ("train", "eval"):
            _, got = g.forward(images, mode)
            _, want = g.forward(zeroed, mode)
            for name in got:
                assert np.array_equal(got[name].data.view(np.uint32),
                                      want[name].data.view(np.uint32)), name
        # the caller's array is read, never written
        assert np.array_equal(images.view(np.uint32), held.view(np.uint32))


class TestSplitProducts:
    @staticmethod
    def _forward_and_gradients():
        g = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8, fsm_active=True,
                                  rng=np.random.default_rng(6))
        rng = np.random.default_rng(7)
        # a live branch, so the shift's backward carries a gradient
        module = g.node("fsm1").layer
        module.out_weight.data[...] = rng.standard_normal(module.out_weight.shape)
        x = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        heads, _ = g.forward(x, "train")
        params = [p for _, p in g.named_parameters()]
        loss = ad.mse_loss(heads["main"], np.zeros(heads["main"].shape))
        return [heads["main"].data] + ad.grad(loss, params)

    def test_the_worker_gives_the_same_bits_as_both_halves_inline(self, monkeypatch,
                                                                  split_every_product):
        on_worker = self._forward_and_gradients()
        monkeypatch.setattr(ad, "_CORES", 1)
        inline = self._forward_and_gradients()
        assert len(on_worker) == 29
        for a, b in zip(on_worker, inline):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTape:
    """An eval forward of an array records no tape; a train forward, or an
    eval forward of a leaf that requires a gradient, records one."""

    @staticmethod
    def _graph_and_images():
        g = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8, fsm_active=True,
                                  rng=np.random.default_rng(6))
        x = np.random.default_rng(7).standard_normal((2, 1, 16, 16)).astype(np.float32)
        return g, x

    @staticmethod
    def _cached(g):
        return [t for _, m in g.fsm_layers() for t in m.cache.values()]

    def test_eval_forward_of_an_array_records_no_tape(self):
        g, x = self._graph_and_images()
        heads, outputs = g.forward(x, "eval")
        produced = list(heads.values()) + list(outputs.values()) + self._cached(g)
        assert len(self._cached(g)) == 4
        for t in produced:
            assert t._backward is None and t._parents == () and not t.requires_grad
        with pytest.raises(StateError, match="requires no gradient"):
            heads["main"].backward(np.ones(heads["main"].shape, np.float32))

    def test_untaped_heads_equal_the_taped_eval_forward(self):
        g, x = self._graph_and_images()
        plain, _ = g.forward(x, "eval")
        leaf = ad.Tensor(g.input_array(x), requires_grad=True)
        taped, outputs = g.forward(leaf, "eval")
        assert all(outputs[n.name]._backward is not None for n in g.nodes)
        assert plain.keys() == taped.keys()
        for name in plain:
            assert np.array_equal(plain[name].data.view(np.uint32),
                                  taped[name].data.view(np.uint32)), name

    def test_train_forward_still_tapes(self):
        g, x = self._graph_and_images()
        heads, outputs = g.forward(x, "train")
        for t in [outputs[n.name] for n in g.nodes] + self._cached(g):
            assert t._backward is not None and t.requires_grad
        weight = g.node("stem").layer.weight
        weight.grad[...] = 0
        ad.mse_loss(heads["main"], np.zeros(heads["main"].shape)).backward()
        assert weight.grad.any()

    def test_a_forward_that_raises_leaves_recording_on(self, monkeypatch):
        g, x = self._graph_and_images()

        def fails(*args):
            raise NumericError("non-finite output")

        monkeypatch.setattr(g.node("block1").layer, "forward", fails)
        with pytest.raises(NumericError, match="non-finite"):
            g.forward(x, "eval")
        leaf = ad.tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        assert ad.relu(leaf)._backward is not None
