"""Schedules, delayed insertion, determinism, descent."""

import numpy as np
import pytest

from shiftpose import network as net
from shiftpose.errors import ConfigError, NumericError
from shiftpose.optim import adam_step
from shiftpose.synthdata import SynthSpec, generate_dataset
from shiftpose.training import (LrDecay, TrainConfig, Trainer, base_lr_schedule,
                                offset_lr_schedule)


def tiny_setup(seed=0, fsm_active=False, iterations=20, insertion=5,
               distractors=0, count=32, batch=4, **cfg_overrides):
    spec = SynthSpec(image_size=(16, 16), displacement=(5.0, 0.0),
                     blob_sigma=1.0, distractors=distractors, count=count,
                     seed=seed)
    data = generate_dataset(spec)
    graph = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8, fsm_active=fsm_active,
                                  rng=np.random.default_rng(seed))
    cfg = TrainConfig(base_lr=2e-3, offset_lr=0.02, batch_size=batch,
                      insertion_iteration=insertion, iterations=iterations,
                      lr_decay=LrDecay(after_iter=10 ** 9, factor=0.5, every=1),
                      augment=False, seed=seed, **cfg_overrides)
    return graph, cfg, data


class TestSchedules:
    def test_offset_lr_closed_form(self):
        cfg = TrainConfig()
        assert offset_lr_schedule(0, cfg) == 1e-3
        assert offset_lr_schedule(1, cfg) == pytest.approx(9e-4, rel=1e-12)
        # closed-form evaluation frozen from repeated multiplication
        expect = 1e-3
        for _ in range(10):
            expect *= 0.9
        assert offset_lr_schedule(10, cfg) == pytest.approx(expect, rel=1e-12)
        assert offset_lr_schedule(10, cfg) == pytest.approx(3.487e-4, rel=1e-3)

    def test_base_lr_halves_at_decay_points(self):
        cfg = TrainConfig(base_lr=4e-4,
                          lr_decay=LrDecay(after_iter=100, factor=0.5, every=50))
        assert base_lr_schedule(0, cfg) == 4e-4
        assert base_lr_schedule(99, cfg) == 4e-4
        assert base_lr_schedule(100, cfg) == 2e-4
        assert base_lr_schedule(149, cfg) == 2e-4
        assert base_lr_schedule(150, cfg) == 1e-4
        assert base_lr_schedule(249, cfg) == 5e-5

    def test_lr_is_pure_function_of_iteration(self):
        cfg = TrainConfig(lr_decay=LrDecay(after_iter=7, factor=0.5, every=3))
        values = [base_lr_schedule(i, cfg) for i in range(20)]
        again = [base_lr_schedule(i, cfg) for i in range(20)]
        assert values == again
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="base_lr"):
            TrainConfig(base_lr=0.0).validate()
        with pytest.raises(ConfigError, match="offset_decay_per_epoch"):
            TrainConfig(offset_decay_per_epoch=1.5).validate()

    def test_desk_scale_proportions(self):
        cfg = TrainConfig.desk_scale(iterations=2000)
        assert cfg.insertion_iteration == 150
        assert cfg.lr_decay.after_iter == 1500
        assert cfg.lr_decay.every == 150


class TestInsertion:
    def test_bypassed_graph_routes_identity_through_fsm(self):
        graph, cfg, data = tiny_setup()
        x = data[0].image
        _, outputs = graph.forward(x, "eval")
        assert outputs["fsm1"] is outputs["stem2"]

    def test_no_fsm_parameter_changes_before_insertion_bitwise(self):
        graph, cfg, data = tiny_setup(iterations=8, insertion=6)
        before = {n: p.data.copy() for n, p in graph.named_parameters()
                  if n.startswith("fsm")}
        trainer = Trainer(graph, cfg, data)
        while trainer.iteration < cfg.insertion_iteration:
            trainer.step()
        for n, p in graph.named_parameters():
            if n.startswith("fsm"):
                assert np.array_equal(before[n], p.data), n

    def test_insertion_zeroes_out_weight_and_dead_branch_is_relu_norm(self):
        graph, cfg, data = tiny_setup(iterations=8, insertion=3)
        trainer = Trainer(graph, cfg, data)
        for _ in range(4):
            trainer.step()
        module = dict(graph.fsm_layers())["fsm1"]
        assert module.active

    def test_offsets_receive_gradient_within_ten_iterations(self):
        graph, cfg, data = tiny_setup(iterations=20, insertion=2)
        trainer = Trainer(graph, cfg, data)
        module = dict(graph.fsm_layers())["fsm1"]
        seen = 0.0
        for _ in range(12):
            trainer.step()
            if module.active:
                seen = max(seen, float(np.abs(module.dx.grad).max()))
        assert seen > 0.0

    def test_step_leaves_no_gradient_on_the_cached_tape(self):
        graph, cfg, data = tiny_setup(iterations=4, insertion=1)
        trainer = Trainer(graph, cfg, data)
        for _ in range(3):
            trainer.step()
        module = dict(graph.fsm_layers())["fsm1"]
        assert module.active
        seen, stack, interior = set(), list(module.cache.values()), 0
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._backward is not None:
                interior += 1
                assert t.grad is None, t
            stack.extend(t._parents)
        assert interior > 0

    def test_inserted_groups_use_offset_lr(self):
        graph, cfg, data = tiny_setup(iterations=8, insertion=2)
        trainer = Trainer(graph, cfg, data)
        opt, fused_step, passed = trainer.optimizer, trainer.optimizer.step, []

        def step(rates):
            passed.append(dict(rates))
            fused_step(rates)

        opt.step = step
        for _ in range(3):
            trainer.step()
        assert "offsets" in opt.groups and set(opt.groups) <= set(passed[-1])
        assert passed[-1]["offsets"] == pytest.approx(
            offset_lr_schedule(trainer.epoch(), cfg))


def group_slots(trainer):
    return {name: [e["name"] for e in g["entries"]]
            for name, g in trainer.optimizer.groups.items()}


class TestOptimizerGroups:
    """The optimizer holds every parameter exactly once; checkpoint bytes
    depend on this partition and its order."""

    def test_bypassed_net_registers_the_non_fsm_slots_in_order(self):
        graph, cfg, data = tiny_setup()
        trainer = Trainer(graph, cfg, data)
        fsm_nodes = {name for name, _ in graph.fsm_layers()}
        assert fsm_nodes
        assert group_slots(trainer) == {"backbone": [
            n for n, _ in graph.named_parameters()
            if n.split(".")[0] not in fsm_nodes]}

    def test_insertion_partitions_every_parameter(self):
        graph, cfg, data = tiny_setup(iterations=4, insertion=1)
        trainer = Trainer(graph, cfg, data)
        for _ in range(2):
            trainer.step()
        slots = group_slots(trainer)
        assert list(slots) == ["backbone", "fsm_weights", "offsets"]
        registered = [n for names in slots.values() for n in names]
        assert sorted(registered) == sorted(n for n, _ in graph.named_parameters())
        assert len(set(registered)) == len(registered)
        assert slots["offsets"] == ["fsm1.dx", "fsm1.dy"]
        params = dict(graph.named_parameters())
        for name, group in trainer.optimizer.groups.items():
            for e in group["entries"]:
                assert e["param"] is params[e["name"]], (name, e["name"])

    def test_active_3block3fsm_has_all_three_groups_from_construction(self):
        graph = net.build_3block3fsm((32, 32), 4, 1, fsm_active=True)
        data = generate_dataset(SynthSpec(image_size=(32, 32), count=2))
        trainer = Trainer(graph, TrainConfig(batch_size=2), data)
        slots = group_slots(trainer)
        assert list(slots) == ["backbone", "fsm_weights", "offsets"]
        fsm_nodes = [name for name, _ in graph.fsm_layers()]
        assert len(fsm_nodes) == 3
        assert slots["offsets"] == [f"{n}.{d}" for n in fsm_nodes for d in ("dx", "dy")]
        assert sorted(n for names in slots.values() for n in names) == \
            sorted(n for n, _ in graph.named_parameters())


class TestFusedAdam:
    """Adam steps each group over flat buffers that the graph's parameters
    view; the update must equal one ``adam_step`` per parameter."""

    def test_matches_a_per_parameter_reference(self):
        graph, cfg, data = tiny_setup(seed=2, iterations=6, insertion=2)
        trainer = Trainer(graph, cfg, data)
        opt, fused_step = trainer.optimizer, trainer.optimizer.step
        ref, steps = {}, {}

        def step(rates):
            for gname, group in opt.groups.items():
                steps[gname] = steps.get(gname, 0) + 1
                for e in group["entries"]:
                    value, m, v = ref.setdefault(
                        e["name"], [e["param"].data.copy(), np.zeros_like(e["m"]),
                                    np.zeros_like(e["v"])])
                    adam_step(value, e["param"].grad.copy(), m, v, steps[gname],
                              rates[gname])
            fused_step(rates)

        opt.step = step
        for _ in range(6):
            trainer.step()
        assert list(opt.groups) == ["backbone", "fsm_weights", "offsets"]
        assert {g: group["t"] for g, group in opt.groups.items()} == steps == \
            {"backbone": 6, "fsm_weights": 4, "offsets": 4}
        params = dict(graph.named_parameters())
        assert sorted(ref) == sorted(params)
        for group in opt.groups.values():
            for e in group["entries"]:
                value, m, v = ref[e["name"]]
                assert params[e["name"]].data.tobytes() == value.tobytes(), e["name"]
                assert e["m"].tobytes() == m.tobytes(), e["name"]
                assert e["v"].tobytes() == v.tobytes(), e["name"]

    def test_restored_graph_is_stepped_through_its_views(self, tmp_path):
        from shiftpose.checkpoint import (checkpoint_load, checkpoint_save,
                                          restore_graph_state, restore_rng)

        graph, cfg, data = tiny_setup(seed=4, iterations=6, insertion=2)
        trainer = Trainer(graph, cfg, data)
        for _ in range(3):
            trainer.step()
        path = tmp_path / "mid.ssnc"
        checkpoint_save(path, graph, trainer.optimizer, trainer.rng, trainer.iteration)
        trainer.step()

        header, blobs = checkpoint_load(path)
        rebuilt = net.NetworkGraph.from_spec(header["graph"])
        resumed = Trainer(rebuilt, cfg, data)
        restore_graph_state(rebuilt, blobs)
        resumed.optimizer.load_state(header["optimizer"], blobs)
        resumed.rng = restore_rng(header["rng_state"])
        resumed.iteration = header["iteration"]
        arrays = {n: p.data for n, p in rebuilt.named_parameters()}
        before = {n: a.copy() for n, a in arrays.items()}
        resumed.step()

        moved = 0
        for name, p in rebuilt.named_parameters():
            assert p.data is arrays[name], name
            moved += not np.array_equal(p.data, before[name])
        assert moved == len(arrays)
        expect = np.concatenate([p.data.ravel() for _, p in graph.named_parameters()])
        got = np.concatenate([p.data.ravel() for _, p in rebuilt.named_parameters()])
        assert expect.tobytes() == got.tobytes()


class TestEvaluate:
    def test_mean_over_the_set_when_the_last_batch_is_short(self):
        graph, cfg, data = tiny_setup(count=10, batch=4)
        trainer = Trainer(graph, cfg, data)
        heads, _ = graph.forward(np.concatenate([s.image for s in data]), "eval")
        pred = heads["main"].data.astype(np.float64)
        target = trainer._targets_for(data, pred.shape[1:])
        assert trainer.evaluate() == pytest.approx(np.mean((pred - target) ** 2), rel=1e-5)


class TestDeterminismAndDescent:
    def test_identical_config_and_seed_reproduce_run_bitwise(self):
        results = []
        for _ in range(2):
            graph, cfg, data = tiny_setup(seed=3, iterations=15, insertion=4)
            trainer = Trainer(graph, cfg, data)
            trainer.run()
            losses = [row["loss_main"] for row in trainer.metrics]
            params = np.concatenate([p.data.ravel()
                                     for _, p in graph.named_parameters()])
            results.append((losses, params))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    def test_zero_iterations_leaves_initialization(self):
        graph, cfg, data = tiny_setup(iterations=0)
        before = np.concatenate([p.data.ravel().copy()
                                 for _, p in graph.named_parameters()])
        trainer = Trainer(graph, cfg, data)
        trainer.run()
        after = np.concatenate([p.data.ravel() for _, p in graph.named_parameters()])
        assert np.array_equal(before, after)

    def test_loss_descends_after_2000_iterations_for_all_seeds(self):
        # descent smoke: strict improvement over the iteration-0 loss
        for seed in range(10):
            graph, cfg, data = tiny_setup(seed=seed, iterations=2000, insertion=50,
                                          count=64)
            trainer = Trainer(graph, cfg, data)
            first = trainer.step()["main"]
            while trainer.iteration < 2000:
                trainer.step()
            last = trainer.metrics[-1]["loss_main"]
            assert last < first, (seed, first, last)

    def test_metrics_csv_layout(self):
        graph, cfg, data = tiny_setup(iterations=3, insertion=1)
        trainer = Trainer(graph, cfg, data)
        trainer.run()
        lines = trainer.metrics_csv().splitlines()
        assert lines[0] == "iteration,loss_main,base_lr,offset_lr"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_guard_names_layer(self):
        from shiftpose.errors import NumericError

        graph, cfg, data = tiny_setup(iterations=5, insertion=10)
        trainer = Trainer(graph, cfg, data)
        stem = dict(graph.node("stem").layer.state())["weight"]
        stem.data[...] = np.inf
        with pytest.raises(NumericError, match="stem"):
            trainer.step()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_gradient_names_the_first_parameter_and_moves_nothing(
            self, nan_gradients):
        graph, cfg, data = tiny_setup(iterations=5, insertion=0)
        trainer = Trainer(graph, cfg, data)
        trainer.step()
        params = dict(graph.named_parameters())
        # fsm1.dx (group "offsets") comes before neck.weight ("backbone") in
        # graph order, though its group is registered after the backbone's
        poisoned = {id(params["fsm1.dx"]), id(params["neck.weight"])}
        nan_gradients(lambda t: id(t) in poisoned)

        def buffers():
            return {(name, key): group[key].tobytes()
                    for name, group in trainer.optimizer.groups.items()
                    for key in ("value", "m", "v")}

        before = buffers()
        with pytest.raises(NumericError, match=r"^iteration 1: non-finite gradient "
                                               r"at parameter 'fsm1\.dx'$"):
            trainer.step()
        assert buffers() == before
        assert {name: g["t"] for name, g in trainer.optimizer.groups.items()} == \
            {"backbone": 1, "fsm_weights": 1, "offsets": 1}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_guard_names_layer_with_every_product_split(self,
                                                                  split_every_product):
        # the worker half of a product must keep the caller's errstate, or
        # the inf weight warns there before the guard can name the layer
        self.test_nonfinite_guard_names_layer()
