"""The benchmark's layer tracer patches program names from outside; a
short traced toy run across delayed insertion shows that every name it
patches still exists and that its counts repeat within each phase."""

import os
from dataclasses import replace

from shiftpose.config import RunConfig, build_datasets, build_network
from shiftpose.training import Trainer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_traced_toy_steps_repeat_their_counts(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    cfg = RunConfig()
    cfg.dataset = replace(cfg.dataset, count=4)
    cfg.eval_count = 2
    cfg.trainer = replace(cfg.trainer, batch_size=2, insertion_iteration=2)
    trainer = Trainer(build_network(cfg), cfg.trainer, *build_datasets(cfg))

    t = tracer.Tracer()
    t.install()
    try:
        t.watch_graph(trainer.graph, cfg.trainer.batch_size)
        for _ in range(4):
            t.op(trainer.step, int(trainer.iteration >= cfg.trainer.insertion_iteration))
    finally:
        t.uninstall()

    assert t.check_counts() and not t.problems, t.problems
    assert [phase for _, phase, _ in t.ops] == [0, 0, 1, 1]
    assert t.ops[-1][2]["fsm.shift.calls"] > 0
    # per step: the three module projections are conv1x1 calls once the
    # module is inserted, and no conv is counted twice
    assert [c["autodiff.conv1x1.calls"] for _, _, c in t.ops] == [0, 0, 3, 3]
    assert [c["autodiff.conv2d.calls"] for _, _, c in t.ops] == [7, 7, 7, 7]
    assert t.layer_metrics()["autodiff.conv2d.calls"] > 0
