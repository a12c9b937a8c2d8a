"""Checks on the work denominators the benchmark takes from ``count_flops``.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from shiftpose import network  # noqa: E402
from shiftpose.config import RunConfig, build_network  # noqa: E402

import tracer  # noqa: E402


def _graphs():
    rng = np.random.default_rng
    return {
        "toy-train": build_network(RunConfig()),
        "mid-train": network.build_3block3fsm((128, 96), 128, 1, rng=rng(0)),
        "paper-infer": network.build_3block3fsm((256, 192), 256, 17, rng=rng(0)),
    }


@pytest.mark.parametrize("name", ["toy-train", "mid-train", "paper-infer"])
def test_per_node_ops_sum_to_total(name):
    graph = _graphs()[name]
    report = network.count_flops(graph)
    assert set(report.by_layer) == {n.name for n in graph.nodes}
    assert sum(report.by_layer.values()) == report.flops


@pytest.mark.parametrize("name", ["toy-train", "mid-train", "paper-infer"])
def test_accounting_leaves_clamp_bounds_unchanged(name):
    graph = _graphs()[name]
    before = {n: m.clamp_bound for n, m in graph.fsm_layers()}
    assert before and all(b is not None for b in before.values())
    t = tracer.Tracer()
    t.watch_graph(graph, batch=2)
    t.uninstall()
    assert {n: m.clamp_bound for n, m in graph.fsm_layers()} == before
    assert t.problems == []
    assert t.flops_by_node == {
        n: 2 * ops for n, ops in network.count_flops(graph).by_layer.items()}
