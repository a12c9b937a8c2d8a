"""Fixtures shared by the test modules."""

import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from shiftpose import autodiff as ad


@pytest.fixture
def split_every_product(monkeypatch):
    """Every GEMM, ``shift`` pass, normalization, max-pool and sigmoid runs
    as two halves, the first on a worker thread of its own, whatever the
    core count."""
    monkeypatch.setattr(ad, "_SPLIT_WORK", 0)
    monkeypatch.setattr(ad, "_CORES", 2)
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(ad, "_POOL", pool)
        yield


@pytest.fixture
def nan_gradients(monkeypatch):
    """A function of a predicate on tensors: once called, every tape node
    recorded returns a NaN gradient for each parent the predicate selects."""
    node = ad._node

    def poison(selected):
        def poisoned_node(data, parents, backward):
            def nan_backward(g):
                return [(p, np.full_like(pg, np.nan) if selected(p) else pg)
                        for p, pg in backward(g)]
            return node(data, parents, nan_backward)

        monkeypatch.setattr(ad, "_node", poisoned_node)

    return poison


@pytest.fixture
def tape_arrays(monkeypatch):
    """A list that gathers a weak reference to every array that becomes a
    tensor from here on, and to the array it views, if any."""
    node, refs = ad._node, []

    def recorded_node(data, parents, backward):
        for a in (data, data.base):
            if isinstance(a, np.ndarray):
                refs.append(weakref.ref(a))
        return node(data, parents, backward)

    monkeypatch.setattr(ad, "_node", recorded_node)
    return refs


@pytest.fixture
def kept_outputs(monkeypatch):
    """``keep(graph)`` returns a list that gathers the node outputs of every
    forward ``graph`` runs from then on."""
    def keep(graph):
        forward, kept = graph.forward, []

        def kept_forward(*args, **kwargs):
            heads, outputs = forward(*args, **kwargs)
            kept.append(outputs)
            return heads, outputs

        monkeypatch.setattr(graph, "forward", kept_forward)
        return kept

    return keep
