"""The benchmark's three workloads and the session that measures them.

Every workload is a closed loop with one caller: the next operation (a
train step or an inference call) starts when the previous one returns.
All inputs are generated from the workload seed; the program receives
only those generated inputs. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace
from time import perf_counter

import numpy as np

from calibrate import Calibrator, adjusted
from shiftpose import autodiff as ad
from shiftpose import checkpoint, network, synthdata
from shiftpose.config import RunConfig, build_datasets, build_network
from shiftpose.training import TrainConfig, Trainer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9     # set-ups made before the timed loop, for setup_s


class Session:
    """One measured phase of a workload: prepare, set-ups, timed loop.

    Collects operation and set-up wall times, each with the calibration
    kernel's time measured right after it, the workload's loss figures
    and the outcome of every correctness check.
    """

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.calibrator = Calibrator(workload.large_calibration)
        self.op_s, self.op_kernel_s = [], []
        self.setup_s, self.setup_kernel_s = [], []
        self.losses = []
        self.checks = []          # (name, passed, detail)
        self.digest = None
        self.checkpoint_bytes = 0

    def check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    def setup(self):
        t0 = perf_counter()
        state = self.wl.setup() if self.tracer is None else self.tracer.span(
            "setup", self.wl.setup)
        self.setup_s.append(perf_counter() - t0)
        self.setup_kernel_s.append(self.calibrator.kernel_seconds(self.setup_s[-1]))
        if self.tracer is not None:
            self.tracer.watch_graph(state.graph, self.wl.batch)
        return state

    def op(self, fn, phase=0):
        t0 = perf_counter()
        out = fn() if self.tracer is None else self.tracer.op(fn, phase)
        self.op_s.append(perf_counter() - t0)
        self.op_kernel_s.append(self.calibrator.kernel_seconds(self.op_s[-1]))
        return out

    def times(self, adjust=True):
        """(operation seconds, set-up seconds), at reference speed or raw."""
        if adjust:
            # set-ups are interpreter-bound small-array work, like toy steps,
            # and follow either kernel one to one
            c = self.calibrator
            return (adjusted(self.op_s, self.op_kernel_s, c.reference_s, c.exponent),
                    adjusted(self.setup_s, self.setup_kernel_s, c.reference_s, 1.0))
        return self.op_s, self.setup_s

    def run(self, seconds):
        self.wl.prepare(self)
        for _ in range(SETUP_REPEATS):
            self.setup()
        self.wl.loop(self, seconds)


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def _widen(samples, channels=3):
    """Repeat the single synthetic channel to the 3 channels of 3block3fsm."""
    return [replace(s, image=np.repeat(s.image, channels, axis=1)) for s in samples]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_roundtrip(session, graph, path, images):
    """Load ``path``, rebuild its graph from the spec, restore the state and
    require bitwise-equal parameters, buffers and eval-mode forward output."""
    header, blobs = checkpoint.checkpoint_load(path)
    clone = network.NetworkGraph.from_spec(header["graph"])
    checkpoint.restore_graph_state(clone, blobs)

    def arrays(g):
        return ([(n, p.data) for n, p in g.named_parameters()]
                + list(g.named_buffers()))

    theirs = dict(arrays(clone))
    bad = [name for name, v in arrays(graph)
           if name not in theirs or not _same_bits(v, theirs[name])]
    session.check("checkpoint restores every parameter bitwise", not bad,
                  ", ".join(bad[:5]))
    a, _ = graph.forward(images, mode="eval")
    b, _ = clone.forward(images, mode="eval")
    session.check("checkpoint restores the forward output",
                  _same_bits(a["main"].data, b["main"].data))


def train_loop(wl, session, seconds):
    """Fixed-length episodes from a fresh set-up, until ``seconds`` pass.

    The first episode always completes and a second one always starts;
    later ones stop when time is up. Every episode must replay the first
    one's losses bit-exactly, and the first two complete episodes must give
    the same ``wl.loss`` figure.
    """
    start = perf_counter()
    reference = None
    episodes = 0
    while True:
        trainer = session.setup()
        rows = []
        for _ in range(wl.steps):
            phase = int(trainer.iteration >= trainer.config.insertion_iteration)
            rows.append(session.op(trainer.step, phase))
            if reference is not None and perf_counter() - start >= seconds:
                break
        losses = [v for row in rows for v in row.values()]
        session.check("every loss is finite", all(math.isfinite(v) for v in losses))
        if reference is None:
            reference = rows
            session.digest = _digest(losses)
            wl.after_first_episode(session, trainer)
        else:
            session.check("the loss trajectory replays bit-exactly",
                          rows == reference[:len(rows)])
        if len(rows) == wl.steps and len(session.losses) < 2:
            session.losses.append(wl.loss(trainer, rows))
        episodes += 1
        if episodes >= 2 and perf_counter() - start >= seconds:
            break
    session.check("the loss figure repeats exactly",
                  len(set(session.losses)) == 1, str(session.losses))


class ToyTrain:
    """The default RunConfig (toy net 32x32, width 16, K=8, batch 16,
    augmentation on) with desk-scale milestones, so delayed insertion
    happens at step 30 of each 400-step episode."""

    name = "toy-train"
    steps = 400
    batch = 16
    large_calibration = False

    def __init__(self, seed, out_dir):
        cfg = RunConfig()
        cfg.network = replace(cfg.network, seed=seed)
        cfg.dataset = replace(cfg.dataset, seed=seed)
        self.cfg = cfg
        self.train_cfg = TrainConfig.desk_scale(self.steps, seed=seed,
                                                batch_size=self.batch)
        self.path = os.path.join(out_dir, f"toy-train-{seed}.ssnc")

    def prepare(self, session):
        pass

    def setup(self):
        train_ds, eval_ds = build_datasets(self.cfg)
        return Trainer(build_network(self.cfg), self.train_cfg, train_ds, eval_ds)

    def after_first_episode(self, session, trainer):
        session.checkpoint_bytes = checkpoint.checkpoint_save(
            self.path, trainer.graph, trainer.optimizer, trainer.rng, trainer.iteration)
        images = np.concatenate([s.image for s in trainer.eval_dataset[:self.batch]])
        checkpoint_roundtrip(session, trainer.graph, self.path, images)

    def loss(self, trainer, rows):
        """Main-head MSE on the eval set after the episode."""
        return trainer.evaluate()

    def loop(self, session, seconds):
        train_loop(self, session, seconds)


class MidTrain:
    """3block3fsm at 128x96, K=128, one keypoint, modules active, batch 2,
    no augmentation; each episode resumes from a checkpoint written before
    the timer, the way ``shiftpose train --resume`` does, and runs 4 steps.
    The checkpointed weights are the model and stay fixed; the seed makes
    the data and the trainer's draws."""

    name = "mid-train"
    steps = 4
    batch = 2
    large_calibration = True
    size = (128, 96)
    weight_seed = 0

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.spec = synthdata.SynthSpec(image_size=self.size, count=8, seed=seed)
        self.train_cfg = TrainConfig(batch_size=self.batch, augment=False, seed=seed)
        self.path = os.path.join(out_dir, f"mid-train-{seed}.ssnc")

    def _datasets(self):
        train = synthdata.generate_dataset(self.spec)
        evals = synthdata.generate_dataset(
            replace(self.spec, count=self.batch, seed=self.seed + 1000))
        return _widen(train), _widen(evals)

    def prepare(self, session):
        graph = network.build_3block3fsm(self.size, 128, 1, fsm_active=True,
                                         rng=np.random.default_rng(self.weight_seed))
        train, evals = self._datasets()
        trainer = Trainer(graph, self.train_cfg, train, evals)
        session.checkpoint_bytes = checkpoint.checkpoint_save(
            self.path, graph, trainer.optimizer, trainer.rng, trainer.iteration)
        images = np.concatenate([s.image for s in evals])
        checkpoint_roundtrip(session, graph, self.path, images)

    def setup(self):
        train, evals = self._datasets()
        header, blobs = checkpoint.checkpoint_load(self.path)
        graph = network.NetworkGraph.from_spec(header["graph"])
        checkpoint.restore_graph_state(graph, blobs)
        trainer = Trainer(graph, self.train_cfg, train, evals)
        trainer.optimizer.load_state(header["optimizer"], blobs)
        trainer.rng = checkpoint.restore_rng(header["rng_state"])
        trainer.iteration = header["iteration"]
        return trainer

    def after_first_episode(self, session, trainer):
        pass

    def loss(self, trainer, rows):
        """Mean main-head training loss of the episode. An eval-mode loss
        after 4 steps would mostly measure batch-norm running statistics
        that have barely moved from their initial values."""
        return float(np.mean([row["main"] for row in rows]))

    def loop(self, session, seconds):
        train_loop(self, session, seconds)


class _InferState:
    def __init__(self, graph, samples):
        self.graph = graph
        self.samples = samples


def heatmap_summary(maps):
    m = np.asarray(maps, dtype=np.float64)
    return {"sum": float(m.sum()), "sumsq": float((m * m).sum()), "n": int(m.size)}


class PaperInfer:
    """3block3fsm at 256x192, K=256, 17 keypoints, batch 1: eval-mode
    forward and ``decode_heatmap`` on synthetic images. The weights are
    the model and stay fixed; the seed makes the images."""

    name = "paper-infer"
    batch = 1
    large_calibration = True
    size = (256, 192)
    images = 8
    weight_seed = 0
    reference_seed = 0    # image of the recorded output summary

    def __init__(self, seed, out_dir):
        self.spec = synthdata.SynthSpec(image_size=self.size, count=self.images,
                                        seed=seed)

    def _graph(self):
        return network.build_3block3fsm(self.size, 256, 17, fsm_active=True,
                                        rng=np.random.default_rng(self.weight_seed))

    def prepare(self, session):
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)[self.name]
        spec = replace(self.spec, count=1, seed=self.reference_seed)
        image = _widen(synthdata.generate_dataset(spec))[0].image
        graph = self._graph()
        first, _ = graph.forward(image, mode="eval")
        again, _ = graph.forward(image, mode="eval")
        session.check("a repeated inference call gives identical heatmaps",
                      _same_bits(first["main"].data, again["main"].data))
        got = heatmap_summary(first["main"].data)
        scale = math.sqrt(ref["n"] * ref["sumsq"])
        ok = (got["n"] == ref["n"]
              and abs(got["sumsq"] - ref["sumsq"]) <= ref["rtol"] * ref["sumsq"]
              and abs(got["sum"] - ref["sum"]) <= ref["rtol"] * scale)
        session.check("the output summary matches the recorded reference", ok,
                      f"got {got}, reference {ref}")

    def setup(self):
        return _InferState(self._graph(), _widen(synthdata.generate_dataset(self.spec)))

    def loop(self, session, seconds):
        state = session.setup()
        graph = state.graph

        def call(image):
            heads, _ = graph.forward(image, mode="eval")
            return heads["main"], synthdata.decode_heatmap(heads["main"].data)

        seen = {}
        losses = []
        start = perf_counter()
        i = 0
        # every image is called at least twice, so each gets a repeat check
        while i < 2 * len(state.samples) or perf_counter() - start < seconds:
            k = i % len(state.samples)
            sample = state.samples[k]
            maps, keypoints = session.op(lambda: call(sample.image))
            if k not in seen:
                seen[k] = maps.data
                session.check("every heatmap is finite", np.isfinite(maps.data).all())
                session.check("decode gives one position per keypoint",
                              keypoints.shape == (1, maps.shape[1], 2))
                hh, hw = maps.shape[2:]
                target = synthdata.heatmap_target(
                    sample.keypoints / (self.size[0] / hh), (hh, hw),
                    sample.heatmap_sigma, maps.dtype)
                target = np.broadcast_to(target[None], maps.shape)
                losses.append(float(ad.mse_loss(maps, target).data))
            else:
                session.check("a repeated inference call gives identical heatmaps",
                              _same_bits(seen[k], maps.data), f"image {k}, call {i}")
            i += 1
        session.digest = _digest([heatmap_summary(m)["sum"] for m in seen.values()])
        session.losses.append(float(np.mean(losses)))


WORKLOADS = {w.name: w for w in (ToyTrain, MidTrain, PaperInfer)}
