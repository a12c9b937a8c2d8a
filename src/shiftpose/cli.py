"""Command-line entry points.

Commands: train, eval, synth, gradcheck, count, analyze
(offsets|erf|kp-scores), oracle-check. Each writes its artifact and
exits 0 on success; errors print one machine-parseable line to stderr
(`error: <category>: <detail>`) with exit code 2 for configuration
problems (`config`), 3 for numeric divergence during training
(`numeric`), and 1 otherwise: an unusable checkpoint (`checkpoint`),
an impossible synthetic task (`generation`), a tensor shape an
operation refuses (`dimension`), an operation in a state that forbids
it (`state`), a failed allocation (`memory`), or a path that cannot be
read or written (`file`, naming the path). A package error's category
is its class name without `Error`.

`gradcheck` and `oracle-check` run each suite at its harness contract.
No command reads an environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import analysis as ana
from . import network as net
from .checkpoint import checkpoint_load, checkpoint_save, restore_graph_state, restore_rng
from .config import (LIMITS, RunConfig, _value, build_datasets, build_network,
                     load_run_config, parse_run_config)
from .errors import CheckpointError, ConfigError, ShiftPoseError
from .training import Trainer
from .verify import _ORACLE_TOLERANCE, gradcheck_suite, oracle_trials


def _load_config(path):
    if path is None:
        return RunConfig()
    return load_run_config(path)


def _datasets(cfg, graph):
    """The run's training and eval sets fitted to ``graph``'s input: the
    image size must be its input size, and the one synthetic channel is
    repeated to its input channels (1-channel sets are returned as built)."""
    channels, *size = graph.input_shape
    if tuple(cfg.dataset.image_size) != tuple(size):
        raise ConfigError("dataset.image_size", f"{tuple(cfg.dataset.image_size)} "
                          f"differs from the network input size {tuple(size)}")
    datasets = build_datasets(cfg)
    if channels == 1:
        return datasets
    return tuple([replace(s, image=np.repeat(s.image, channels, axis=1)) for s in ds]
                 for ds in datasets)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(args):
    if args.resume:
        graph, cfg, header, blobs = _restore(args.resume, args.config)
    else:
        cfg = _load_config(args.config)
        graph = build_network(cfg)
    if args.iterations is not None:
        cfg.trainer = replace(cfg.trainer, iterations=_value(
            "int", args.iterations, "trainer.iterations", LIMITS))
    os.makedirs(args.out, exist_ok=True)

    train_ds, eval_ds = _datasets(cfg, graph)
    trainer = Trainer(graph, cfg.trainer, train_ds, eval_ds)
    if args.resume:
        trainer.optimizer.load_state(header["optimizer"], blobs)
        trainer.rng = restore_rng(header["rng_state"])
        trainer.iteration = header["iteration"]

    final_eval_loss = trainer.run()

    with open(os.path.join(args.out, "metrics.csv"), "w") as fh:
        fh.write(trainer.metrics_csv())
    for epoch, table in trainer.offset_snapshots:
        with open(os.path.join(args.out, f"offsets_epoch_{epoch}.csv"), "w") as fh:
            fh.write(table)
    ckpt_path = os.path.join(args.out, "checkpoint.ssnc")
    checkpoint_save(ckpt_path, graph, trainer.optimizer, trainer.rng,
                    trainer.iteration, extra={"run_config": asdict(cfg)})
    summary = {"iterations": trainer.iteration,
               "final_eval_loss": final_eval_loss,
               "checkpoint": ckpt_path}
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"trained {trainer.iteration} iterations; "
          f"final_eval_loss={final_eval_loss:.9g}")
    return 0


def _restore(checkpoint_path, config_path=None, need_config=True):
    """Graph rebuilt from a checkpoint with its state restored, the run
    config, and the checkpoint's header and blobs. The run config is the
    file at ``config_path`` (whose network must be the embedded run
    config's), else the embedded one. A checkpoint with neither is refused
    unless ``need_config`` is false (the caller reads only the graph), and
    the run config is then None."""
    header, blobs = checkpoint_load(checkpoint_path)
    graph = net.NetworkGraph.from_spec(header["graph"])
    restore_graph_state(graph, blobs)
    embedded = header["extra"].get("run_config")
    cfg = None if embedded is None else parse_run_config(embedded)
    if config_path is not None:
        given = load_run_config(config_path)
        if cfg is not None and given.network != cfg.network:
            saved = asdict(cfg.network)
            keys = [k for k, v in asdict(given.network).items() if v != saved[k]]
            raise ConfigError("network", f"{', '.join(keys)} differ from the "
                              "checkpoint's run config")
        cfg = given
    if cfg is None and need_config:
        raise CheckpointError(f"{checkpoint_path} holds no run config; pass --config")
    return graph, cfg, header, blobs


def cmd_eval(args):
    graph, cfg, *_ = _restore(args.checkpoint, args.config)
    _, eval_ds = _datasets(cfg, graph)
    trainer = Trainer(graph, cfg.trainer, eval_ds, eval_ds)
    loss = trainer.evaluate()
    print(f"eval_loss={loss:.9g}")
    return 0


def cmd_synth(args):
    from .synthdata import heatmap_targets

    cfg = _load_config(args.config)
    graph = build_network(cfg)
    samples, _ = _datasets(cfg, graph)
    images = np.concatenate([s.image for s in samples], axis=0)
    keypoints = np.stack([s.keypoints for s in samples], axis=0)
    heatmaps = heatmap_targets(samples, graph.shape_of(graph.main_head),
                               graph.input_shape[1], images.dtype)
    cues = np.stack([s.cue for s in samples], axis=0)
    meta = json.dumps(asdict(cfg.dataset))
    np.savez(args.out, images=images, keypoints=keypoints, heatmaps=heatmaps,
             cues=cues, meta=meta)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_gradcheck(args):
    worst = 0.0
    failed = 0
    total = 0
    for op_name, seed, report in gradcheck_suite():
        total += 1
        worst = max(worst, report.max_rel_error)
        status = "pass" if report.passed else "FAIL"
        if not report.passed:
            failed += 1
            print(f"  {op_name}[seed {seed}]: {status} "
                  f"max_rel={report.max_rel_error:.3e}")
    print(f"gradcheck: {total - failed}/{total} cases pass, "
          f"max rel error {worst:.3e} (tolerance {report.tolerance:g})")
    return 0 if failed == 0 else 1


def cmd_count(args):
    if args.config:
        cfg = load_run_config(args.config)
    else:
        size = [int(v) if v.isdecimal() else v for v in args.input_size.split("x")]
        cfg = parse_run_config({"network": {
            "builder": "3block3fsm", "input_size": size,
            "shift_channels": args.shift_channels, "keypoints": args.keypoints}})
    graph = build_network(cfg)
    input_hw = cfg.network.input_size
    params = net.count_params(graph)
    report = net.count_flops(graph)
    print(f"input {input_hw[0]}x{input_hw[1]}")
    print(f"parameters {params} ({params / 1e6:.3f} M)")
    print(f"flops {report.flops:.0f} ({report.flops / 1e9:.3f} G, "
          f"multiply-accumulate = 2 ops)")
    print(f"macs {report.macs:.0f} ({report.macs / 1e9:.3f} G, "
          f"fused multiply-add units)")
    return 0


def cmd_analyze(args):
    graph, cfg, *_ = _restore(args.checkpoint, args.config, args.what != "offsets")
    if args.what == "offsets":
        text = ana.export_offsets(graph)
    else:
        opts = cfg.analysis
        train_ds, _ = _datasets(cfg, graph)
        batch = np.concatenate(
            [s.image for s in train_ds[:min(8, len(train_ds))]], axis=0)
        if args.what == "erf":
            emap = ana.erf_map(graph, batch[:1], opts.module_id, opts.channel,
                               tuple(opts.position))
            text = ana.csv_text(("y", "x", "value"),
                                [(y, x, emap[y, x]) for y, x in np.ndindex(emap.shape)])
        else:  # kp-scores
            scores = ana.keypoint_offset_scores(graph, batch, opts.module_id)
            counts = ana.contribution_counts(scores, opts.threshold)
            text = ana.csv_text(
                ["keypoint", "count"] + [f"k{i}" for i in range(scores.shape[1])],
                [[m, counts[m], *scores[m]] for m in range(scores.shape[0])])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle_check(args):
    results, ok = oracle_trials()
    worst = max(r[2] for r in results)
    print(f"oracle-check: {len(results)} comparisons, max rel error {worst:.3e} "
          f"(tolerance {_ORACLE_TOLERANCE:g}): {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="shiftpose",
        description="Feature-shifting keypoint networks at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train on the synthetic task")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--out", default="run", help="artifact directory (default: run/)")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--iterations", type=int, help="override trainer.iterations")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="override the embedded run configuration")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth", help="emit a synthetic dataset")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--out", default="synth.npz")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("count", help="parameter and operation counts")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--input-size", default="256x192")
    p.add_argument("--shift-channels", type=int, default=256)
    p.add_argument("--keypoints", type=int, default=17)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("analyze", help="diagnostics over a checkpoint")
    p.add_argument("what", choices=["offsets", "erf", "kp-scores"])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="override the embedded run configuration")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("oracle-check", help="factored vs explicit equivalence")
    p.set_defaults(fn=cmd_oracle_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ShiftPoseError as exc:
        # the category is the class name: ConfigError -> config
        category = type(exc).__name__.lower().replace("error", "")
        print(f"error: {category}: {exc}", file=sys.stderr)
        return {"config": 2, "numeric": 3}.get(category, 1)
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"error: file: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
