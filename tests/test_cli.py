"""Command line, run in-process: the commands on a tiny config, and the
one-line error for a bad config or checkpoint."""

import json

import numpy as np
import pytest

from shiftpose import cli
from shiftpose.autodiff import Parameter
from shiftpose.checkpoint import FORMAT_VERSION, MAGIC, checkpoint_load
from shiftpose.synthdata import heatmap_target

TINY = {"trainer": {"iterations": 3, "batch_size": 2, "insertion_iteration": 1},
        "dataset": {"count": 4}, "eval_count": 2}


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr()


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture
def checkpoint(tmp_path, config, capsys):
    code, _ = run(capsys, "train", "--config", config, "--out", tmp_path / "run")
    assert code == 0
    return tmp_path / "run" / "checkpoint.ssnc"


def test_split_resume_writes_the_same_checkpoint(tmp_path, config, capsys):
    whole, first, rest = (tmp_path / d for d in ("whole", "first", "rest"))
    assert run(capsys, "train", "--config", config, "--out", whole,
               "--iterations", 5)[0] == 0
    assert run(capsys, "train", "--config", config, "--out", first)[0] == 0
    assert run(capsys, "train", "--resume", first / "checkpoint.ssnc",
               "--out", rest, "--iterations", 5)[0] == 0
    assert (whole / "checkpoint.ssnc").read_bytes() == \
        (rest / "checkpoint.ssnc").read_bytes()


@pytest.mark.parametrize("argv", [
    ["eval"],
    ["analyze", "offsets", "--out", "{tmp}/offsets.csv"],
    # the two eval forwards that must still record a tape to back-propagate
    ["analyze", "erf", "--out", "{tmp}/erf.csv"],
    ["analyze", "kp-scores", "--out", "{tmp}/kp_scores.csv"],
])
def test_checkpoint_commands_succeed(tmp_path, checkpoint, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out = run(capsys, *argv, "--checkpoint", checkpoint)
    assert (code, out.err) == (0, "")


def test_synth_writes_heatmaps_of_its_keypoints(tmp_path, config, capsys):
    path = tmp_path / "synth.npz"
    code, out = run(capsys, "synth", "--config", config, "--out", path)
    assert (code, out.err) == (0, "")
    data = np.load(path)
    assert data["images"].shape == (4, 1, 32, 32)
    assert data["heatmaps"].shape == (4, 1, 8, 8)
    for keypoints, maps in zip(data["keypoints"], data["heatmaps"]):
        np.testing.assert_array_equal(maps, heatmap_target(keypoints / 4, (8, 8), 1.0))


def test_stock_verify_suites_pass(capsys):
    code, out = run(capsys, "gradcheck")
    assert (code, out.err) == (0, "")
    assert "gradcheck: 110/110 cases pass" in out.out
    code, out = run(capsys, "oracle-check")
    assert (code, out.err) == (0, "")
    assert out.out.endswith(": pass\n")


@pytest.mark.usefixtures("split_every_product")
def test_stock_verify_suites_pass_with_every_product_split(capsys):
    test_stock_verify_suites_pass(capsys)


def test_count_succeeds(config, capsys):
    code, out = run(capsys, "count", "--config", config)
    assert (code, out.err) == (0, "")
    assert out.out.startswith("input 32x32\n")


def test_count_default_flags_give_paper_figures(capsys):
    code, out = run(capsys, "count")
    assert (code, out.err) == (0, "")
    assert "parameters 775650 " in out.out and "flops 4959737856 " in out.out


@pytest.mark.parametrize("flags,message", [
    (["--input-size", "abc"], "network.input_size: expected a list of 2 values"),
    (["--input-size", "32x32x3"], "network.input_size: expected a list of 2 values"),
    (["--input-size", "0x0"], "network.input_size: must be >= 1"),
    (["--shift-channels", "-1"], "network.shift_channels: must be >= 1"),
])
def test_bad_count_flags_are_one_error_line(capsys, flags, message):
    code, out = run(capsys, "count", *flags)
    assert (code, out.err) == (2, f"error: config: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["train", "--iterations", "-5", "--out", "{tmp}/run"],
     "trainer.iterations: must be >= 0"),
])
def test_bad_command_flags_are_one_error_line(tmp_path, capsys, argv, message):
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out.err) == (2, f"error: config: {message}\n")
    assert not (tmp_path / "run").exists()


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 11.9 GiB")

    monkeypatch.setattr(cli, "cmd_count", exhausted)
    code, out = run(capsys, "count")
    assert (code, out.err) == (1, "error: memory: Unable to allocate 11.9 GiB\n")


def test_nonfinite_gradient_is_one_numeric_line(tmp_path, config, capsys, nan_gradients):
    nan_gradients(lambda t: isinstance(t, Parameter))
    code, out = run(capsys, "train", "--config", config, "--out", tmp_path / "run")
    assert (code, out.err) == (
        3, "error: numeric: iteration 0: non-finite gradient at parameter 'stem.weight'\n")


@pytest.mark.parametrize("argv,path", [
    (["eval", "--checkpoint", "{tmp}/nope.ssnc"], "{tmp}/nope.ssnc"),
    (["train", "--config", "{tmp}/nope.json", "--out", "{tmp}/run"], "{tmp}/nope.json"),
    (["synth", "--out", "{tmp}/missing/s.npz"], "{tmp}/missing/s.npz"),
    (["analyze", "offsets", "--checkpoint", "{ckpt}", "--out", "{tmp}/missing/x.csv"],
     "{tmp}/missing/x.csv"),
    (["eval", "--checkpoint", "{tmp}"], "{tmp}"),
], ids=["eval-missing", "train-config-missing", "synth-out-dir-missing",
        "analyze-out-dir-missing", "eval-directory"])
def test_unusable_path_is_one_error_line(tmp_path, checkpoint, capsys, argv, path):
    fill = {"tmp": tmp_path, "ckpt": checkpoint}
    code, out = run(capsys, *[a.format(**fill) for a in argv])
    lines = out.err.splitlines()
    assert code == 1 and len(lines) == 1, out.err
    assert lines[0].startswith(f"error: file: {path.format(**fill)}: "), out.err


@pytest.mark.parametrize("position", [[100, 100], [-1, 2]])
def test_erf_position_out_of_range_is_one_error_line(tmp_path, checkpoint, capsys,
                                                     position):
    path = tmp_path / "erf.json"
    path.write_text(json.dumps({**TINY, "analysis": {"position": position}}))
    code, out = run(capsys, "analyze", "erf", "--checkpoint", checkpoint,
                    "--config", path)
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: analysis.position: "), out.err


@pytest.mark.parametrize("doc,message", [
    ({"network": {"widht": 8}}, "network.widht: unknown key"),
    ({"network": {"fsm_active": "false"}}, "network.fsm_active: expected true or false"),
    ({"network": {"input_size": [32, "x"]}}, "network.input_size: expected int"),
    ({"trainer": {"augment_ranges": {"scale": [1.25, 0.75]}}},
     "trainer.augment_ranges.scale: (1.25, 0.75) must satisfy 0 < low <= high"),
    ({"network": {"width": 36}}, "network.width: norm.groups: 32 does not divide 36"),
    ({"network": {"builder": "fpn", "input_size": [64, 64], "base_channels": 12}},
     "network.base_channels: norm.groups: 32 does not divide 48"),
    ({"network": {"esp": ["nope"]}},
     "network.esp: graph.layer: unknown layer id 'nope'"),
    ({"network": {"esp": ["block1", "block1"]}},
     "network.esp: graph.layer: duplicate layer name 'esp_block1'"),
    ({"network": {"ca_variant": "sigmoid-unnormalized"}}, "network.ca_variant: unknown key"),
])
def test_bad_config_is_one_error_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "train", "--config", path, "--out", tmp_path / "run")
    assert (code, out.err) == (2, f"error: config: {message}\n")


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"network": '], ids=["not-utf8", "truncated"])
@pytest.mark.parametrize("command", [["count"], ["train", "--out", "{tmp}/run"]],
                         ids=["count", "train"])
def test_unreadable_config_is_one_error_line(tmp_path, capsys, raw, command):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in command], "--config", path)
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: config: invalid JSON: "), out.err


@pytest.mark.parametrize("what", ["erf", "kp-scores"])
def test_unknown_module_id_is_one_error_line(tmp_path, checkpoint, capsys, what):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TINY, "analysis": {"module_id": "nope"}}))
    code, out = run(capsys, "analyze", what, "--checkpoint", checkpoint, "--config", path)
    assert (code, out.err) == (
        2, "error: config: analysis.module_id: graph.layer: unknown layer id 'nope'\n")


@pytest.mark.parametrize("command", ["train", "synth"])
def test_keypoint_count_unlike_the_samples_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({**TINY, "network": {"keypoints": 3}}))
    code, out = run(capsys, command, "--config", path, "--out", tmp_path / "out")
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: network.keypoints: "), out.err


@pytest.mark.parametrize("network", [
    {"builder": "3block3fsm", "input_size": [32, 32], "shift_channels": 4},
    {"builder": "fpn", "input_size": [64, 64]},
])
def test_three_channel_builders_train_on_the_synthetic_images(tmp_path, capsys, network):
    path = tmp_path / "rgb.json"
    path.write_text(json.dumps({"network": network, "dataset": {"count": 4},
                                "trainer": {"iterations": 1, "batch_size": 2},
                                "eval_count": 2}))
    code, out = run(capsys, "train", "--config", path, "--out", tmp_path / "run",
                    "--iterations", 1)
    assert (code, out.err) == (0, "")


def test_image_size_unlike_the_input_size_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({**TINY, "dataset": {"count": 4, "image_size": [16, 16]}}))
    code, out = run(capsys, "train", "--config", path, "--out", tmp_path / "run")
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: dataset.image_size: "), out.err


# -- checkpoints the CLI cannot use -----------------------------------------------
# Each corruption maps the path of a good checkpoint to the bytes of a bad one.

def byte_edit(old, new):
    """Replace the first occurrence of ``old`` with ``new`` of the same length."""
    def apply(path):
        raw = path.read_bytes()
        assert len(old) == len(new) and old in raw
        return raw.replace(old, new, 1)
    return apply


def packed(header, payload):
    """The bytes of a checkpoint with ``header`` and ``payload``."""
    head = json.dumps(header).encode()
    return (MAGIC + np.uint32(FORMAT_VERSION).tobytes()
            + np.uint64(len(head)).tobytes() + head + payload)


def rewritten(change):
    """Load, let ``change(header, blobs)`` edit the pieces, write them back."""
    def apply(path):
        header, blobs = checkpoint_load(path)
        change(header, blobs)
        header["blobs"], payload = [], b""
        for name, arr in blobs.items():
            data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            header["blobs"].append({"name": name, "shape": list(arr.shape),
                                    "offset": len(payload), "nbytes": len(data)})
            payload += data
        return packed(header, payload)
    return apply


def relaid(change):
    """Let ``change(index, payload)`` edit the blob index in place and
    return the new payload, and write the file back with both."""
    def apply(path):
        raw = path.read_bytes()
        start = 16 + int(np.frombuffer(raw[8:16], dtype="<u8")[0])
        header = json.loads(raw[16:start])
        return packed(header, change(header["blobs"], raw[start:]))
    return apply


def drop_blob(prefix):
    def change(header, blobs):
        del blobs[next(n for n in blobs if n.startswith(prefix))]
    return rewritten(change)


def null_field(key):
    return rewritten(lambda header, blobs: header.update({key: None}))


def nan_in_first_blob(header, blobs):
    next(iter(blobs.values())).flat[0] = np.nan


EVAL = ["eval"]
RESUME = ["train", "--iterations", "5", "--out", "{tmp}/resumed", "--resume"]


@pytest.mark.parametrize("argv,corrupt", [
    (EVAL, byte_edit(b'"graph"', b'"Graph"')),
    (EVAL, byte_edit(b'"kernel"', b'"kernal"')),
    (EVAL, byte_edit(b'"input_shape": [1, 32, 32]', b'"input_shape": [1, 32, -2]')),
    (EVAL, drop_blob("param.")),
    (EVAL, drop_blob("buffer.")),
    (RESUME, byte_edit(b'"backbone"', b'"backbonE"')),
    (RESUME, byte_edit(b'"bit_generator"', b'"bit_generatoR"')),
    (RESUME, drop_blob("opt.m.")),
    (RESUME, null_field("optimizer")),
    (RESUME, null_field("rng_state")),
    (EVAL, rewritten(nan_in_first_blob)),
    (RESUME, rewritten(nan_in_first_blob)),
    (RESUME, rewritten(lambda header, blobs: header.update(iteration=-4))),
    (RESUME, rewritten(lambda header, blobs: header.update(iteration=True))),
    (RESUME, rewritten(lambda header, blobs: header["optimizer"]["offsets"].update(t=-1))),
    (RESUME, rewritten(lambda header, blobs: header["optimizer"]["offsets"].update(t="3"))),
], ids=["graph-key", "kernel-key", "input-shape", "param-blob", "buffer-blob",
        "optimizer-group", "rng-state", "moment-blob", "no-optimizer", "no-rng",
        "nan-blob-eval", "nan-blob-resume", "iteration-negative", "iteration-bool",
        "step-count-negative", "step-count-str"])
def test_unusable_checkpoint_is_one_error_line(tmp_path, checkpoint, capsys,
                                               argv, corrupt):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(corrupt(checkpoint))
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] == "eval":
        argv.append("--checkpoint")
    code, out = run(capsys, *argv, bad)
    lines = out.err.splitlines()
    # the fault is the file's or its graph spec's, never the run's
    assert code in (1, 2) and len(lines) == 1, out.err
    assert lines[0].startswith(("error: checkpoint: ", "error: config: ")), out.err
    assert not (tmp_path / "resumed" / "checkpoint.ssnc").exists()


def entry(index, name):
    return next(e for e in index if e["name"] == name)


def overlapping(index, payload):
    """The stem's norm offsets read the bytes of its norm scales."""
    entry(index, "param.stem.norm.offset")["offset"] = \
        entry(index, "param.stem.norm.scale")["offset"]
    return payload


def duplicated(index, payload):
    """A second blob of the stem's norm offsets, of ones, after the last."""
    first = entry(index, "param.stem.norm.offset")
    index.append({**first, "offset": len(payload)})
    return payload + np.ones(first["shape"], dtype="<f4").tobytes()


def gapped(index, payload):
    """Four bytes between the first blob and the second."""
    end = index[0]["nbytes"]
    for e in index[1:]:
        e["offset"] += 4
    return payload[:end] + bytes(4) + payload[end:]


def miscounted(index, payload):
    """A first entry whose shape holds fewer values than its bytes."""
    index[0]["shape"][-1] -= 1
    return payload


@pytest.mark.parametrize("change", [overlapping, duplicated, gapped, miscounted])
def test_blob_layout_unlike_the_writers_is_one_error_line(tmp_path, checkpoint, capsys,
                                                          change):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(relaid(change)(checkpoint))
    code, out = run(capsys, "eval", "--checkpoint", bad)
    assert (code, out.err) == (1, "error: checkpoint: corrupt header: malformed blob index\n")


def added_blob(name):
    """A 3x3 blob of ones named ``name``, after the last."""
    return rewritten(lambda header, blobs: blobs.update({name: np.ones((3, 3), "<f4")}))


@pytest.mark.parametrize("argv,name,owner", [
    (["eval", "--checkpoint"], "param.ghost.weight", "the graph"),
    (["eval", "--checkpoint"], "buffer.ghost.running_mean", "the graph"),
    (["analyze", "offsets", "--checkpoint"], "param.ghost.weight", "the graph"),
    (RESUME, "param.ghost.weight", "the graph"),
    (RESUME, "opt.m.backbone.ghost.weight", "the optimizer"),
    (RESUME, "opt.v.offsets.ghost.weight", "the optimizer"),
])
def test_blob_that_nothing_reads_is_one_error_line(tmp_path, checkpoint, capsys,
                                                   argv, name, owner):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(added_blob(name)(checkpoint))
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in argv], bad)
    assert (code, out.err) == (1, f"error: checkpoint: blob {name}: {owner} "
                                  "has no slot for it\n")
    assert not (tmp_path / "resumed" / "checkpoint.ssnc").exists()


def test_blob_outside_the_writers_prefixes_is_one_error_line(tmp_path, checkpoint,
                                                             capsys):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(added_blob("ghost.weight")(checkpoint))
    code, out = run(capsys, "eval", "--checkpoint", bad)
    assert (code, out.err) == (1, "error: checkpoint: corrupt header: malformed blob index\n")


def test_eval_reads_no_optimizer_blob(tmp_path, checkpoint, capsys):
    # eval builds no optimizer, so even an optimizer blob of no entry is unread
    extra = tmp_path / "extra.ssnc"
    extra.write_bytes(added_blob("opt.m.backbone.ghost.weight")(checkpoint))
    assert run(capsys, "eval", "--checkpoint", extra) == \
        run(capsys, "eval", "--checkpoint", checkpoint)


def no_run_config(header, blobs):
    del header["extra"]["run_config"]


@pytest.mark.parametrize("argv", [["eval", "--checkpoint"], RESUME,
                                  ["analyze", "erf", "--out", "{tmp}/erf.csv", "--checkpoint"]])
def test_checkpoint_without_a_run_config_is_one_error_line(tmp_path, checkpoint, capsys,
                                                           argv):
    bare = tmp_path / "bare.ssnc"
    bare.write_bytes(rewritten(no_run_config)(checkpoint))
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in argv], bare)
    assert (code, out.err) == (
        1, f"error: checkpoint: {bare} holds no run config; pass --config\n")
    assert not (tmp_path / "resumed").exists()


def test_checkpoint_without_a_run_config_runs_with_one(tmp_path, checkpoint, config,
                                                       capsys):
    bare = tmp_path / "bare.ssnc"
    bare.write_bytes(rewritten(no_run_config)(checkpoint))
    embedded = run(capsys, "eval", "--checkpoint", checkpoint)
    assert run(capsys, "eval", "--checkpoint", bare, "--config", config) == embedded
    code, out = run(capsys, "analyze", "offsets", "--checkpoint", bare)
    assert (code, out.err) == (0, "")


@pytest.mark.parametrize("argv", [["eval", "--checkpoint"], RESUME,
                                  ["analyze", "offsets", "--checkpoint"]])
def test_config_of_another_network_is_one_config_line(tmp_path, checkpoint, capsys, argv):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(
        {**TINY, "network": {"builder": "3block3fsm", "shift_channels": 16}}))
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in argv], checkpoint,
                    "--config", path)
    assert (code, out.err) == (2, "error: config: network: builder, shift_channels "
                                  "differ from the checkpoint's run config\n")
    assert not (tmp_path / "resumed").exists()


def older_header_keys(header, blobs):
    """The keys that earlier checkpoints also wrote: a version of the graph
    spec of its own, and each optimizer group's last rate."""
    header["graph"].update(format="shiftpose-graph", version=1)
    for group in header["optimizer"].values():
        group["lr"] = 0.0005


def test_older_header_keys_resume_like_an_uninterrupted_run(tmp_path, config, capsys):
    whole, first, rest = (tmp_path / d for d in ("whole", "first", "rest"))
    assert run(capsys, "train", "--config", config, "--out", whole,
               "--iterations", 5)[0] == 0
    assert run(capsys, "train", "--config", config, "--out", first)[0] == 0
    older = tmp_path / "older.ssnc"
    older.write_bytes(rewritten(older_header_keys)(first / "checkpoint.ssnc"))
    assert run(capsys, "train", "--resume", older, "--out", rest, "--iterations", 5)[0] == 0
    rows = (whole / "metrics.csv").read_text().splitlines()
    assert (rest / "metrics.csv").read_text().splitlines() == rows[:1] + rows[4:]
    assert (whole / "checkpoint.ssnc").read_bytes() == \
        (rest / "checkpoint.ssnc").read_bytes()


def test_resume_past_the_insertion_iteration_inserts_the_bypassed_modules(tmp_path,
                                                                          capsys):
    late, early = tmp_path / "late.json", tmp_path / "early.json"
    late.write_text(json.dumps(
        {**TINY, "trainer": {**TINY["trainer"], "iterations": 4, "insertion_iteration": 10}}))
    early.write_text(json.dumps(
        {**TINY, "trainer": {**TINY["trainer"], "insertion_iteration": 2}}))
    assert run(capsys, "train", "--config", late, "--out", tmp_path / "first")[0] == 0
    assert run(capsys, "train", "--resume", tmp_path / "first" / "checkpoint.ssnc",
               "--config", early, "--out", tmp_path / "rest", "--iterations", 8)[0] == 0
    for run_dir, active, groups in [("first", False, ["backbone"]),
                                    ("rest", True, ["backbone", "fsm_weights", "offsets"])]:
        header, _ = checkpoint_load(tmp_path / run_dir / "checkpoint.ssnc")
        fsm1 = next(n for n in header["graph"]["nodes"] if n["name"] == "fsm1")
        assert (fsm1["config"]["active"], list(header["optimizer"])) == (active, groups)


def test_unknown_layer_choice_in_a_checkpoint_is_one_config_line(tmp_path, checkpoint,
                                                                 capsys):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(set_in_spec("head", "act", "gelu")(checkpoint))
    code, out = run(capsys, "eval", "--checkpoint", bad)
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: graph.nodes.head.act: "), out.err


def test_checkpoint_of_an_older_format_is_one_error_line(tmp_path, checkpoint, capsys):
    # version 1 specs hold a key this build's modules no longer have
    raw = bytearray(checkpoint.read_bytes())
    raw[4:8] = np.uint32(1).tobytes()
    old = tmp_path / "old.ssnc"
    old.write_bytes(raw)
    code, out = run(capsys, "eval", "--checkpoint", old)
    assert (code, out.err) == (
        1, f"error: checkpoint: unknown checkpoint version 1, this build reads "
           f"{FORMAT_VERSION}\n")


def set_in_spec(node, key, value):
    """Set one config value of ``node`` in the graph spec, or with ``node``
    None, one top-level spec value."""
    def change(header, blobs):
        graph = header["graph"]
        target = graph if node is None else \
            next(n for n in graph["nodes"] if n["name"] == node)["config"]
        target[key] = value
    return rewritten(change)


@pytest.mark.parametrize("node,key,value", [
    ("stem", "stride", 0), ("stem", "kernel", 0), ("stem2", "in_ch", 0),
    ("stem", "padding", -5), (None, "dtype", "int8"), (None, "dtype", "float16"),
    (None, "dtype", "bool"), (None, "dtype", "complex64"),
])
def test_spec_value_out_of_range_is_one_config_line(tmp_path, checkpoint, capsys,
                                                    node, key, value):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(set_in_spec(node, key, value)(checkpoint))
    code, out = run(capsys, "eval", "--checkpoint", bad)
    lines = out.err.splitlines()
    path = "graph" if node is None else f"graph.nodes.{node}"
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith(f"error: config: {path}.{key}: must be "), out.err


def set_in_node(node, key, value):
    """Set one key of ``node``'s entry in the graph spec."""
    def change(header, blobs):
        next(n for n in header["graph"]["nodes"] if n["name"] == node)[key] = value
    return rewritten(change)


@pytest.mark.parametrize("node,key,value,message", [
    ("stem2", "kind", "bogus", "graph.nodes.stem2.kind: unknown layer kind 'bogus'"),
    ("stem2", "inputs", ["nope"], "graph.nodes.stem2: graph.layer: unknown layer id 'nope'"),
    ("stem2", "inputs", "stem", "graph.nodes.stem2.inputs: expected a list"),
    ("stem2", "inputs", [3], "graph.nodes.stem2.inputs: expected str"),
    ("stem2", "name", 5, "graph.nodes.5.name: expected str"),
    ("head", "is_head", "no", "graph.nodes.head.is_head: expected true or false"),
    ("neck", "is_head", 1, "graph.nodes.neck.is_head: expected true or false"),
])
def test_bad_node_entry_is_one_config_line_naming_the_node(tmp_path, checkpoint, capsys,
                                                           node, key, value, message):
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(set_in_node(node, key, value)(checkpoint))
    code, out = run(capsys, "eval", "--checkpoint", bad)
    assert (code, out.err) == (2, f"error: config: {message}\n")


@pytest.mark.parametrize("argv", [["eval"],
                                  ["analyze", "offsets", "--out", "{tmp}/offsets.csv"]])
def test_graph_that_does_not_fit_in_a_checkpoint_is_one_config_line(tmp_path, checkpoint,
                                                                    capsys, argv):
    def misfit(header, blobs):
        # type-checks, but the stem before it has 8 output channels
        node = next(n for n in header["graph"]["nodes"] if n["name"] == "stem2")
        node["config"]["in_ch"] = 5

    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(rewritten(misfit)(checkpoint))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out = run(capsys, *argv, "--checkpoint", bad)
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: graph.nodes.stem2: conv: channels: "), out.err


def test_window_larger_than_its_input_in_a_checkpoint_is_one_config_line(tmp_path, capsys):
    path = tmp_path / "rgb.json"
    path.write_text(json.dumps({
        "network": {"builder": "3block3fsm", "input_size": [32, 32], "shift_channels": 4},
        "dataset": {"count": 2}, "trainer": {"iterations": 0, "batch_size": 2},
        "eval_count": 2}))
    assert run(capsys, "train", "--config", path, "--out", tmp_path / "run")[0] == 0
    bad = tmp_path / "bad.ssnc"
    bad.write_bytes(set_in_spec("pool", "kernel", 99)(tmp_path / "run" / "checkpoint.ssnc"))
    code, out = run(capsys, "eval", "--checkpoint", bad)
    lines = out.err.splitlines()
    assert code == 2 and len(lines) == 1, out.err
    assert lines[0].startswith("error: config: graph.nodes.pool: maxpool: spatial: "), out.err
