"""Checkpoint format: round-trips, rejection paths, bit-exact resume."""

import json
import os

import numpy as np
import pytest

from shiftpose import network as net
from shiftpose.checkpoint import (FORMAT_VERSION, MAGIC, checkpoint_load,
                                  checkpoint_save, restore_graph_state,
                                  restore_rng)
from shiftpose.errors import CheckpointError
from shiftpose.optim import Adam
from shiftpose.synthdata import SynthSpec, generate_dataset
from shiftpose.training import LrDecay, TrainConfig, Trainer


def small_graph(seed=0, fsm_active=True):
    return net.build_toy_fsm_net((16, 16), 1, 1, 4, 8, fsm_active=fsm_active,
                                 rng=np.random.default_rng(seed))


def payload_start(raw):
    """Offset of the payload: the preamble's 16 bytes plus the header."""
    return 16 + int(np.frombuffer(raw[8:16], dtype="<u8")[0])


def all_params(graph):
    return np.concatenate([p.data.ravel() for _, p in graph.named_parameters()])


class TestRoundTrip:
    def test_save_load_reproduces_parameters_bitexact(self, tmp_path):
        graph = small_graph()
        rng = np.random.default_rng(5)
        path = tmp_path / "model.ssnc"
        checkpoint_save(path, graph, rng=rng, iteration=7)
        header, blobs = checkpoint_load(path)
        rebuilt = net.NetworkGraph.from_spec(header["graph"])
        restore_graph_state(rebuilt, blobs)
        assert np.array_equal(all_params(graph), all_params(rebuilt))
        assert header["iteration"] == 7
        restored = restore_rng(header["rng_state"])
        assert restored.bit_generator.state == rng.bit_generator.state

    def test_save_load_save_byte_identical(self, tmp_path):
        graph = small_graph(seed=1)
        opt = Adam()
        opt.add_group("backbone", graph.named_parameters(), 1e-3)
        rng = np.random.default_rng(6)
        p1, p2 = tmp_path / "a.ssnc", tmp_path / "b.ssnc"
        checkpoint_save(p1, graph, opt, rng, iteration=3, extra={"k": 1})
        header, blobs = checkpoint_load(p1)
        rebuilt = net.NetworkGraph.from_spec(header["graph"])
        restore_graph_state(rebuilt, blobs)
        opt2 = Adam()
        opt2.add_group("backbone", rebuilt.named_parameters(), 1e-3)
        opt2.load_state(header["optimizer"], blobs)
        checkpoint_save(p2, rebuilt, opt2, restore_rng(header["rng_state"]),
                        iteration=header["iteration"], extra=header["extra"])
        assert p1.read_bytes() == p2.read_bytes()


class TestRejection:
    def _saved(self, tmp_path):
        path = tmp_path / "model.ssnc"
        checkpoint_save(path, small_graph(), iteration=1)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_load(path)

    def test_unknown_version(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = np.uint32(FORMAT_VERSION + 1).tobytes()
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(CheckpointError, match=r"expected \d+ bytes, got \d+"):
            checkpoint_load(path)

    def test_corrupted_preamble_or_header_raises_checkpoint_error(self, tmp_path):
        raw = self._saved(tmp_path).read_bytes()
        header_end = 16 + int(np.frombuffer(raw[8:16], dtype="<u8")[0])
        bad = tmp_path / "bad.ssnc"
        bad.write_bytes(raw)
        escaped = []
        # every preamble byte, then every third header byte from offset 17;
        # each case rewrites one byte of the file in place
        with open(bad, "r+b") as fh:
            for pos in [*range(16), *range(17, header_end, 3)]:
                for value in (0xFF, ord("}"), ord("9"), ord('"')):
                    fh.seek(pos)
                    fh.write(bytes([value]))
                    fh.flush()
                    try:
                        checkpoint_load(bad)
                    except CheckpointError:
                        pass
                    except Exception as exc:
                        escaped.append((pos, value, type(exc).__name__))
                fh.seek(pos)
                fh.write(raw[pos:pos + 1])
        assert escaped == []

    def _sections(self, raw):
        """Cut points at every section boundary: inside and at the end of
        the preamble, at the end of the header, and at each blob's start."""
        payload_at = payload_start(raw)
        header = json.loads(raw[16:payload_at])
        return ([0, 4, 8, 15, 16, payload_at - 1, payload_at]
                + [payload_at + b["offset"] for b in header["blobs"]][1:]
                + [len(raw) - 1])

    def _rejects(self, tmp_path, raw):
        bad = tmp_path / "bad.ssnc"
        bad.write_bytes(raw)
        try:
            checkpoint_load(bad)
        except CheckpointError:
            return True
        except Exception as exc:
            return type(exc).__name__
        return False

    def test_truncation_at_every_section_boundary(self, tmp_path):
        raw = self._saved(tmp_path).read_bytes()
        cuts = self._sections(raw)
        assert len(cuts) > 10
        assert {n: self._rejects(tmp_path, raw[:n]) for n in cuts} == \
            {n: True for n in cuts}

    def test_truncation_inside_the_payload(self, tmp_path):
        raw = self._saved(tmp_path).read_bytes()
        cuts = np.random.default_rng(0).integers(payload_start(raw), len(raw), 40).tolist()
        assert {n: self._rejects(tmp_path, raw[:n]) for n in cuts} == \
            {n: True for n in cuts}

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 4, b"SSNC" * 9])
    def test_appended_bytes_rejected(self, tmp_path, extra):
        raw = self._saved(tmp_path).read_bytes()
        assert self._rejects(tmp_path, raw + extra) is True

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload_names_its_blob(self, tmp_path, value):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        header, _ = checkpoint_load(path)
        entry = header["blobs"][len(header["blobs"]) // 2]
        at = payload_start(raw) + entry["offset"]
        raw[at:at + 4] = np.float32(value).astype("<f4").tobytes()
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match=rf"blob {entry['name']}: .*non-finite"):
            checkpoint_load(path)

    def test_nonfinite_state_refused_on_save(self, tmp_path):
        graph = small_graph()
        name, weight = graph.named_parameters()[2]
        weight.data.flat[-1] = np.nan
        with pytest.raises(CheckpointError, match=rf"param\.{name}: .*non-finite"):
            checkpoint_save(tmp_path / "model.ssnc", graph)
        assert os.listdir(tmp_path) == []

    def test_float64_state_refused_on_save(self, tmp_path):
        graph = net.build_toy_fsm_net((16, 16), 1, 1, 4, 8, dtype=np.float64)
        path = tmp_path / "model.ssnc"
        with pytest.raises(CheckpointError, match="float64"):
            checkpoint_save(path, graph)
        assert os.listdir(tmp_path) == []

    def test_missing_blob_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        header, blobs = checkpoint_load(path)
        rebuilt = net.NetworkGraph.from_spec(header["graph"])
        key = next(iter(k for k in blobs if k.startswith("param.")))
        del blobs[key]
        with pytest.raises(CheckpointError, match="missing parameter blob"):
            restore_graph_state(rebuilt, blobs)


class TestResume:
    def _trainer(self, graph=None):
        spec = SynthSpec(image_size=(16, 16), displacement=(5.0, 0.0),
                         blob_sigma=1.0, count=24, seed=2)
        data = generate_dataset(spec)
        cfg = TrainConfig(base_lr=2e-3, offset_lr=0.02, batch_size=4,
                          insertion_iteration=4, iterations=14,
                          lr_decay=LrDecay(after_iter=10, factor=0.5, every=2),
                          augment=True, seed=9)
        graph = graph or small_graph(seed=3, fsm_active=False)
        return Trainer(graph, cfg, data), cfg, data

    def test_split_run_equals_uninterrupted_bitexact(self, tmp_path):
        # uninterrupted reference
        trainer, cfg, data = self._trainer()
        trainer.run()
        reference = all_params(trainer.graph)
        ref_opt = {k: v.copy() for k, v in trainer.optimizer.state_blobs().items()}

        # split at iteration 6 (after insertion so optimizer groups differ too)
        trainer_a, _, _ = self._trainer(small_graph(seed=3, fsm_active=False))
        while trainer_a.iteration < 6:
            trainer_a.step()
        path = tmp_path / "mid.ssnc"
        checkpoint_save(path, trainer_a.graph, trainer_a.optimizer, trainer_a.rng,
                        trainer_a.iteration)

        header, blobs = checkpoint_load(path)
        resumed_graph = net.NetworkGraph.from_spec(header["graph"])
        restore_graph_state(resumed_graph, blobs)
        trainer_b, _, _ = self._trainer(resumed_graph)
        trainer_b.optimizer.load_state(header["optimizer"], blobs)
        trainer_b.rng = restore_rng(header["rng_state"])
        trainer_b.iteration = header["iteration"]
        trainer_b.run()

        assert np.array_equal(reference, all_params(trainer_b.graph))
        for key, arr in trainer_b.optimizer.state_blobs().items():
            assert np.array_equal(ref_opt[key], arr), key
