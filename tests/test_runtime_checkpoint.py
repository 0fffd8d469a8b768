"""Checkpoint I/O tests: atomicity, checksums, corruption, cache recovery."""

import os
import warnings
import zipfile

import numpy as np
import pytest

from repro.models.zoo import pretrained
from repro.nn.serialize import load_state_dict, save_arrays, save_state_dict
from repro.quant.deploy import pack_model
from repro.runtime import (
    CheckpointError,
    FaultInjector,
    atomic_save_npz,
    atomic_write_bytes,
    checksum_path,
    flip_bit,
    load_checkpoint,
    save_checkpoint,
    sha256_of_file,
    truncate_file,
    verify_checksum,
    write_checksum,
)
from repro.training.trainer import TrainingConfig
from tests.conftest import MICRO_CONFIG, clone
from repro.nn.transformer import LlamaModel


class TestAtomicWrites:
    def test_write_and_no_temp_residue(self, tmp_path):
        target = tmp_path / "sub" / "blob.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"
        assert [p.name for p in target.parent.iterdir()] == ["blob.bin"]

    def test_failed_replace_leaves_original_and_no_residue(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_io_fault_leaves_original_and_no_residue(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"old")
        with FaultInjector().fail_at(
            "io", "blob.bin", OSError("injected disk full")
        ) as injector:
            with pytest.raises(OSError, match="injected disk full"):
                atomic_write_bytes(target, b"new")
        assert injector.fired == [("io", "blob.bin")]
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_atomic_save_npz_roundtrip(self, tmp_path, rng):
        target = tmp_path / "arrays.npz"
        arrays = {"a": rng.normal(size=(3, 2)), "b": np.arange(5)}
        atomic_save_npz(target, arrays)
        with np.load(target) as archive:
            np.testing.assert_array_equal(archive["a"], arrays["a"])
            np.testing.assert_array_equal(archive["b"], arrays["b"])


class TestChecksums:
    def test_sidecar_roundtrip(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"payload")
        write_checksum(target)
        sidecar = checksum_path(target)
        assert sidecar.name == "blob.bin.sha256"
        assert sha256_of_file(target) in sidecar.read_text()
        assert verify_checksum(target) is True

    def test_missing_sidecar_is_soft_unless_required(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"x")
        assert verify_checksum(target) is False
        with pytest.raises(CheckpointError, match="no checksum sidecar"):
            verify_checksum(target, required=True)

    def test_bit_flip_detected(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"payload-payload")
        write_checksum(target)
        flip_bit(target, byte_offset=3, bit=5)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            verify_checksum(target)

    def test_unparseable_sidecar_raises(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"x")
        checksum_path(target).write_text("not-a-digest\n")
        with pytest.raises(CheckpointError, match="unparseable"):
            verify_checksum(target)


class TestSidecarFirstWrites:
    """``save_checkpoint`` lands the sidecar before the archive."""

    def _two_writes(self, tmp_path, fault_key):
        target = tmp_path / "run.npz"
        save_checkpoint(target, {"w": np.zeros(3)}, {"block": 1})
        first = target.read_bytes()
        with FaultInjector().fail_at(
            "io", fault_key, OSError("injected crash")
        ):
            with pytest.raises(OSError, match="injected crash"):
                save_checkpoint(target, {"w": np.ones(3)}, {"block": 2})
        return target, first

    def test_failed_sidecar_write_leaves_previous_pair(self, tmp_path):
        target, first = self._two_writes(tmp_path, "run.npz.sha256")
        assert target.read_bytes() == first
        assert len(checksum_path(target).read_text().splitlines()) == 1
        assert verify_checksum(target, required=True)
        assert load_checkpoint(target)[1] == {"block": 1}

    def test_failed_archive_write_leaves_previous_archive_verified(
        self, tmp_path
    ):
        target, first = self._two_writes(tmp_path, "run.npz")
        assert target.read_bytes() == first
        # The sidecar names the pending archive and the one it replaces.
        assert len(checksum_path(target).read_text().splitlines()) == 2
        assert verify_checksum(target, required=True)
        assert load_checkpoint(target)[1] == {"block": 1}
        # The next write resolves the interrupted pair and narrows it.
        save_checkpoint(target, {"w": np.ones(3)}, {"block": 2})
        assert len(checksum_path(target).read_text().splitlines()) == 1
        assert load_checkpoint(target)[1] == {"block": 2}

    def test_first_write_never_leaves_an_unverified_archive(self, tmp_path):
        target = tmp_path / "run.npz"
        with FaultInjector().fail_at(
            "io", "run.npz.sha256", OSError("injected crash")
        ):
            with pytest.raises(OSError):
                save_checkpoint(target, {"w": np.zeros(3)}, {})
        assert not target.exists()

    def test_file_matching_no_recorded_digest_rejected(self, tmp_path):
        target, _ = self._two_writes(tmp_path, "run.npz")
        flip_bit(target, byte_offset=40, bit=1)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            verify_checksum(target)


class TestCheckpointContainer:
    def test_roundtrip_arrays_and_meta(self, tmp_path, rng):
        target = tmp_path / "run.npz"
        arrays = {"w": rng.normal(size=(4, 4)), "codes": np.arange(6)}
        meta = {"next_block": 3, "allocation": {"a": 4}}
        save_checkpoint(target, arrays, meta)
        loaded, loaded_meta = load_checkpoint(target)
        assert loaded_meta == meta
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert loaded["codes"].dtype == arrays["codes"].dtype

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(
                tmp_path / "x.npz", {"__checkpoint_json__": np.zeros(1)}, {}
            )

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_truncated_archive_raises_checkpoint_error(self, tmp_path, rng):
        target = tmp_path / "run.npz"
        save_checkpoint(target, {"w": rng.normal(size=(64, 64))}, {"k": 1})
        truncate_file(target, keep_bytes=100)
        with pytest.raises(CheckpointError):
            load_checkpoint(target)

    def test_foreign_npz_without_meta_raises(self, tmp_path):
        target = tmp_path / "foreign.npz"
        np.savez(target, w=np.zeros(3))
        with pytest.raises(CheckpointError, match="__checkpoint_json__"):
            load_checkpoint(target)


def _write_run_checkpoint(path, micro_model):
    save_checkpoint(path, micro_model.state_dict(), {"next_block": 1})


def _write_arrays(path, micro_model):
    save_arrays(path, micro_model.state_dict(), {"kind": "test"})


def _write_state_dict(path, micro_model):
    save_state_dict(path, micro_model, MICRO_CONFIG)


def _write_packed_model(path, micro_model):
    pack_model(clone(micro_model), bits=4, group_size=8).save(path)


class TestWriterSidecars:
    """Every writer digests its payload in memory; the digest must still be
    the digest of the bytes that landed on disk."""

    WRITERS = {
        "save_checkpoint": (_write_run_checkpoint, zipfile.ZIP_STORED),
        "save_arrays": (_write_arrays, zipfile.ZIP_DEFLATED),
        "save_state_dict": (_write_state_dict, zipfile.ZIP_DEFLATED),
        "PackedModel.save": (_write_packed_model, zipfile.ZIP_DEFLATED),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_sidecar_is_digest_of_file_on_disk(
        self, writer, tmp_path, micro_model
    ):
        write, _ = self.WRITERS[writer]
        target = tmp_path / "out.npz"
        write(target, micro_model)
        digest, name = checksum_path(target).read_text().split()
        assert name == "out.npz"
        assert digest == sha256_of_file(target)
        assert verify_checksum(target, required=True)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_archive_compression(self, writer, tmp_path, micro_model):
        # Run checkpoints are rewritten after every block and stay stored;
        # artifacts written once (models, deploy archives) stay deflated.
        write, compression = self.WRITERS[writer]
        target = tmp_path / "out.npz"
        write(target, micro_model)
        with zipfile.ZipFile(target) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                compression
            }


class TestModelSerialization:
    def test_save_writes_sidecar_and_roundtrips(self, tmp_path, micro_model):
        target = tmp_path / "model.npz"
        save_state_dict(target, micro_model, MICRO_CONFIG)
        assert checksum_path(target).exists()
        state, config = load_state_dict(target)
        assert config == MICRO_CONFIG
        np.testing.assert_array_equal(
            state["blocks.0.self_attn.q_proj.weight"],
            micro_model.state_dict()["blocks.0.self_attn.q_proj.weight"],
        )

    def test_truncated_model_checkpoint_raises(self, tmp_path, micro_model):
        target = tmp_path / "model.npz"
        save_state_dict(target, micro_model, MICRO_CONFIG)
        truncate_file(target, keep_bytes=50)
        with pytest.raises(CheckpointError):
            load_state_dict(target)

    def test_configless_archive_raises(self, tmp_path):
        target = tmp_path / "model.npz"
        np.savez(target, weight=np.zeros((2, 2)))
        with pytest.raises(CheckpointError, match="__config_json__"):
            load_state_dict(target)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "absent.npz")


class TestZooCacheRecovery:
    TRAINING = TrainingConfig(steps=3, batch_size=4, seq_len=16, seed=0)

    def test_corrupt_cache_detected_and_retrained(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = pretrained("llama-test", training=self.TRAINING)
        cached = list((tmp_path / "models").glob("*.npz"))
        assert len(cached) == 1
        flip_bit(cached[0], byte_offset=-40, bit=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = pretrained("llama-test", training=self.TRAINING)
        assert any("corrupt model cache" in str(w.message) for w in caught)
        # The retrained model is deterministic, so it matches the original.
        np.testing.assert_array_equal(
            first.state_dict()["embed.weight"],
            second.state_dict()["embed.weight"],
        )
        # The rewritten cache now loads cleanly (no warning, identical).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            third = pretrained("llama-test", training=self.TRAINING)
        assert isinstance(third, LlamaModel)
