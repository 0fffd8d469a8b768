"""Acceptance test of the fault-tolerant runtime.

The contract proven here: an APTQ run that takes an injected Cholesky
failure at block 0 and a simulated process crash at block 1 can be resumed
from its on-disk checkpoint and produce **identical final quantized
weights** to an uninterrupted run, with the RunHealth report listing the
exact retry/fallback/resume events.
"""

import json
import shutil

import numpy as np
import pytest

from repro.core.aptq import APTQConfig, APTQResult, aptq_quantize_model
from repro.report import format_run_health
from repro.runtime import (
    CheckpointError,
    FaultInjector,
    InjectedFault,
    load_checkpoint,
    save_checkpoint,
    verify_checksum,
    write_checksum,
)
from tests.conftest import clone

CONFIG_KWARGS = dict(ratio_4bit=0.75, group_size=8, n_probes=2, seed=0)


@pytest.fixture(scope="module")
def clean_run(trained_micro_model, calibration):
    """Uninterrupted reference run (no checkpointing, no faults)."""
    model = clone(trained_micro_model)
    result = aptq_quantize_model(
        model, calibration, APTQConfig(**CONFIG_KWARGS)
    )
    return result, model


@pytest.fixture(scope="module")
def faulted_resumed_run(trained_micro_model, calibration, tmp_path_factory):
    """Fault-injected run (LinAlgError at block 0, crash at block 1) + resume."""
    checkpoint = tmp_path_factory.mktemp("runtime") / "aptq-run.npz"
    config = APTQConfig(
        checkpoint_path=checkpoint, resume=True, **CONFIG_KWARGS
    )
    model = clone(trained_micro_model)
    injector = (
        FaultInjector()
        .force_linalg_error("blocks.0.*", times=1)
        .crash_at_block(1)
    )
    with injector:
        with pytest.raises(InjectedFault, match="block 1"):
            aptq_quantize_model(model, calibration, config)
    assert checkpoint.exists()
    result = aptq_quantize_model(model, calibration, config)
    return result, model, injector


class TestFaultedResumeMatchesCleanRun:
    def test_identical_quantized_weights_per_layer(
        self, clean_run, faulted_resumed_run
    ):
        clean_result, _ = clean_run
        resumed_result, _, _ = faulted_resumed_run
        assert set(resumed_result.layer_results) == set(
            clean_result.layer_results
        )
        for name, reference in clean_result.layer_results.items():
            np.testing.assert_array_equal(
                resumed_result.layer_results[name].quantized_weight,
                reference.quantized_weight,
                err_msg=name,
            )

    def test_identical_final_model_state(self, clean_run, faulted_resumed_run):
        _, clean_model = clean_run
        _, resumed_model, _ = faulted_resumed_run
        for name, array in clean_model.state_dict().items():
            np.testing.assert_array_equal(
                resumed_model.state_dict()[name], array, err_msg=name
            )

    def test_identical_allocation_and_average_bits(
        self, clean_run, faulted_resumed_run
    ):
        clean_result, _ = clean_run
        resumed_result, _, _ = faulted_resumed_run
        assert resumed_result.allocation == clean_result.allocation
        assert resumed_result.average_bits == clean_result.average_bits

    def test_health_lists_exact_fault_events(self, faulted_resumed_run):
        result, _, injector = faulted_resumed_run
        health = result.health
        retries = health.by_category("retry")
        assert len(retries) == 1
        assert retries[0].layer.startswith("blocks.0.self_attn.q_proj")
        resumes = health.by_category("resume")
        assert len(resumes) == 1
        assert resumes[0].detail["next_block"] == 1
        assert health.counts()["checkpoint"] >= 1
        assert health.status == "degraded"
        assert health.degraded_layers == (retries[0].layer,)
        # The injector's own log agrees: one cholesky hit, one block crash.
        assert ("block-start", "1") in injector.fired

    def test_clean_run_health_is_clean(self, clean_run):
        result, _ = clean_run
        assert result.health.status == "clean"
        assert result.health.events == ()

    def test_health_renders(self, faulted_resumed_run, clean_run):
        resumed_result, _, _ = faulted_resumed_run
        clean_result, _ = clean_run
        degraded = format_run_health(resumed_result.health)
        assert "degraded" in degraded
        assert "retry" in degraded
        clean = format_run_health(clean_result.health)
        assert "clean (no events)" in clean


class TestResumeGuards:
    def test_resume_requires_sequential(self, trained_micro_model, calibration,
                                        tmp_path):
        model = clone(trained_micro_model)
        with pytest.raises(CheckpointError, match="sequential"):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(checkpoint_path=tmp_path / "run.npz", resume=True,
                           sequential=False, **CONFIG_KWARGS),
            )

    def test_fingerprint_mismatch_rejected(self, trained_micro_model,
                                           calibration, tmp_path):
        checkpoint = tmp_path / "foreign.npz"
        save_checkpoint(
            checkpoint,
            {"model/embed.weight": np.zeros(1)},
            {"kind": "aptq-run", "fingerprint": "0" * 64, "next_block": 1,
             "allocation": {}, "layers": {}, "sensitivities": {},
             "events": []},
        )
        model = clone(trained_micro_model)
        with pytest.raises(CheckpointError, match="incompatible"):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(checkpoint_path=checkpoint, resume=True,
                           **CONFIG_KWARGS),
            )

    def test_corrupt_checkpoint_restarts_fresh_with_warning_event(
        self, trained_micro_model, calibration, tmp_path
    ):
        checkpoint = tmp_path / "garbage.npz"
        checkpoint.write_bytes(b"this is not an npz archive")
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model, calibration,
            APTQConfig(checkpoint_path=checkpoint, resume=True,
                       ratio_4bit=1.0, group_size=8, n_probes=2, seed=0),
        )
        warnings_ = result.health.by_category("warning")
        assert len(warnings_) == 1
        assert "corrupt checkpoint" in warnings_[0].message
        # The fresh run overwrote the garbage with a loadable checkpoint.
        assert result.health.by_category("resume") == ()
        assert len(result.layer_results) == 14

    def test_default_health_field(self):
        result = APTQResult(
            allocation={}, sensitivities={}, layer_results={}, average_bits=0.0
        )
        assert result.health.status == "clean"


def _assert_matches_clean_run(result, model, clean_run):
    """Weights and every layer result bit-identical to the clean run."""
    clean_result, clean_model = clean_run
    for name, array in clean_model.state_dict().items():
        np.testing.assert_array_equal(
            model.state_dict()[name], array, err_msg=name
        )
    assert set(result.layer_results) == set(clean_result.layer_results)
    for name, reference in clean_result.layer_results.items():
        got = result.layer_results[name]
        np.testing.assert_array_equal(
            got.quantized_weight, reference.quantized_weight, err_msg=name
        )
        for field in ("codes", "scales", "zeros"):
            expected = getattr(reference.group_result, field)
            actual = getattr(got.group_result, field)
            assert actual.dtype == expected.dtype, (name, field)
            np.testing.assert_array_equal(actual, expected, err_msg=name)
        assert got.group_result.bits == reference.group_result.bits
        assert got.group_result.group_size == reference.group_result.group_size
        assert got.compensated_loss == reference.compensated_loss
        assert got.mse == reference.mse
    assert result.allocation == clean_result.allocation


@pytest.fixture(scope="module")
def block1_checkpoint(trained_micro_model, calibration, tmp_path_factory):
    """Checkpoint + sidecar of a run that crashed when block 1 started."""
    checkpoint = tmp_path_factory.mktemp("block1") / "aptq-run.npz"
    with FaultInjector().crash_at_block(1):
        with pytest.raises(InjectedFault):
            aptq_quantize_model(
                clone(trained_micro_model), calibration,
                APTQConfig(checkpoint_path=checkpoint, **CONFIG_KWARGS),
            )
    return checkpoint


def _copy_checkpoint(source, directory):
    target = directory / source.name
    shutil.copy(source, target)
    shutil.copy(
        source.with_name(source.name + ".sha256"),
        target.with_name(target.name + ".sha256"),
    )
    return target


def _resume(model, calibration, checkpoint):
    return aptq_quantize_model(
        model, calibration,
        APTQConfig(checkpoint_path=checkpoint, resume=True, **CONFIG_KWARGS),
    )


class TestCheckpointLayout:
    def test_final_checkpoint_stores_each_array_once(
        self, trained_micro_model, calibration, clean_run, tmp_path
    ):
        checkpoint = tmp_path / "aptq-run.npz"
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model, calibration,
            APTQConfig(checkpoint_path=checkpoint, **CONFIG_KWARGS),
        )
        _assert_matches_clean_run(result, model, clean_run)
        arrays, meta = load_checkpoint(checkpoint)
        assert meta["version"] == 2
        assert not [key for key in arrays if key.endswith("/quantized")]
        assert set(meta["layers"]) == set(result.layer_results)
        for name, record in meta["layers"].items():
            assert record["bits"] <= 8
            codes = arrays[f"layer/{name}/codes"]
            weight = arrays[f"model/{name}.weight"]
            assert codes.shape == weight.shape
            assert codes.nbytes <= weight.size, name

    def test_version_1_checkpoint_resumes_bit_identically(
        self, trained_micro_model, calibration, clean_run, block1_checkpoint,
        tmp_path,
    ):
        # Rewrite the block-1 checkpoint in the version-1 layout: deflated
        # archive, a second copy of each finished weight, int64 codes.
        checkpoint = tmp_path / "aptq-run.npz"
        arrays, meta = load_checkpoint(block1_checkpoint)
        for name in meta["layers"]:
            prefix = f"layer/{name}/"
            arrays[prefix + "quantized"] = arrays[f"model/{name}.weight"]
            arrays[prefix + "codes"] = arrays[prefix + "codes"].astype(np.int64)
        meta["version"] = 1
        arrays["__checkpoint_json__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(checkpoint, **arrays)
        write_checksum(checkpoint)

        model = clone(trained_micro_model)
        result = _resume(model, calibration, checkpoint)
        assert result.health.by_category("resume")[0].detail["next_block"] == 1
        _assert_matches_clean_run(result, model, clean_run)

    def test_unknown_version_raises(
        self, trained_micro_model, calibration, block1_checkpoint, tmp_path
    ):
        checkpoint = tmp_path / "aptq-run.npz"
        arrays, meta = load_checkpoint(block1_checkpoint)
        save_checkpoint(checkpoint, arrays, {**meta, "version": 3})
        with pytest.raises(CheckpointError, match="layout version 3"):
            _resume(clone(trained_micro_model), calibration, checkpoint)


class TestFailedCheckpointWrite:
    def test_failed_write_keeps_previous_checkpoint_and_resumes(
        self, trained_micro_model, calibration, clean_run, block1_checkpoint,
        tmp_path,
    ):
        checkpoint = _copy_checkpoint(block1_checkpoint, tmp_path)
        model = clone(trained_micro_model)
        # The resumed run finishes block 1, then its checkpoint write (the
        # second of the run) fails between fsync and rename.
        with FaultInjector().fail_at(
            "io", checkpoint.name, OSError("injected disk full")
        ) as injector:
            with pytest.raises(OSError, match="injected disk full"):
                _resume(model, calibration, checkpoint)
        assert injector.fired == [("io", checkpoint.name)]

        assert verify_checksum(checkpoint, required=True)
        _, meta = load_checkpoint(checkpoint)
        assert meta["next_block"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aptq-run.npz", "aptq-run.npz.sha256",
        ]

        model = clone(trained_micro_model)
        result = _resume(model, calibration, checkpoint)
        _assert_matches_clean_run(result, model, clean_run)

    @pytest.mark.parametrize("suffix", ["", ".sha256"])
    def test_crash_at_either_rename_resumes_from_previous_block(
        self, trained_micro_model, calibration, clean_run, block1_checkpoint,
        tmp_path, suffix,
    ):
        # The block-2 write of a 2-block run fails at its archive rename or
        # at its sidecar rename; neither may cost the finished block 1 nor
        # let an unverified archive load.
        checkpoint = _copy_checkpoint(block1_checkpoint, tmp_path)
        key = checkpoint.name + suffix
        with FaultInjector().fail_at(
            "io", key, OSError("injected crash")
        ) as injector:
            with pytest.raises(OSError, match="injected crash"):
                _resume(clone(trained_micro_model), calibration, checkpoint)
        assert injector.fired == [("io", key)]
        assert verify_checksum(checkpoint, required=True)

        model = clone(trained_micro_model)
        result = _resume(model, calibration, checkpoint)
        assert result.health.by_category("warning") == ()
        assert result.health.by_category("resume")[0].detail["next_block"] == 1
        _assert_matches_clean_run(result, model, clean_run)
