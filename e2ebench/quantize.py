"""The quantize workloads: repeated full APTQ runs of one seeded model.

The timed unit is one full run as a user pays for it: sensitivity and
sequential quantization (``aptq_quantize_model``), ``pack_model``, a
save/load round trip of the packed artifact, ``to_model`` and the
perplexity of the reloaded model on held-out windows.  Model shapes,
calibration size and the model's weights are fixed; the seed draws only
token content (calibration windows and held-out windows).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import time

import numpy as np

from common import (
    MAX_ACCOUNTING_GAP,
    SETUPS,
    UNIT_PERCENTILE,
    Gates,
    Report,
    Scratch,
    median,
    peak_rss_mb,
    percentile,
    repeat_for,
    setups_due,
    timed,
)
from spans import NullRecorder, Patches, SpanRecorder, program_targets

from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.data.calibration import sample_calibration
from repro.data.corpus import c4_sim, wikitext2_sim
from repro.eval.perplexity import perplexity
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.quant.deploy import PackedModel, pack_model
from repro.runtime.journal import DEGRADATION_CATEGORIES

#: Weights of every model are this random init; only token content varies.
MODEL_SEED = 0
RATIO_4BIT = 0.5
HIGH_BITS, LOW_BITS = 4, 2
CALIBRATION_SEGMENTS = 16
CALIBRATION_LEN = 32
EVAL_WINDOWS = 16
#: Held-out windows of the logit comparison, outside the timed run; more
#: windows keep the figure from moving with the seed.
COMPARE_WINDOWS = 64
#: Timed runs per benchmark run, at least (the repeat gate needs two).
MIN_UNITS = 2


@dataclasses.dataclass(frozen=True)
class QuantSpec:
    """Model shape and APTQ settings of one quantize workload."""

    config: LlamaConfig
    hessian_mode: str
    checkpoint: bool


SPECS = {
    "quantize-deep-kron": QuantSpec(
        LlamaConfig(d_model=64, n_layers=16, n_heads=4, d_ff=176, max_seq_len=64),
        hessian_mode="kron",
        checkpoint=True,
    ),
    "quantize-wide-probed": QuantSpec(
        LlamaConfig(d_model=128, n_layers=4, n_heads=8, d_ff=352, max_seq_len=64),
        hessian_mode="probed",
        checkpoint=False,
    ),
}


@dataclasses.dataclass
class Inputs:
    """Token content of one seed."""

    calibration: object
    held_out: np.ndarray
    compare: np.ndarray


def make_inputs(config: LlamaConfig, seed: int, segments: int) -> Inputs:
    """Calibration windows from c4-sim and held-out windows from wikitext2-sim."""
    calibration = sample_calibration(
        c4_sim(), segments, CALIBRATION_LEN, seed=seed
    )
    corpus = wikitext2_sim()
    held_out = corpus.tokens(EVAL_WINDOWS * config.max_seq_len, seed_offset=1000 + seed)
    compare = corpus.tokens(COMPARE_WINDOWS * config.max_seq_len, seed_offset=2000 + seed)
    return Inputs(calibration, held_out, compare)


def run_unit(spec: QuantSpec, model: LlamaModel, inputs: Inputs, workdir, rec):
    """One full APTQ run on ``model`` (quantized in place)."""
    checkpoint = workdir / "run.ckpt.npz" if spec.checkpoint else None
    with rec.span("aptq"):
        result = aptq_quantize_model(
            model,
            inputs.calibration,
            APTQConfig(
                ratio_4bit=RATIO_4BIT,
                high_bits=HIGH_BITS,
                low_bits=LOW_BITS,
                hessian_mode=spec.hessian_mode,
                checkpoint_path=checkpoint,
            ),
        )
    with rec.span("quant.deploy.pack"):
        packed = pack_model(
            model, result.allocation, layer_results=result.layer_results
        )
    with rec.span("quant.deploy.save"):
        path = packed.save(workdir / "model.npz")
    with rec.span("quant.deploy.load"):
        loaded = PackedModel.load(path)
    with rec.span("quant.deploy.to_model"):
        deployed = loaded.to_model()
    with rec.span("eval.perplexity"):
        ppl = perplexity(deployed, inputs.held_out)
    return result, packed, loaded, deployed, ppl


def setup(spec: QuantSpec, seed: int, scratch: Scratch):
    """Inputs, the full-precision twin and a warm-up run of one block.

    The warm-up quantizes a one-block model of the workload's width with
    the same settings, so first-call costs (lazy imports, allocator growth,
    BLAS initialisation) are paid here and not in the first timed run.
    """
    start = time.perf_counter()
    inputs, data_s = timed(make_inputs, spec.config, seed, CALIBRATION_SEGMENTS)
    twin = LlamaModel(spec.config, seed=MODEL_SEED)
    small = dataclasses.replace(spec.config, n_layers=1)
    warm_inputs = make_inputs(small, seed, 4)
    run_unit(
        spec,
        LlamaModel(small, seed=MODEL_SEED),
        warm_inputs,
        scratch.fresh("warm-up"),
        NullRecorder(),
    )
    return inputs, twin, data_s, time.perf_counter() - start


def _packed_arrays(packed: PackedModel) -> dict[str, bytes]:
    """Every stored array of a packed model, as it goes to disk."""
    arrays = {}
    for name, layer in packed.layers.items():
        arrays[f"{name}/codes"] = layer.packed.tobytes()
        arrays[f"{name}/scales"] = layer.scales.tobytes()
        arrays[f"{name}/zeros"] = layer.zeros.tobytes()
    for name, array in packed.full_precision.items():
        arrays[f"fp/{name}"] = np.asarray(array).astype(np.float16).tobytes()
    return arrays


def packed_digest(allocation: dict[str, int], packed: PackedModel) -> str:
    """Digest of the allocation and every packed byte."""
    h = hashlib.sha256(repr(sorted(allocation.items())).encode())
    for name, blob in sorted(_packed_arrays(packed).items()):
        h.update(name.encode())
        h.update(blob)
    return h.hexdigest()


def _allocation_tolerance(model: LlamaModel) -> float:
    """Largest gap to the Eq. (18) target the layer-granular greedy allows.

    The greedy keeps the high-precision weight fraction closest to R, so it
    misses R by at most half of the largest layer's weight share.
    """
    sizes = [linear.weight.size for linear in model.quantizable_linears().values()]
    return (HIGH_BITS - LOW_BITS) * max(sizes) / (2 * sum(sizes)) + 1e-12


def logit_rel_err(deployed: LlamaModel, twin: LlamaModel, tokens) -> float:
    """``‖logits_q − logits_fp‖ / ‖logits_fp‖`` over held-out windows."""
    seq = twin.config.max_seq_len
    windows = tokens.reshape(-1, seq)
    reference = twin.forward_array(windows)
    return float(
        np.linalg.norm(deployed.forward_array(windows) - reference)
        / np.linalg.norm(reference)
    )


def _layer_metrics(rec: SpanRecorder, run_id: str, result) -> dict[str, float]:
    """Per-layer figures of one traced unit."""
    caches = rec.kept.get((run_id, "quant.solver.factor_cache"), [])
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    events = result.health.counts()
    return {
        "core.sensitivity.s": rec.total(run_id, "core.sensitivity"),
        "core.allocation.s": rec.total(run_id, "core.allocation"),
        "core.hessian.capture_s": rec.total(run_id, "core.hessian.capture"),
        "core.hessian.calls": rec.counter(run_id, "core.hessian.calls"),
        "core.attention_grads.s": rec.total(run_id, "core.attention_grads"),
        "core.kron.s": rec.total(run_id, "core.kron"),
        "quant.calibration_hooks.collect_s": rec.total(
            run_id, "quant.calibration_hooks.collect"
        ),
        "quant.calibration_hooks.calls": rec.counter(
            run_id, "quant.calibration_hooks.calls"
        ),
        "nn.block_forwards": rec.counter(run_id, "nn.block_forwards"),
        "runtime.checkpoint.save_s": rec.total(run_id, "runtime.checkpoint.save"),
        "runtime.checkpoint.bytes": rec.counter(run_id, "runtime.checkpoint.bytes"),
        "quant.solver.factorize_s": rec.total(run_id, "quant.solver.factorize"),
        "quant.solver.sweep_s": rec.self_total(run_id, "quant.solver"),
        "quant.solver.factor_cache_hit_frac": hits / lookups if lookups else 0.0,
        "runtime.recovery.events": float(
            sum(events.get(c, 0) for c in DEGRADATION_CATEGORIES)
        ),
        "quant.deploy.pack_s": rec.total(run_id, "quant.deploy.pack"),
        "quant.deploy.save_s": rec.total(run_id, "quant.deploy.save"),
        "quant.deploy.load_s": rec.total(run_id, "quant.deploy.load"),
        "quant.deploy.to_model_s": rec.total(run_id, "quant.deploy.to_model"),
        "eval.perplexity.s": rec.total(run_id, "eval.perplexity"),
        "aptq.self_s": rec.self_total(run_id, "aptq"),
    }


def quantize_workload(
    name: str, seed: int, seconds: float, trace: bool, scratch: Scratch
) -> tuple[Report, SpanRecorder | None]:
    """Set up, time repeated runs until ``seconds`` pass, check, report."""
    spec = SPECS[name]
    gates = Gates()
    start = time.perf_counter()
    inputs, twin, *first = setup(spec, seed, scratch)
    # ``(data_s, setup_s)`` of every set-up; later set-ups' models are
    # dropped at once, so that they do not move ``peak_rss_mb``.
    setups = [first]

    rec = SpanRecorder() if trace else None
    targets = program_targets() if trace else []
    walls = {False: [], True: []}
    digests, sizes, ppls, layer_rows, gaps = [], [], [], [], []
    for index in repeat_for(seconds, MIN_UNITS):
        traced = trace and index % 2 == 1
        model = LlamaModel(spec.config, seed=MODEL_SEED)
        workdir = scratch.fresh(f"unit-{index}")
        if traced:
            rec.run_id = f"unit-{index}"
        with Patches(rec, targets) if traced else contextlib.nullcontext():
            outputs, wall = timed(
                run_unit, spec, model, inputs, workdir, rec if traced else NullRecorder()
            )
        result, packed, loaded, deployed, ppl = outputs
        walls[traced].append(wall)
        digests.append(packed_digest(result.allocation, packed))
        sizes.append(packed.storage_bytes())
        ppls.append(ppl)
        gates.check(
            _packed_arrays(loaded) == _packed_arrays(packed)
            and loaded.config == packed.config,
            f"unit {index}: reloaded PackedModel differs from the packed one",
        )
        target = RATIO_4BIT * HIGH_BITS + (1 - RATIO_4BIT) * LOW_BITS
        gates.check(
            abs(result.average_bits - target) <= _allocation_tolerance(model)
            and abs(packed.average_bits() - result.average_bits) < 1e-12,
            f"unit {index}: average bits {result.average_bits:.6f} miss the "
            f"Eq. (18) target {target}",
        )
        gates.check(
            bool(np.isfinite(ppl)), f"unit {index}: perplexity is not finite"
        )
        if traced:
            layer_rows.append(_layer_metrics(rec, rec.run_id, result))
            gaps.append(rec.accounting_gap(rec.run_id, wall))
        if index == 0:
            rel_err = logit_rel_err(deployed, twin, inputs.compare)
        average_bits = result.average_bits
        # Free the unit before the next one or a set-up starts, so that the
        # peak resident set does not depend on how many units a run fits.
        del model, outputs, result, packed, loaded, deployed
        gc.collect()
        elapsed = time.perf_counter() - start
        for _ in range(setups_due(len(setups), elapsed, seconds)):
            setups.append(setup(spec, seed, scratch)[2:])
    while len(setups) < SETUPS:
        setups.append(setup(spec, seed, scratch)[2:])
    units = len(digests)
    gates.check(
        len(set(digests)) == 1 and len(set(sizes)) == 1 and len(set(ppls)) == 1,
        "runs of one seed produced different packed models",
    )

    if trace:
        gates.check(
            max(gaps) <= MAX_ACCOUNTING_GAP,
            f"span self times miss the traced wall time by {max(gaps):.2%}",
        )
        metrics = {key: median(row[key] for row in layer_rows) for key in layer_rows[0]}
        metrics["data.s"] = median(s[0] for s in setups)
        metrics["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1
        metrics["trace.accounting_gap_frac"] = max(gaps)
    else:
        metrics = {
            "setup_s": median(s[1] for s in setups),
            "peak_rss_mb": peak_rss_mb(),
            "unit_s": percentile(walls[False], UNIT_PERCENTILE),
            "logit_rel_err": rel_err,
            "packed_bytes": float(sizes[0]),
        }
    report = Report(
        metrics=metrics,
        attempted=units + gates.checked,
        failed=len(gates.failures),
        failures=gates.failures,
        deterministic={
            "digest": digests[0],
            "packed_bytes": sizes[0],
            "perplexity": ppls[0],
            "average_bits": average_bits,
        },
        figures={"units": len(walls[False]), "unit_s_p50": median(walls[False])},
    )
    return report, rec
