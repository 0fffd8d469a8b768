"""The serve-mixed workload: a deployed APTQ model behind the scheduler.

Set-up quantizes a seeded model with APTQ and deploys it
(``pack_model`` → ``to_model``); the timed units never enter ``core``.
The timed unit serves a fixed batch of requests to completion through
:class:`ContinuousBatchScheduler` and its ``PagedKVCache`` with a fixed KV
pool: ``CLIENTS`` closed-loop clients, each sending its next request when
the previous one completes, walk the request pool once.

Three quarters of requests are chat-like (short prompt, long output) and a
quarter long-prompt (long prompt, short output), so prefills of long
prompts land between decode steps of running chats.  Request kinds,
lengths and their order are fixed; the seed draws only token content.
The client is this single-threaded loop: it submits requests, advances
the scheduler one step and reads each handle's tokens after the step.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import time

import numpy as np

from common import (
    MAX_ACCOUNTING_GAP,
    SETUPS,
    UNIT_PERCENTILE,
    Gates,
    Report,
    median,
    peak_rss_mb,
    percentile,
    repeat_for,
    setups_due,
    timed,
)
from quantize import MODEL_SEED, logit_rel_err, make_inputs, packed_digest
from spans import NullRecorder, Patches, SpanRecorder, program_targets

from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.quant.deploy import pack_model
from repro.runtime.errors import AdmissionError
from repro.serve.engine import InProcessWorker
from repro.serve.scheduler import ContinuousBatchScheduler, ServeConfig

MODEL = LlamaConfig(d_model=64, n_layers=4, n_heads=4, d_ff=176, max_seq_len=128)
CALIBRATION_SEGMENTS = 8
#: Fixed KV pool: 64 blocks of 16 tokens hold eight long-prompt requests,
#: so the pool never forces a preemption at the clients' batch.
SERVE = ServeConfig(max_queue=64, max_batch=8, block_size=16, num_blocks=64)
#: Request shapes: (prompt length range, new tokens range).
CHAT = ((8, 16), (24, 32))
LONG_PROMPT = ((64, 96), (4, 4))
#: Distinct requests, every fourth long-prompt; one timed unit serves each
#: once, in pool order.
POOL_SIZE = 48
#: Seed of the request lengths: fixed across seeds.
SCHEDULE_SEED = 20240601
#: Closed-loop clients: the scheduler's batch size.
CLIENTS = SERVE.max_batch
#: Timed units per run, at least.
MIN_UNITS = 8


@dataclasses.dataclass
class Track:
    """Client-side timeline of one request."""

    spec: int
    sent: float
    handle: object = None
    first: float = 0.0
    last: float = 0.0
    seen: int = 0

    @property
    def ttft_ms(self) -> float:
        """Send time to first token."""
        return 1000.0 * (self.first - self.sent)

    @property
    def tpot_ms(self) -> float:
        """Mean gap between streamed tokens."""
        return 1000.0 * (self.last - self.first) / max(self.seen - 1, 1)


def request_pool(seed: int) -> list[tuple[np.ndarray, int]]:
    """``(prompt, max_new_tokens)`` of every distinct request."""
    shapes = np.random.default_rng(SCHEDULE_SEED)
    content = np.random.default_rng(seed)
    pool = []
    for index in range(POOL_SIZE):
        (lo, hi), (new_lo, new_hi) = LONG_PROMPT if index % 4 == 3 else CHAT
        length = int(shapes.integers(lo, hi + 1))
        new = int(shapes.integers(new_lo, new_hi + 1))
        pool.append((content.integers(4, MODEL.vocab_size, size=length), new))
    return pool


class TracedWorker:
    """An :class:`InProcessWorker` whose calls are recorded as spans."""

    def __init__(self, inner: InProcessWorker, rec: SpanRecorder) -> None:
        self.inner = inner
        self.rec = rec
        self.first_prefill: dict[str, float] = {}
        self.batch_sizes: list[int] = []
        self.used_fracs: list[float] = []

    def alive(self) -> bool:
        return self.inner.alive()

    def prefill(self, seq_id, tokens):
        self.first_prefill.setdefault(seq_id, time.perf_counter())
        self.rec.count("serve.engine.prefill_tokens", len(tokens))
        with self.rec.span("serve.engine.prefill"):
            return self.inner.prefill(seq_id, tokens)

    def decode(self, entries):
        with self.rec.span("serve.engine.decode"):
            result = self.inner.decode(entries)
        stats = self.inner.stats()
        self.batch_sizes.append(len(entries))
        self.used_fracs.append(stats["used_blocks"] / stats["num_blocks"])
        return result

    def release(self, seq_id):
        return self.inner.release(seq_id)

    def stats(self):
        return self.inner.stats()

    def close(self):
        self.inner.close()


class Phase:
    """One scheduler, its client timelines and its rejections."""

    def __init__(self, label: str, model, pool, rec) -> None:
        self.label = label
        self.pool = pool
        self.rec = rec
        self.worker = None
        factory = None
        if isinstance(rec, SpanRecorder):

            def factory():
                self.worker = TracedWorker(
                    InProcessWorker(
                        model, block_size=SERVE.block_size, num_blocks=SERVE.num_blocks
                    ),
                    rec,
                )
                return self.worker

        self.scheduler = ContinuousBatchScheduler(
            model, SERVE, worker_factory=factory
        )
        self.tracks: list[Track] = []
        self.rejected = 0

    def submit(self, spec: int) -> Track | None:
        """Send pool request ``spec`` now; None when admission refuses it."""
        prompt, new = self.pool[spec]
        track = Track(spec, time.perf_counter())
        try:
            track.handle = self.scheduler.submit(prompt, new)
        except AdmissionError:
            self.rejected += 1
            return None
        self.tracks.append(track)
        return track

    async def step(self, live: list[Track]) -> None:
        """One scheduler step, then read the tokens ``live`` requests streamed."""
        with self.rec.span("serve.scheduler.step"):
            await self.scheduler.step()
        now = time.perf_counter()
        for track in live:
            seen = len(track.handle.tokens)
            if seen > track.seen:
                if track.seen == 0:
                    track.first = now
                track.last = now
                track.seen = seen

    def close(self) -> None:
        """Shut the scheduler and its worker down."""
        self.scheduler.close()


async def closed_loop(phase: Phase, count: int) -> None:
    """Serve pool requests ``0 .. count-1`` with ``CLIENTS`` clients.

    Each client sends the next unsent request as soon as its previous one
    is done, until every request has been sent and is done.
    """
    specs = iter(range(count))
    clients = [phase.submit(next(specs)) for _ in range(min(CLIENTS, count))]
    while phase.scheduler.busy:
        live = [t for t in clients if t is not None and not t.handle.done]
        await phase.step(live)
        for client, track in enumerate(clients):
            if track is not None and track.handle.done:
                spec = next(specs, None)
                clients[client] = None if spec is None else phase.submit(spec)


def serve_unit(model, pool, rec) -> Phase:
    """The timed unit: one scheduler serving the whole pool, then shut down."""
    phase = Phase("unit", model, pool, rec)
    with rec.span("client"):
        asyncio.run(closed_loop(phase, POOL_SIZE))
    phase.close()
    return phase


def _quantized_model(seed: int):
    """APTQ-quantize the serving model and deploy it from its packed form."""
    model = LlamaModel(MODEL, seed=MODEL_SEED)
    inputs = make_inputs(MODEL, seed, CALIBRATION_SEGMENTS)
    result = aptq_quantize_model(
        model, inputs.calibration, APTQConfig(ratio_4bit=0.5)
    )
    packed = pack_model(model, result.allocation, layer_results=result.layer_results)
    return packed, packed_digest(result.allocation, packed), inputs.compare


def setup(seed: int):
    """Deploy the model and serve a few requests to pay first-call costs."""
    pool = request_pool(seed)
    packed, digest, compare = _quantized_model(seed)
    model = packed.to_model()
    warm = Phase("warm-up", model, pool, NullRecorder())
    asyncio.run(closed_loop(warm, CLIENTS))
    warm.close()
    return model, pool, digest, packed.storage_bytes(), compare


def _accounting(phase: Phase, gates: Gates, references) -> int:
    """Check every request of ``phase``; returns how many did not complete."""
    states = [t.handle.state for t in phase.tracks]
    completed = states.count("completed")
    failed = states.count("failed")
    lost = len(states) - completed - failed
    label = phase.label
    gates.check(lost == 0, f"{label}: {lost} requests neither completed nor failed")
    wrong = [
        t.handle.request_id
        for t in phase.tracks
        if t.handle.state == "completed"
        and not np.array_equal(np.asarray(t.handle.tokens), references[t.spec])
    ]
    gates.check(
        not wrong,
        f"{label}: {len(wrong)} outputs differ from serial generate_cached, "
        f"first {wrong[:3]}",
    )
    return failed + phase.rejected + lost


def _layer_metrics(rec: SpanRecorder, phases: list[Phase]) -> dict[str, float]:
    """Per-layer figures of the traced units."""
    waits, prefills, decodes, batch, used = [], [], [], [], []
    for phase in phases:
        worker = phase.worker
        for track in phase.tracks:
            start = worker.first_prefill.get(track.handle.request_id)
            if start is not None:
                waits.append(1000.0 * (start - track.sent))
        batch += worker.batch_sizes
        used += worker.used_fracs
    for span in rec.spans:
        if span.name == "serve.engine.prefill":
            prefills.append(1000.0 * span.duration)
        elif span.name == "serve.engine.decode":
            decodes.append(1000.0 * span.duration)
    steps = [i for i, s in enumerate(rec.spans) if s.name == "serve.scheduler.step"]
    self_times = rec.self_times(rec.run_id)
    counts = {}
    for phase in phases:
        for key, value in phase.scheduler.journal.health().counts().items():
            counts[key] = counts.get(key, 0) + value
    return {
        "serve.scheduler.queue_wait_ms_p50": percentile(waits, 50),
        "serve.scheduler.queue_wait_ms_p90": percentile(waits, 90),
        "serve.engine.prefill_ms_p50": percentile(prefills, 50),
        "serve.engine.prefill_tokens": rec.counter(
            rec.run_id, "serve.engine.prefill_tokens"
        )
        / len(phases),
        "serve.engine.decode_ms_p50": percentile(decodes, 50),
        "serve.engine.decode_ms_p90": percentile(decodes, 90),
        "serve.scheduler.self_ms_per_step": 1000.0
        * sum(self_times[i] for i in steps)
        / len(steps),
        "serve.scheduler.batch_size_mean": float(np.mean(batch)),
        "serve.paged_cache.used_frac": float(np.mean(used)),
        "serve.scheduler.preemptions": float(counts.get("preempt", 0)),
        "serve.scheduler.replays": float(counts.get("rebuild", 0)),
        "serve.scheduler.shed": float(counts.get("shed", 0)),
        "serve.scheduler.rejected": float(counts.get("reject", 0)),
    }


def serve_workload(
    seed: int, seconds: float, trace: bool
) -> tuple[Report, SpanRecorder | None]:
    """Set up, time repeated units until ``seconds`` pass, check, report."""
    start = time.perf_counter()
    (model, pool, digest, storage, compare), setup_s = timed(setup, seed)
    # ``(digest, setup_s)`` of every set-up; later set-ups' models are
    # dropped at once, so that they do not move ``peak_rss_mb``.
    setups = [(digest, setup_s)]

    def set_up_again() -> None:
        outputs, seconds_taken = timed(setup, seed)
        setups.append((outputs[2], seconds_taken))

    references = {
        spec: model.generate_cached(prompt, new, temperature=0.0)[prompt.size:]
        for spec, (prompt, new) in enumerate(pool)
    }
    gates = Gates()
    rec = SpanRecorder() if trace else None
    if trace:
        rec.run_id = "serve"
    targets = program_targets() if trace else []
    walls = {False: [], True: []}
    traced_phases: list[Phase] = []
    ttft, tpot = [], []
    attempted = not_completed = tokens = 0
    for index in repeat_for(seconds, MIN_UNITS):
        # Traced runs trace every other unit; the rest give the overhead.
        traced = trace and index % 2 == 1
        with Patches(rec, targets) if traced else contextlib.nullcontext():
            phase, wall = timed(
                serve_unit, model, pool, rec if traced else NullRecorder()
            )
        walls[traced].append(wall)
        attempted += len(phase.tracks) + phase.rejected
        not_completed += _accounting(phase, gates, references)
        if traced:
            traced_phases.append(phase)
        else:
            done = [t for t in phase.tracks if t.handle.state == "completed"]
            ttft += [t.ttft_ms for t in done]
            tpot += [t.tpot_ms for t in done if t.seen > 1]
            tokens += sum(t.seen for t in phase.tracks)
        elapsed = time.perf_counter() - start
        for _ in range(setups_due(len(setups), elapsed, seconds)):
            set_up_again()
    while len(setups) < SETUPS:
        set_up_again()
    gates.check(
        len({s[0] for s in setups}) == 1,
        "set-ups of one seed deployed different packed models",
    )
    metrics: dict[str, float]
    if trace:
        entered = {n for n in rec.names("serve") if not n.startswith(("serve.", "client"))}
        gates.check(not entered, f"serving entered {sorted(entered)}")
        metrics = _layer_metrics(rec, traced_phases)
        metrics["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1
        metrics["trace.accounting_gap_frac"] = rec.accounting_gap(
            "serve", sum(walls[True])
        )
        gates.check(
            metrics["trace.accounting_gap_frac"] <= MAX_ACCOUNTING_GAP,
            "span self times miss the traced wall time",
        )
    else:
        metrics = {
            "setup_s": median(s[1] for s in setups),
            "peak_rss_mb": peak_rss_mb(),
            "unit_s": percentile(walls[False], UNIT_PERCENTILE),
            "logit_rel_err": logit_rel_err(
                model, LlamaModel(MODEL, seed=MODEL_SEED), compare
            ),
            "packed_bytes": float(storage),
        }
    return (
        Report(
            metrics=metrics,
            attempted=attempted + gates.checked,
            failed=not_completed + len(gates.failures),
            failures=gates.failures,
            deterministic={"digest": digest, "packed_bytes": storage},
            figures={
                "units": len(walls[False]),
                "tok_s": tokens / sum(walls[False]),
                "ttft_ms_p50": percentile(ttft, 50),
                "ttft_ms_p90": percentile(ttft, 90),
                "tpot_ms_p50": percentile(tpot, 50),
                "tpot_ms_p90": percentile(tpot, 90),
                "unit_s_p50": median(walls[False]),
            },
        ),
        rec,
    )
