"""In-memory span recorder and the wrappers that feed it in traced runs.

A span has a name, a start, an end, the index of the span that was open
when it began (its parent) and the id of the timed run it belongs to.
Spans are recorded around calls into the program's layers: the
benchmark's own calls of public functions (``with recorder.span(...)``)
and, in traced runs only, the public functions those calls reach, which
:class:`Patches` replaces with timing wrappers and puts back on exit.  An
untraced run never installs a wrapper, so it executes the program
untouched.

A span's self time is its duration minus the durations of its children;
the program is single-threaded on every path the workloads take, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


@dataclasses.dataclass
class Span:
    """One timed call."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start


class SpanRecorder:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.kept: dict[tuple[str, str], list] = defaultdict(list)
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span of the current run."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a counter of the current run."""
        self.counts[(self.run_id, name)] += amount

    def keep(self, name: str, item: object) -> None:
        """Hold on to an object the program created, to read it after the run."""
        self.kept[(self.run_id, name)].append(item)

    # -- queries ------------------------------------------------------------
    def run_spans(self, run_id: str) -> list[tuple[int, Span]]:
        """``(index, span)`` of every span of ``run_id``."""
        return [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]

    def self_times(self, run_id: str) -> dict[int, float]:
        """Self time of every span of ``run_id``, by span index."""
        own = dict(self.run_spans(run_id))
        result = {index: span.duration for index, span in own.items()}
        for span in own.values():
            if span.parent in result:
                result[span.parent] -= span.duration
        return result

    def total(self, run_id: str, name: str) -> float:
        """Summed duration of the spans called ``name`` in ``run_id``."""
        return sum(s.duration for _, s in self.run_spans(run_id) if s.name == name)

    def self_total(self, run_id: str, name: str) -> float:
        """Summed self time of the spans called ``name`` in ``run_id``."""
        own = self.self_times(run_id)
        return sum(
            own[i] for i, s in self.run_spans(run_id) if s.name == name
        )

    def counter(self, run_id: str, name: str) -> float:
        """Value of a counter in ``run_id`` (0 when never touched)."""
        return self.counts.get((run_id, name), 0.0)

    def names(self, run_id: str) -> set[str]:
        """Names of the spans recorded in ``run_id``."""
        return {s.name for _, s in self.run_spans(run_id)}

    def accounting_gap(self, run_id: str, wall: float) -> float:
        """``|wall - sum of self times| / wall`` for the spans of ``run_id``.

        ``wall`` is measured from outside around the benchmark's own
        top-level spans.  The self times of a well-formed span tree add up
        to its top-level durations, so a gap means a lost, unclosed or
        overlapping span.  It does not show time in a layer without a
        wrapper: that counts as self time of the enclosing span (for a
        quantize unit, ``aptq.self_s``).
        """
        return abs(wall - sum(self.self_times(run_id).values())) / wall

    def write(self, path: Path) -> None:
        """Write every span and counter as JSON (at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "counts": [
                {"run_id": run, "name": name, "value": value}
                for (run, name), value in sorted(self.counts.items())
            ],
        }
        path.write_text(json.dumps(payload))


class NullRecorder:
    """The recorder of an untraced run: records nothing."""

    run_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        """No-op stand-in for :meth:`SpanRecorder.span`."""
        yield None

    def count(self, name: str, amount: float = 1.0) -> None:
        """No-op stand-in for :meth:`SpanRecorder.count`."""


@dataclasses.dataclass(frozen=True)
class Target:
    """One attribute to wrap: a span name, a counter, or both.

    ``after(recorder, args, kwargs, result)`` runs after each call (for
    counts that depend on the call, such as bytes written).
    """

    owner: object
    attr: str
    span: Optional[str] = None
    counter: Optional[str] = None
    after: Optional[Callable] = None


class Patches:
    """Install timing wrappers on ``targets``; restore the originals on exit."""

    def __init__(self, recorder: SpanRecorder, targets: list[Target]) -> None:
        self.recorder = recorder
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.counter:
                recorder.count(target.counter)
            if target.span:
                with recorder.span(target.span):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if target.after:
                target.after(recorder, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Patches":
        for target in self.targets:
            owner, attr = target.owner, target.attr
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def program_targets() -> list[Target]:
    """Wrappers for every layer a quantize run reaches below ``aptq``.

    Functions imported by name are wrapped where the caller looks them up
    (``repro.core.aptq.collect_input_stats``, not only the defining
    module).  The serve workload installs the same set during its timed
    units to show that serving never enters these layers.
    """
    from repro.core import aptq, hessian, kron, sensitivity
    from repro.nn import transformer
    from repro.quant import solver

    def checkpoint_bytes(recorder, args, kwargs, result):
        recorder.count("runtime.checkpoint.bytes", Path(result).stat().st_size)

    def factor_cache(recorder, args, kwargs, result):
        recorder.keep("quant.solver.factor_cache", result)

    targets = [
        Target(aptq, "compute_sensitivities", span="core.sensitivity"),
        Target(aptq, "allocate_bits_by_sensitivity", span="core.allocation"),
        Target(hessian.CalibrationCaptureStream, "block_captures",
               span="core.hessian.capture"),
        Target(hessian, "attention_seeded_gradients_batched",
               span="core.attention_grads"),
        Target(kron, "attention_preactivation_gradients_batched",
               span="core.attention_grads"),
        Target(aptq, "save_checkpoint", span="runtime.checkpoint.save",
               after=checkpoint_bytes),
        Target(solver, "factorize_hessian", span="quant.solver.factorize"),
        Target(solver, "quantize_with_hessian", span="quant.solver"),
        Target(aptq, "HessianFactorCache", after=factor_cache),
        Target(transformer.TransformerBlock, "forward_array",
               counter="nn.block_forwards"),
    ]
    for module in (aptq, sensitivity):
        targets += [
            Target(module, "attention_hessians_from_captures",
                   span="core.hessian.build", counter="core.hessian.calls"),
            Target(module, "kron_attention_hessians_from_captures",
                   span="core.kron", counter="core.hessian.calls"),
            Target(module, "collect_input_stats",
                   span="quant.calibration_hooks.collect",
                   counter="quant.calibration_hooks.calls"),
        ]
    return targets
