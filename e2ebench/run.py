"""End-to-end benchmark of the APTQ system: quantize, deploy, serve.

Run from the root of a checkout of the repository::

    python3 e2ebench/run.py --workload quantize-deep-kron --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every end-to-end metric, which every workload produces from its own load,
with ``--trace 1`` every per-layer metric, from a separate traced run (0
for a layer the workload never enters).  The line before it records the
environment, the deterministic fields of the run and the workload's own
figures that no bound gates (median unit time; serve: latencies, tokens
per second).  Metric names and units come from ``BENCHMARK.json``;
``e2ebench/README.md`` says why each workload exists and which metric
each layer should move.

Exit codes: 0 after a run (gate failures are reported in ``failed``), 2
when the checkout holds no ``src/repro`` or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import Scratch, environment_record, pin_blas_threads

WORKLOADS = ("quantize-deep-kron", "quantize-wide-probed", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path):
    """Dispatch to the workload's module (imported only now: numpy loads late)."""
    with Scratch(root, name) as scratch:
        if name.startswith("quantize-"):
            from quantize import quantize_workload

            return quantize_workload(name, seed, seconds, trace, scratch)
        from serve import serve_workload

        return serve_workload(seed, seconds, trace)


def main(argv=None) -> int:
    """Run one workload and print its result."""
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {root}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    pin_blas_threads()
    sys.path.insert(0, str(root / "src"))
    report, recorder = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), root
    )
    unknown = set(report.metrics) - set(units)
    if unknown:
        raise KeyError(f"{section} metrics {sorted(unknown)} are not declared")
    if args.trace:
        report.metrics = {name: report.metrics.get(name, 0.0) for name in units}
        recorder.write(
            root / ".e2ebench_out" / f"{args.workload}-seed{args.seed}.spans.json"
        )
    elif set(report.metrics) != set(units):
        missing = sorted(set(units) - set(report.metrics))
        raise KeyError(f"{args.workload} does not produce {missing}")
    for failure in report.failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "environment": environment_record(),
                "workload": args.workload,
                "seed": args.seed,
                "deterministic": report.deterministic,
                "figures": report.figures,
            }
        )
    )
    print(report.result_line(units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
