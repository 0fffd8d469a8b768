"""Steadiness check: are two sets of runs of the same code within the bounds?

Run from the root of a checkout::

    python3 e2ebench/steady.py --runs 10 --sets 2
    python3 e2ebench/steady.py --runs 5 --sets 1 --workloads serve-mixed

Runs every workload ``--runs`` times per set with seeds 1..runs; the sets
are interleaved run by run (A1 B1 A2 B2 ...) so slow phases of a shared
machine fall on both.  For every end-to-end metric of every workload it
prints each set's median and quartiles, the quartile distance as a share
of the median (the spread the bound must cover) and the change of the
second set's median against the first, next to the metric's bound.  Raw
results are appended to ``.e2ebench_out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, spec: dict, workload: str, seed: int) -> dict:
    """One benchmark run in a child process; its parsed result line."""
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    """Run the sets and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    args = parser.parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    log = root / ".e2ebench_out" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[tuple[str, str, int], list[float]] = {}
    failed = 0
    for run in range(args.runs):
        for which in range(args.sets):
            for name in names:
                result = run_once(root, spec, name, run + 1)
                failed += result["failed"]
                with log.open("a") as handle:
                    handle.write(json.dumps({"workload": name, "set": which,
                                             "seed": run + 1, "result": result}) + "\n")
                for metric, entry in result["metrics"].items():
                    values.setdefault((name, metric, which), []).append(entry["value"])
                print(f"set {which} run {run + 1} {name}: failed={result['failed']}",
                      file=sys.stderr, flush=True)

    worst = 0.0
    print(f"{'workload':22} {'metric':16} {'bound':>6} "
          + "  ".join(f"{'set ' + str(s) + ' q1/med/q3':>30} {'spread':>7}" for s in range(args.sets))
          + ("  " + f"{'drift':>7}" if args.sets == 2 else ""))
    for name in names:
        for metric in sorted({m for (n, m, _) in values if n == name}):
            bound = bounds[metric]
            cells, medians = [], []
            for which in range(args.sets):
                q1, med, q3 = quartiles(values[(name, metric, which)])
                spread = (q3 - q1) / med if med else float("inf")
                worst = max(worst, spread / bound)
                medians.append(med)
                cells.append(f"{q1:9.4g}/{med:9.4g}/{q3:9.4g} {spread:7.3f}")
            line = f"{name:22} {metric:16} {bound:6.3f} " + "  ".join(cells)
            if args.sets == 2:
                drift = (medians[1] - medians[0]) / medians[0] if medians[0] else float("inf")
                worst = max(worst, abs(drift) / bound)
                line += f"  {drift:+7.3f}"
            print(line)
    print(f"largest spread or drift as a share of its bound: {worst:.2f}; "
          f"failed operations: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
