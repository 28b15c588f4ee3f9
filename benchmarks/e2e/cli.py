"""Command line of the end-to-end benchmark.

Two ways to run it (see README.md):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, in this process.  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
    the end-to-end metrics with ``--trace 0``, the per-layer metrics
    with ``--trace 1``.  This is the form the benchmark driver calls.

``run.py --seed N [--out FILE]``
    Every workload, each in a fresh subprocess (so peak RSS is per
    workload), untraced and then traced; prints every metric by name
    with its unit and writes the result set to ``--out``.

Both exit non-zero if any operation failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import harness, layers, workloads
from .trace import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def units_of(contract: Dict[str, Any]) -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"]
        for group in ("end_to_end", "per_layer")
        for metric in contract[group]
    }


def traced_run(
    spec: workloads.Spec, inputs: workloads.Inputs, seconds: float
) -> Tuple[workloads.Run, Recorder, Dict[str, float]]:
    """One workload with the layer wrappers in on every other pass
    (the passes without them are the overhead baseline), then the
    probes, without them."""
    rec = Recorder()
    layers.install(rec)
    amplification = layers.WriteAmplification()
    rec.install()
    try:
        run = workloads.run_workload(
            spec, inputs, seconds, rec,
            on_deploy=amplification.attach if spec.streaming else None,
        )
    finally:
        rec.uninstall()
    try:
        values = layers.run_probes(run)
    finally:
        run.fw.close()
    values.update(layers.layer_metrics(run, rec, amplification))
    return run, rec, values


def untraced_run(
    spec: workloads.Spec, inputs: workloads.Inputs, seconds: float
) -> Tuple[workloads.Run, Dict[str, float]]:
    run = workloads.run_workload(spec, inputs, seconds)
    run.fw.close()
    values = dict(run.end_to_end)
    values["peak_rss_mb"] = harness.peak_rss_mb()
    return run, values


def describe_passes(run: workloads.Run) -> str:
    """How many passes the window held and how far they spread: the
    reader's view of the machine's noise during this run."""
    spread = harness.summary([p.traffic_s() for p in run.passes])
    first = run.passes[0]
    return (
        f"{spread['n']} passes of {len(first.singles)} round(s), "
        f"{len(first.singles[0])} single calls a round; ingest + query "
        f"time per pass median {spread['median']:.3f} s "
        f"[q1 {spread['q1']:.3f}, q3 {spread['q3']:.3f}]"
    )


def run_one(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload in this process; returns the result object."""
    spec = workloads.SPECS[name]
    scale = workloads.SCALES["quick" if quick else "default"]
    inputs = workloads.generate_inputs(seed, scale)
    if trace:
        run, rec, values = traced_run(spec, inputs, seconds)
        if trace_out:
            rec.write(trace_out)
    else:
        run, values = untraced_run(spec, inputs, seconds)
    print(f"# {name} seed={seed}: {describe_passes(run)}")
    units = units_of(load_contract())
    missing = sorted(set(values) - set(units))
    if missing:
        raise SystemExit(f"metrics not named in BENCHMARK.json: {missing}")
    return {
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in values.items()
        },
    }


def run_all(
    seed: int, seconds: float, quick: bool, out: Optional[str]
) -> int:
    """Every workload in its own subprocess, untraced then traced."""
    contract = load_contract()
    results: Dict[str, Any] = {
        "seed": seed,
        "seconds": seconds,
        "scale": "quick" if quick else "default",
        "fingerprint": harness.fingerprint(ROOT),
        "workloads": {},
    }
    failed = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        entry: Dict[str, Any] = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ] + ["--quick"] * quick
            if trace and out:
                command += ["--trace-out", f"{out}.{name}.trace.json"]
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=900
            )
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"{name} (trace={trace}) printed no result", file=sys.stderr)
                failed += 1
                continue
            result = json.loads(lines[-1])
            entry["traced" if trace else "untraced"] = result
            failed += result["failed"] + (done.returncode != 0)
            header = f"{name} ({'per-layer, traced' if trace else 'end-to-end'})"
            print(f"\n== {header}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, fail_share "
                  f"{result['failed'] / result['attempted']:.6f}")
            for key, metric in result["metrics"].items():
                print(f"  {key:<44} {metric['value']:>16.6g} {metric['unit']}")
        results["workloads"][name] = entry
    if out:
        with open(out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="length of the measuring window of one run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="selfcheck scale (SMALL_CONFIG)"
    )
    parser.add_argument("--out", help="write the result set here (all-workload form)")
    parser.add_argument("--trace-out", help="write the Chrome trace here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.quick, args.out)
    try:
        result = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace),
            quick=args.quick, trace_out=args.trace_out,
        )
    finally:
        # No process of this run may outlive it, whichever way it ends.
        harness.reap_children()
    # The driver's contract: one JSON object on the last line.
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
