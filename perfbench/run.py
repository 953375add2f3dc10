"""The repository benchmark: one command, four open-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 25
    python3 perfbench/run.py --workload prefix_fleet --trace 1
    python3 perfbench/run.py            # every workload, one after another

``--trace 0`` reports the end-to-end metrics: host cost of the simulator
(set-up, wall time per request, peak RSS) and the simulated serving
quality (TTFT, TPOT, SLO attainment, replica-seconds). Each repetition
runs in a fresh process, one after another; repetitions continue until
``--seconds`` of measuring have passed (at least ``MIN_REPS``), and the
host metrics are their medians. Host times are scaled to nominal
machine speed by a reference loop timed around each repetition
(reference.py); the raw readings are printed next to them. ``--trace 1`` runs one untraced and one
traced repetition and reports the per-layer split (see layers.py).

Every run checks the program's outputs: each request finishes with the
tokens it asked for and ordered timestamps, every repetition produces
the same simulated digest, a traced repetition the same digest as an
untraced one, and ``day_observed``'s trace passes ``check_trace``. A
failed check prints ``"correct": false`` and exits 1. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Workload definitions, metric units, kinds (host or sim), the TTFT
limits and the layer to end-to-end metric map are in ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Repetitions a measured run makes even when ``--seconds`` is short.
MIN_REPS = 3
#: Seconds one repetition may take before it counts as hung.
REP_TIMEOUT_S = 150

#: Host times reported at nominal machine speed (see reference.py),
#: each scaled by the reference readings taken around it; the raw
#: wall-clock readings are kept as ``raw_<name>``.
SCALED = {"setup_s": "gauge_setup", "host_us_per_request": "gauge_run"}

#: numpy/BLAS pinned to one thread, hashing pinned, in every repetition.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_json(*parts: str):
    with open(os.path.join(*parts)) as handle:
        return json.load(handle)


def require_sources() -> None:
    """Exit 2 unless the program and the drivers it imports are here."""
    needed = [
        os.path.join(ROOT, "src", "repro", "__init__.py"),
        os.path.join(ROOT, "benchmarks", "bench_scale.py"),
    ]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(
            "perfbench: run from a repository checkout; missing "
            + ", ".join(os.path.relpath(p, ROOT) for p in missing),
            file=sys.stderr,
        )
        sys.exit(2)


# ----------------------------------------------------------------------
# One repetition (runs in its own process)
# ----------------------------------------------------------------------
def repetition(workload_name: str, seed: int, traced: bool) -> Dict:
    sys.path[:0] = [
        os.path.join(ROOT, "src"),
        os.path.join(ROOT, "benchmarks"),
        HERE,
    ]
    import numpy

    from layers import layer_metrics
    from layertrace import Tracer
    from measure import run_once
    from reference import REFERENCE_NOMINAL_S, reference_seconds
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    result = run_once(workload, seed, tracer=tracer, gauge=reference_seconds)
    result["reference_s"] = result["gauge_run"]
    for name, gauge in SCALED.items():
        result[f"raw_{name}"] = result[name]
        result[name] *= REFERENCE_NOMINAL_S / result[gauge]
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        result["spans"] = tracer.span_count
        result["missing_hooks"] = tracer.missing
    result["numpy"] = numpy.__version__
    result.pop("_items")
    result.pop("_report")
    return result


def spawn(workload: str, seed: int, traced: bool) -> Dict:
    """Run one repetition in a fresh interpreter; returns its result."""
    env = dict(os.environ, **PINNED_ENV)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--repetition", "traced" if traced else "plain",
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(
            f"{workload} repetition exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# A measured run of one workload
# ----------------------------------------------------------------------
def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or "unknown"


def provenance(numpy_version: str) -> Dict[str, str]:
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def check_reps(reps: List[Dict]) -> List[str]:
    """Problems across repetitions: failures and differing digests."""
    problems = []
    for rep in reps:
        if rep["failed"]:
            problems.append(
                f"{rep['failed']} requests failed checks: "
                f"{rep['failures'] or rep.get('trace_violations')}"
            )
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the digest: {digests}")
    sims = {json.dumps(rep["sim"], sort_keys=True) for rep in reps}
    if len(sims) > 1:
        problems.append("repetitions disagree on the simulated metrics")
    return problems


def e2e_values(reps: List[Dict]) -> Dict[str, float]:
    values = dict(reps[0]["sim"])
    for name in ("setup_s", "host_us_per_request", "peak_rss_mb"):
        values[name] = statistics.median(rep[name] for rep in reps)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    started = time.perf_counter()
    reps: List[Dict] = []
    traced = None
    if trace:
        reps.append(spawn(workload, seed, traced=False))
        traced = spawn(workload, seed, traced=True)
    else:
        while True:
            reps.append(spawn(workload, seed, traced=False))
            elapsed = time.perf_counter() - started
            per_rep = elapsed / len(reps)
            if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
                break
    problems = check_reps(reps + ([traced] if traced else []))
    if traced is not None:
        problems += [f"hook not found: {h}" for h in traced["missing_hooks"]]
    return {
        "workload": workload,
        "seed": seed,
        "reps": reps,
        "traced": traced,
        "problems": problems,
        "values": e2e_values(reps),
        "seconds": time.perf_counter() - started,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_run(run: Dict, spec: Dict) -> None:
    first = run["reps"][0]
    values = run["values"]
    limit = spec["workloads"][run["workload"]]["ttft_limit_s"]
    print(
        f"== {run['workload']} seed={run['seed']} "
        f"requests={first['submitted']} repetitions={len(run['reps'])} "
        f"ttft_limit={limit}s tpot_limit={spec['tpot_limit_ms']}ms"
    )
    samples = {
        "ttft": values["ttft_samples"], "tpot": values["tpot_samples"],
    }
    for name, meta in spec["end_to_end"].items():
        counted = samples.get(name.split("_")[0])
        suffix = f" (n={counted})" if counted is not None and "_p" in name else ""
        print(
            f"  {name:<22} {values[name]:>14.6g} {meta['unit']:<6} "
            f"[{meta['kind']}]{suffix}"
        )
    for name in ("host_us_per_request", "raw_host_us_per_request",
                 "reference_s"):
        print(
            f"  per repetition {name}: "
            + " ".join(f"{rep[name]:.4g}" for rep in run["reps"])
        )
    print(f"  digest {first['digest']}")
    if run["traced"] is not None:
        traced = run["traced"]
        print(
            f"  traced: {traced['spans']} spans, overhead "
            f"{traced['host_us_per_request'] / first['host_us_per_request']:.2f}x"
            f", digest {traced['digest']}"
        )
        for name, value in traced["layers"].items():
            print(f"  {name:<32} {value:>16.6g}")
    for key, value in provenance(first["numpy"]).items():
        print(f"  {key}: {value}")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(runs: List[Dict], bench: Dict, trace: bool) -> Dict:
    attempted = sum(rep["submitted"] for run in runs for rep in run["reps"])
    failed = sum(rep["failed"] for run in runs for rep in run["reps"])
    correct = not any(run["problems"] for run in runs)
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run['workload']}/"
        if trace:
            first, traced = run["reps"][0], run["traced"]
            values = dict(traced["layers"])
            values.update({f"e2e.{k}": v for k, v in first["sim"].items()})
            values["host.raw_us_per_request"] = first["raw_host_us_per_request"]
            values["host.reference_s"] = first["reference_s"]
            values["trace.overhead"] = (
                traced["host_us_per_request"] / first["host_us_per_request"]
            )
            wanted = bench["per_layer"]
        else:
            values = run["values"]
            wanted = bench["end_to_end"]
        for metric in wanted:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repetition", choices=("plain", "traced"), help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    require_sources()
    bench = load_json(ROOT, "BENCHMARK.json")
    spec = load_json(HERE, "spec.json")

    if args.repetition is not None:
        result = repetition(
            args.workload, args.seed, args.repetition == "traced"
        )
        print(json.dumps(result))
        return 0

    names = (
        list(spec["workloads"]) if args.workload == "all" else [args.workload]
    )
    unknown = [name for name in names if name not in spec["workloads"]]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    runs = []
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace))
        print_run(run, spec)
        runs.append(run)
    line = result_line(runs, bench, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
