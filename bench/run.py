"""Benchmark of the gbdsde package: Monte Carlo workloads with checked output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 bench/run.py --selfcheck

A run measures one workload (see ``BENCHMARK.json`` for the list and why each
was chosen) in a fresh worker process with one BLAS/OpenMP thread, for
``--seconds`` seconds of repeated passes; every pass is checked against its
gates and, at the reference seed 2024, against ``bench/reference.json``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics, with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  The lines before it list every metric with its unit,
the failed-pass fraction and the run's metadata.  ``--record`` appends the
run (result plus metadata) as one JSON line for ``--compare``.

The package is imported from ``src/`` next to this directory; the run fails
with a non-zero exit code, printing no result, if that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
PKG_DIR = ROOT / "src" / "gbdsde"
DEFAULT_SEED = 2024
SETUP_PROBES = 3  # extra fresh processes per untraced run, for the setup_s median
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def call_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(worker: dict) -> dict:
    try:
        # the ceiling keeps git from searching the directories above ROOT
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(PKG_DIR.glob("*.py")))
    return {
        "commit": commit,
        "seed": worker["seed"],
        "toy": worker["toy"],
        **worker["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": worker["blas_threads"],
        "thread_env": {v: worker_env()[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "src_gbdsde_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: int, toy: bool = False,
            reference: str | None = None) -> dict:
    """Run one workload and return the result record (final line plus extras)."""
    spec = json.loads(SPEC_FILE.read_text())
    if not (PKG_DIR / "__init__.py").is_file():
        raise BenchError(f"no package source at {PKG_DIR}")
    start = time.perf_counter()
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if toy:
        base.append("--toy")
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(call_worker([*base, "--seconds", "0", "--setup-only"], 60.0))
    extra = ["--reference", reference] if reference else []
    worker = call_worker([*base, "--seconds", str(seconds), *extra],
                         RUN_LIMIT_S - (time.perf_counter() - start))

    if trace:
        layer = dict(worker["per_layer"], gate_margin=worker["gate_margin"])
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            # pass time at the calibrated machine speed (see workloads.py)
            "wall_cal_s": (worker["calibration_ref_s"] * statistics.mean(worker["walls"])
                           * sum(n for _, n in worker["calibrations"])
                           / sum(t for t, _ in worker["calibrations"])),
            "setup_s": statistics.median(
                worker["calibration_ref_s"] * p["setup_s"] / p["calibration"]
                for p in [*probes, {"setup_s": worker["setup_s"],
                                    "calibration": worker["setup_calibration"]}]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    final = {
        "correct": worker["failed"] == 0 and worker["attempted"] >= 1,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "result": final,
        "failed_frac": worker["failed"] / worker["attempted"],
        "gate_margin": worker["gate_margin"],
        "outputs": worker["outputs"],
        "failures": worker["failures"],
        "setup_samples": [p["setup_s"] for p in probes] + [worker["setup_s"]],
        "pass_walls": worker["walls"],
        "calibrations": worker["calibrations"],
        "stage_walls": worker["stage_walls"],
        "spans_file": worker.get("spans_file"),
        "meta": metadata(worker),
    }


def print_record(record: dict) -> None:
    for fail in record["failures"]:
        print(f"failed pass {fail['pass']}: " + " | ".join(fail["problems"]), file=sys.stderr)
    print(f"workload {record['workload']} seed {record['meta']['seed']} "
          f"trace {record['trace']}: {record['result']['attempted']} passes")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {record['failed_frac']:.6g} 1")
    if not record["trace"]:
        print(f"  {'gate_margin':42s} {record['gate_margin']} 1")
        walls = record["pass_walls"]
        print(f"  {'raw pass wall, median (fastest)':42s} {statistics.median(walls):.6g} "
              f"({min(walls):.6g}) s")
        for stage in record["stage_walls"][0]:
            med = statistics.median(s[stage] for s in record["stage_walls"])
            print(f"  {'stage ' + stage + ' wall (median)':42s} {med:.6g} s")
        print(f"  {'raw setup samples':42s} "
              + " ".join(f"{v:.3g}" for v in record["setup_samples"]) + " s")
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run as a JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two files of recorded runs")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at toy size and check the harness")
    args = parser.parse_args(argv)

    try:
        if args.compare:
            import compare

            compare.report(*args.compare, json.loads(SPEC_FILE.read_text()))
            return 0
        if args.selfcheck:
            import selfcheck

            selfcheck.run_all()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads(SPEC_FILE.read_text())["run_seconds"]
        record = measure(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
