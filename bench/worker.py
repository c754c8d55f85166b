"""Run one workload in this (fresh) process and print its raw results as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only] [--toy] [--reference FILE]

``bench/run.py`` starts this with one BLAS/OpenMP thread; use that instead.
The clock for ``setup_s`` starts before numpy, scipy or gbdsde is imported
and stops when the workload's inputs are built, just before the first call
into the numerics.  Passes then repeat while the next one is expected to end
within ``--seconds``; each pass is timed from the generated inputs to its
checked output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 2024
CALIBRATION_SHARE = 0.5


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(path).name] = int(fn())
                break
    return out


def check_pass(outputs: dict, gates: list, reference: dict | None) -> list[str]:
    """Reasons the pass failed: a gate not met or an output off its reference."""
    problems = [f"gate {g.name}: {g.measured!r} not <= {g.threshold!r}"
                for g in gates if not g.passed]
    for key, ref in (reference or {}).items():
        got = outputs.get(key)
        if isinstance(ref["value"], (str, int)):
            ok = got == ref["value"]
        else:
            ok = got is not None and abs(got - ref["value"]) <= ref["rtol"] * abs(ref["value"])
        if not ok:
            problems.append(f"output {key}: {got!r} differs from reference {ref['value']!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--reference", default=None,
                        help="reference outputs to check instead of bench/reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "gbdsde" / "__init__.py").is_file():
        print(f"worker: no package source at {SRC / 'gbdsde'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gbdsde
    import workloads

    if Path(gbdsde.__file__).resolve().parent != (SRC / "gbdsde").resolve():
        print(f"worker: imported gbdsde from {gbdsde.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def calibrate(workloads, stage_wall: float) -> tuple[float, int]:
    """Run the calibration kernel for about CALIBRATION_SHARE x stage_wall.

    Returns the kernel's total time and run count.  Sampling the machine's
    speed right after every stage, for a fixed share of its time, makes the
    mean kernel time a time-weighted average of the speed over the run.
    """
    total, runs = 0.0, 0
    while runs == 0 or total < CALIBRATION_SHARE * stage_wall:
        total += workloads.calibration_kernel()
        runs += 1
    return total, runs


def run_stages(workloads, workload: str, inputs: dict, tracer) -> tuple[dict, list, dict, list]:
    """One pass: every stage of the workload in order.

    Returns the outputs keyed ``stage.name``, the gates, each stage's wall
    time and, untraced, the kernel time and runs of the calibration after
    each stage (kept out of the stage and pass times).  A traced heat_field
    stage must have drawn exactly the normals of its configured scenarios
    and steps.
    """
    outputs, gates, walls, calibration = {}, [], {}, [0.0, 0]
    for stage in workloads.WORKLOADS[workload]:
        normals_before = tracer.counts["paths.normals_drawn"] if tracer else 0
        t = time.perf_counter()
        stage_out, stage_gates = workloads.RUNS[stage](inputs[stage])
        walls[stage] = time.perf_counter() - t
        if tracer is None:
            total, runs = calibrate(workloads, walls[stage])
            calibration[0] += total
            calibration[1] += runs
        outputs.update({f"{stage}.{k}": v for k, v in stage_out.items()})
        gates += stage_gates
        if tracer and stage == "heat_field":
            inp = inputs[stage]
            drawn = tracer.counts["paths.normals_drawn"] - normals_before
            want = inp["nodes"] * (inp["scenarios"] + 1) * inp["steps"]
            if drawn != want:
                raise RuntimeError(f"heat_field drew {drawn} normals, expected {want} for "
                                   f"{inp['scenarios']} scenarios x {inp['steps']} steps")
    return outputs, gates, walls, calibration


def run(args, work_dir: Path) -> int:
    import numpy as np
    import scipy
    import workloads

    inputs = workloads.setup(args.workload, args.seed, args.toy, work_dir)
    setup_s = time.perf_counter() - T0
    setup_calibration = workloads.calibration_kernel()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration": setup_calibration,
                          "calibration_ref_s": workloads.CALIBRATION_REF_S}))
        return 0

    if args.reference:
        reference = json.loads(Path(args.reference).read_text())[args.workload]["outputs"]
    elif args.seed == REFERENCE_SEED and not args.toy:
        reference = json.loads(REFERENCE_FILE.read_text())[args.workload]["outputs"]
    else:
        reference = None  # other seeds and toy shapes are held to their gates only

    tracer = traced_inputs = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced_inputs = workloads.setup(args.workload, args.seed, args.toy, work_dir / "traced")
        tracer.uninstall()

    walls, stage_walls, calibrations, failures, margins = [], [], [], [], []
    last_outputs = None
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        if traced:
            tracer.begin_pass(attempted)
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs, gates, stages, calibration = run_stages(
                workloads, args.workload, traced_inputs if traced else inputs,
                tracer if traced else None)
            t = time.perf_counter()
            problems = check_pass(outputs, gates, reference)
            wall = sum(stages.values()) + time.perf_counter() - t
            margins.append(max(g.margin for g in gates))
            last_outputs = outputs
        except Exception:
            problems, stages, calibration = [traceback.format_exc()], {}, [0.0, 0]
            wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.end_pass(wall)
        elif stages:
            walls.append(wall)
            stage_walls.append(stages)
            calibrations.append(calibration)
        attempted += 1
        if problems:
            failures.append({"pass": attempted - 1, "problems": problems})
        # stop before a pass that would end past --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (attempted + 1) / attempted > args.seconds and attempted >= 1 + args.trace:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "toy": args.toy,
        "setup_s": setup_s,
        "setup_calibration": setup_calibration,
        "calibration_ref_s": workloads.CALIBRATION_REF_S,
        "walls": walls,
        "calibrations": calibrations,
        "stage_walls": stage_walls,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:3],
        "gate_margin": max(margins) if margins else None,
        "outputs": last_outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(walls)
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
