"""Self-check of the benchmark harness (``run.py --selfcheck``).

Runs every workload at toy size, untraced and traced, and asserts that:

* every metric named in ``BENCHMARK.json`` is reported, as a number, with
  its unit, and every toy pass meets its gates;
* the recorded spans nest (children inside their parent's interval and
  pass; ``BrownianFlow.solve`` spans appear under ``BrownianFlow.invert``)
  and the per-layer self times sum to no more than the traced pass time;
* a reference equal to the toy outputs passes, while a perturbed one makes
  every pass fail;
* the heat_field config is the shipped configs/neumann-heat.yaml;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the
  benchmark exits non-zero without printing a result.

Raises ``SelfCheckError`` on the first violation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import yaml

import run
from run import BENCH_DIR, ROOT, SPEC_FILE

SCRATCH = ROOT / ".bench_out" / "selfcheck"


class SelfCheckError(AssertionError):
    """The harness broke one of its own invariants."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfCheckError(message)


def check_metrics(record: dict, wanted: list[dict]) -> None:
    got = record["result"]["metrics"]
    label = f"{record['workload']} trace {record['trace']}"
    expect(set(got) == {m["name"] for m in wanted},
           f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
    for m in wanted:
        entry = got[m["name"]]
        expect(entry["unit"] == m["unit"], f"{label}: {m['name']} unit")
        expect(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
               f"{label}: {m['name']} = {entry['value']!r} is not a finite number")
    expect(record["result"]["correct"] and record["result"]["failed"] == 0,
           f"{label}: toy passes failed: {record['failures']}")


def check_spans(record: dict) -> None:
    data = json.loads((ROOT / record["spans_file"]).read_text())
    spans = data["spans"]
    expect(bool(spans), f"{record['workload']}: no spans recorded")
    for name, start, end, parent, pass_id in spans:
        expect(start <= end, f"{name}: span ends before it starts")
        if parent >= 0:
            p = spans[parent]
            expect(p[1] <= start and end <= p[2] and p[4] == pass_id,
                   f"{name} span lies outside its parent {p[0]}")
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    expect(self_sum <= metrics["trace.pass_s"],
           f"{record['workload']}: self times sum to {self_sum} > pass {metrics['trace.pass_s']}")
    if "flows.BrownianFlow.invert.calls" in metrics and metrics["flows.BrownianFlow.invert.calls"]:
        under = [s for s in spans if s[0] == "flows.BrownianFlow.solve" and s[3] >= 0
                 and spans[s[3]][0] == "flows.BrownianFlow.invert"]
        expect(bool(under), "no BrownianFlow.solve span nests under BrownianFlow.invert")


def check_reference(workload: str, outputs: dict) -> None:
    ref_path = SCRATCH / "reference.json"
    for scale, want_failed in ((1.0, False), (1.0 + 1e-6, True)):
        ref = {workload: {"outputs": {k: {"value": v * scale, "rtol": 1e-9}
                                      for k, v in outputs.items()}}}
        ref_path.write_text(json.dumps(ref))
        rec = run.measure(workload, 2024, 0, 0, toy=True, reference=str(ref_path))
        result = rec["result"]
        if want_failed:
            expect(result["failed"] == result["attempted"] and not result["correct"],
                   "a perturbed reference was not reported as a failed pass")
        else:
            expect(result["failed"] == 0, f"exact toy reference failed: {rec['failures']}")


def check_heat_config() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    shipped = yaml.safe_load((ROOT / "configs" / "neumann-heat.yaml").read_text())
    expect(workloads.HEAT_CONFIG == shipped,
           "workloads.HEAT_CONFIG no longer equals configs/neumann-heat.yaml")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(SPEC_FILE, bare / SPEC_FILE.name)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads(SPEC_FILE.read_text())
    cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark succeeded without the package source")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without the source")


def run_all() -> None:
    spec = json.loads(SPEC_FILE.read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    first = None
    for w in spec["workloads"]:
        name = w["name"]
        plain = run.measure(name, 2024, 0, 0, toy=True)
        check_metrics(plain, spec["end_to_end"])
        traced = run.measure(name, 2024, 0, 1, toy=True)
        check_metrics(traced, spec["per_layer"])
        check_spans(traced)
        first = first or plain
        print(f"selfcheck: {name}: metrics, units and spans ok")
    check_reference(first["workload"], {k: v for k, v in first["outputs"].items()
                                        if isinstance(v, float)})
    print("selfcheck: exact reference passes, perturbed reference fails")
    check_heat_config()
    print("selfcheck: heat_field config matches configs/neumann-heat.yaml")
    check_bare_directory()
    print("selfcheck: exits non-zero without the package source")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck: OK")
