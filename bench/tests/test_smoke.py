"""Smoke tests for the benchmark: tiny scans, every named metric emitted.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert lines[0].startswith("header: ")
    header = json.loads(lines[0][len("header: "):])
    assert {"nproc", "cpu_model", "python", "numpy", "loadavg_before", "loadavg_after", "steal_s"} <= set(header)
    if not trace:
        for name in ("instances_per_s", "cpu_s", "setup_s", "peak_rss_mb", "failed_frac"):
            assert any(line.startswith(f"{name}: ") for line in lines), name


def test_all_runs_every_workload():
    proc = bench("--workload", "all", "--seed", "2", "--seconds", "0.1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    headers = [json.loads(ln[len("header: "):]) for ln in proc.stdout.splitlines() if ln.startswith("header: ")]
    assert [h["workload"] for h in headers] == WORKLOADS
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert [r["correct"] for r in results] == [True] * len(WORKLOADS)


def test_layer_map_covers_every_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]} | {"none"}
    for name, m in layers.items():
        assert m["moves"] in e2e, name
        assert m["workloads"] and set(m["workloads"]) <= set(WORKLOADS), name


def test_changed_result_fails_the_check():
    argv, expected = run.workload_scans("clp-psums", run.scan_seed(5, 0), smoke=True)[0]
    reference = json.loads(run.REFERENCE.read_text())
    ref = reference[" ".join(argv)]
    good = {"argv": argv, "code": 0, "module": str(run.SRC / "sumsetvc" / "cli.py"),
            "recorded": expected, "recorded_sha256": ref["recorded_sha256"],
            "report": {"instances_checked": expected, "violations": [], "extremes": ref["extremes"]}}
    assert run.check_scan(good, expected, reference) == []
    extremes = ref["extremes"]
    changed = dict(good, report=dict(good["report"], extremes=dict(extremes, lhs=extremes["lhs"] + 1)))
    assert run.check_scan(changed, expected, reference)
    assert run.check_scan(dict(good, recorded_sha256="0" * 64), expected, reference)
    assert run.check_scan(dict(good, recorded=expected - 1), expected, reference)
    assert run.check_scan(dict(good, code=1), expected, reference)
    short = dict(good, report=dict(good["report"], instances_checked=expected - 1))
    assert run.check_scan(short, expected, reference)


# Kernels that return wrong values yet break no inequality and leave the
# reports' `violations` and `extremes` as recorded: only the per-instance
# result check can catch them.
WRONG_KERNELS = {
    "int_deg is always 0": ("families-n4", "interpolation.py", "def int_deg(*args, **kwargs):\n    return 0\n"),
    "rank undercounts above 2": ("clp-psums", "linalg.py", (
        "_rank = rank\n\n\ndef rank(*args, **kwargs):\n"
        "    value = _rank(*args, **kwargs)\n    return value - 1 if value > 2 else value\n")),
}


@pytest.mark.parametrize("wrong", list(WRONG_KERNELS))
def test_wrong_kernel_fails_the_benchmark(tmp_path, wrong):
    workload, module, patch = WRONG_KERNELS[wrong]
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "sumsetvc" / module, "a") as fh:
        fh.write("\n\n" + patch)
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    failures = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    assert failures and all(line.endswith("instance results differ from the recorded reference")
                            for line in failures), failures


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
