#!/usr/bin/env python3
"""The sumsetvc benchmark: cold-process `sumsetvc verify` scans, checked and timed.

Run from the repository root:

    python3 bench/run.py --workload clp-psums --seed 1 --seconds 60 --trace 0

Each scan of a workload runs in a fresh interpreter through bench/entry.py,
exactly as a CLI user would start it, with `--workers 1 --no-progress`. A
round is one pass over the workload's scans. With `--trace 0` the run launches
scans round after round, one process at a time, while the next one is
expected to end within `--seconds`, and prints the end-to-end metrics. With `--trace 1` pairs of an untraced and a traced round
give the per-layer metrics declared in BENCHMARK.json; bench/layers.json maps
each to the end-to-end metric and workloads it should move. Every report, and
the result of every instance, is checked against bench/reference.json. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--record` reruns every scan of every workload over the seed pool and
rewrites bench/reference.json; see bench/README.md for when that is allowed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_build" / "bench"

COMMON = ["--workers", "1", "--no-progress"]
SEED_POOL = 16  # scan seeds 1..16 have recorded references
SETUP_PROBES = 8
RUN_BUDGET_S = 150.0  # every scan is killed past this, well inside 180 s

# workload -> scans as (theorem, n, p, samples, smoke samples). samples None
# is an exhaustive scan, which the smoke scale runs at n = 3.
WORKLOADS = {
    "clp-psums": [("clp_bound", 8, 2, 200, 20), ("psums", 5, 3, 150, 15), ("clp_bound", 5, 3, 50, 5)],
    "families-n4": [("vc_monotone", 4, None, None, None), ("intdeg_le_vc", 4, None, None, None)],
}


def scan_seed(seed: int, round_index: int) -> int:
    """Scan seed of one round: the benchmark seed picks where in the pool of
    recorded seeds the run starts, and each later round takes the next one."""
    return (seed - 1 + round_index) % SEED_POOL + 1


def workload_scans(workload: str, seed: int, smoke: bool) -> list[tuple[list[str], int]]:
    """(CLI argv, instance count it must report) for each scan of a round."""
    scans = []
    for theorem, n, p, samples, smoke_samples in WORKLOADS[workload]:
        argv = ["verify", "--theorem", theorem]
        if samples is None:
            n = 3 if smoke else n
            argv += ["--n", str(n), "--mode", "exhaustive"]
            expected = (1 << (1 << n)) - 1
        else:
            expected = smoke_samples if smoke else samples
            argv += ["--n", str(n), "--p", str(p), "--mode", "random",
                     "--samples", str(expected), "--seed", str(seed)]
        scans.append((argv + COMMON, expected))
    return scans


def read_first_line(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.readline().strip()
    except OSError:
        return None


def steal_s() -> float | None:
    """CPU seconds the hypervisor gave to others while this machine's
    virtual CPUs wanted to run, summed over CPUs since boot."""
    fields = (read_first_line("/proc/stat") or "").split()
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_header() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": read_first_line("/proc/loadavg"),
    }


class Runner:
    """Launches scan processes one at a time and collects what each reports."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.launched = 0

    def launch(self, argv: list[str], trace: bool = False) -> dict:
        tag = f"p{self.launched:03d}"
        self.launched += 1
        stamp, out = self.work / f"{tag}.stamp", self.work / f"{tag}.out"
        trace_prefix = str(self.work / tag) if trace else "-"
        cmd = [sys.executable, str(BENCH / "entry.py"), str(stamp), trace_prefix, *argv]
        with open(out, "wb") as stdout, open(self.work / f"{tag}.err", "wb") as stderr:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - spawned), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "argv": argv,
            "code": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0,
            "trace": trace_prefix if trace else None,
        }
        try:
            times = json.loads(stamp.read_text())
        except (OSError, ValueError):
            return result
        result["module"] = times["module"]
        result["recorded"] = times["recorded"]
        result["recorded_sha256"] = times["recorded_sha256"]
        result["setup_s"] = times["ready"] - spawned
        result["wall_s"] = times["end"] - times["ready"]
        try:
            result["report"] = json.loads(out.read_text())
        except (OSError, ValueError):
            pass
        return result


def check_scan(result: dict, expected: int, reference: dict) -> list[str]:
    """Every way the scan's output differs from a passing, recorded run."""
    label = " ".join(result["argv"])
    if result["code"] != 0:
        return [f"{label}: exit status {result['code']}"]
    module = result.get("module")
    if module is None or not Path(module).resolve().is_relative_to(SRC.resolve()):
        return [f"{label}: ran {module}, not the package under {SRC}"]
    report = result.get("report")
    if report is None:
        return [f"{label}: no JSON report on standard output"]
    problems = []
    if report.get("instances_checked") != expected:
        problems.append(f"{label}: instances_checked {report.get('instances_checked')} != {expected}")
    if report.get("violations") != []:
        problems.append(f"{label}: violations reported")
    if result["recorded"] != expected:
        problems.append(f"{label}: {result['recorded']} instance results recorded, not {expected}")
    ref = reference.get(label)
    if ref is None:
        problems.append(f"{label}: no reference recorded")
        return problems
    if report.get("extremes") != ref["extremes"]:
        problems.append(f"{label}: extremes differ from the recorded reference")
    if result["recorded_sha256"] != ref["recorded_sha256"]:
        problems.append(f"{label}: instance results differ from the recorded reference")
    return problems


def run_scan(runner: Runner, argv: list[str], expected: int, reference: dict, trace: bool = False) -> dict:
    result = runner.launch(argv, trace)
    result["expected"] = expected
    result["problems"] = check_scan(result, expected, reference)
    return result


def run_round(runner: Runner, scans, reference: dict, trace: bool = False) -> dict:
    results = [run_scan(runner, argv, expected, reference, trace) for argv, expected in scans]
    return {
        "results": results,
        "problems": [p for r in results for p in r["problems"]],
        "attempted": sum(r["expected"] for r in results),
        "failed": sum(r["expected"] for r in results if r["problems"]),
        "instances": sum(r.get("report", {}).get("instances_checked", 0) for r in results),
        "wall_s": sum(r.get("wall_s", 0.0) for r in results),
    }


def describe(name: str, unit: str, values: list[float]) -> str:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return f"{name}: median {mid:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def setup_samples(runner: Runner, problems: list[str]) -> list[float]:
    """Import-only CLI calls; the first is unmeasured so bytecode is cached."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        probe = runner.launch(["verify", "--emit-schema"])
        if probe["code"] != 0 or "setup_s" not in probe:
            problems.append(f"setup probe: exit status {probe['code']}")
        elif i:
            samples.append(probe["setup_s"])
    return samples


def timed(seconds: float, step, period: int = 1) -> list:
    """step(0), step(1), ... for at least `period` calls, and then while the
    next call, if it takes as long as the call `period` before it, would end
    within `seconds`."""
    done, took = [], []
    started = time.monotonic()
    while len(done) < period or time.monotonic() - started + took[-period] <= seconds:
        began = time.monotonic()
        done.append(step(len(done)))
        took.append(time.monotonic() - began)
    return done


def end_to_end(runner: Runner, scans_of, reference: dict, seconds: float) -> tuple[list[str], dict, list[str]]:
    """Every scan process is one sample: process i of the run is scan i % K
    of round i // K, for the K scans of a round. A round's wall and CPU
    figures add up the median of each of its K scans, so a run may stop
    between the scans of a round and every process still counts."""
    problems: list[str] = []
    setups = setup_samples(runner, problems)
    first = scans_of(0)
    kinds = len(first)

    def one_scan(i: int) -> dict:
        argv, expected = scans_of(i // kinds)[i % kinds]
        return run_scan(runner, argv, expected, reference)

    results = timed(seconds, one_scan, period=kinds)
    setups += [r["setup_s"] for r in results if "setup_s" in r]
    setups = setups or [0.0]
    lines, walls, cpus = [], [], []
    for k, (argv, expected) in enumerate(first):
        of_kind = results[k::kinds]
        wall = [r["wall_s"] for r in of_kind if "wall_s" in r] or [0.0]
        cpu = [r["cpu_s"] for r in of_kind]
        walls.append(statistics.median(wall))
        cpus.append(statistics.median(cpu))
        label = f"scan {k + 1} of {kinds} ({argv[2]}, {expected} instances)"
        lines += [describe(f"{label} wall", "s", wall), describe(f"{label} cpu", "s", cpu)]
    per_round = sum(expected for _, expected in first)
    rate = per_round / sum(walls) if sum(walls) > 0 else 0.0
    peak = max(r["rss_mib"] for r in results)
    attempted = sum(r["expected"] for r in results)
    failed = sum(r["expected"] for r in results if r["problems"])
    problems += [p for r in results for p in r["problems"]]
    lines = [
        f"instances_per_s: {rate:.6g} 1/s ({per_round} instances of a round / sum of per-scan median walls)",
        f"cpu_s: {sum(cpus):.6g} s (sum of per-scan median CPU seconds)",
        *lines,
        describe("setup_s", "s", setups),
        f"peak_rss_mb: max {peak:.6g} MiB over {len(results)} scan processes",
        f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} instances, {len(results)} scans)",
    ]
    metrics = {
        "instances_per_s": {"value": rate, "unit": "1/s"},
        "cpu_s": {"value": sum(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }
    return lines, {"attempted": attempted, "failed": failed, "metrics": metrics}, problems


def per_layer(runner: Runner, scans_of, reference: dict, seconds: float) -> tuple[list[str], dict, list[str]]:
    """Pairs of an untraced and a traced round on the same scans."""
    runner.launch(["verify", "--emit-schema"])  # cache bytecode before timing
    pairs = timed(seconds, lambda i: (
        run_round(runner, scans_of(i), reference),
        run_round(runner, scans_of(i), reference, trace=True),
    ))
    rounds = [rnd for pair in pairs for rnd in pair]
    plain_wall = sum(p["wall_s"] for p, _ in pairs)
    traced_wall = sum(t["wall_s"] for _, t in pairs)
    problems = [p for rnd in rounds for p in rnd["problems"]]
    dumps = [r["trace"] for _, t in pairs for r in t["results"] if "wall_s" in r]
    layers, spans = tracer.summarize(dumps) if dumps else ({}, 0)

    def layer(span: str) -> dict:
        return layers.get(span, {"calls": 0, "self_s": 0.0})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Times and counts are means per traced round, so runs of different
    # lengths compare; ratios are taken over all traced rounds.
    metrics = {}
    for spec in json.loads(SPEC.read_text())["per_layer"]:
        name = spec["name"]
        span, field = name.rsplit(".", 1)
        if name == "verify.instances":
            value = sum(t["instances"] for _, t in pairs) / len(pairs)
        elif name == "trace.coverage":
            value = ratio(sum(e["self_s"] for e in layers.values()), traced_wall)
        elif name == "trace.overhead_frac":
            value = ratio(traced_wall, plain_wall) - 1.0
        elif field == "useful_ratio":
            value = ratio(layer(span).get("useful", 0), layer(span).get("adds", 0))
        elif field == "repeat_ratio":
            value = ratio(layer(span).get("repeats", 0), layer(span)["calls"])
        else:
            value = layer(span).get(field, 0) / len(pairs)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"traced: {spans} spans in {len(pairs)} rounds, scan wall {traced_wall:.6g} s traced "
             f"vs {plain_wall:.6g} s untraced"]
    lines += [f"self time {name}: {entry['self_s']:.6g} s over {entry['calls']} calls" for name, entry in ranked]
    summary = {
        "attempted": sum(rnd["attempted"] for rnd in rounds),
        "failed": sum(rnd["failed"] for rnd in rounds),
        "metrics": metrics,
    }
    return lines, summary, problems


def record() -> int:
    """Rerun every scan over the seed pool and rewrite the reference file."""
    reference = {}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(Path(tmp), deadline=time.monotonic() + 3600.0)
        for workload, specs in WORKLOADS.items():
            seeded = any(spec[3] is not None for spec in specs)
            for seed in range(1, SEED_POOL + 1) if seeded else [None]:
                for smoke in (False, True):
                    for argv, expected in workload_scans(workload, seed, smoke):
                        result = runner.launch(argv)
                        report = result.get("report") or {}
                        label = " ".join(argv)
                        if (result["code"] != 0 or report.get("instances_checked") != expected
                                or result.get("recorded") != expected or report.get("violations")):
                            print(f"record: {label} did not pass; nothing written", file=sys.stderr)
                            return 1
                        reference[label] = {"extremes": report["extremes"],
                                            "recorded_sha256": result["recorded_sha256"]}
                        print(f"recorded {label}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> bool:
    """One benchmark run; prints its header, summary and result lines."""
    header = run_header()
    steal_before = steal_s()
    header.update(workload=workload, seed=seed, first_scan_seed=scan_seed(seed, 0),
                  seconds=seconds, trace=int(trace), smoke=smoke)

    def scans_of(round_index: int):
        return workload_scans(workload, scan_seed(seed, round_index), smoke)

    reference = json.loads(REFERENCE.read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(work, deadline=time.monotonic() + RUN_BUDGET_S)
        measure = per_layer if trace else end_to_end
        lines, summary, problems = measure(runner, scans_of, reference, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    header["loadavg_after"] = read_first_line("/proc/loadavg")
    steal_after = steal_s()
    header["steal_s"] = None if None in (steal_before, steal_after) else round(steal_after - steal_before, 2)

    print("header: " + json.dumps(header))
    for line in lines + [f"FAILED {p}" for p in problems]:
        print(line)
    print(json.dumps({"correct": not problems, **summary}), flush=True)
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload in turn, each printing its own result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scans, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true", help="rewrite bench/reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "sumsetvc" / "cli.py").is_file():
        print(f"error: no sumsetvc sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passed = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in workloads]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
