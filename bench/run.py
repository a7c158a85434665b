"""fedkit round benchmark: whole-round numbers, and per-layer numbers from a
separately traced run.

    python3 bench/run.py --workload tcp_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each experiment runs in a fresh worker process (``worker.py``), so peak
RSS is per experiment and no state carries over. A run repeats the
workload's experiment for ``--seconds`` (and at least until the round-time
p90 has ten samples beyond it), then checks every experiment against a
reference simulation outside the timed region. ``--trace 0`` reports the
end-to-end metrics of untraced experiments; ``--trace 1`` alternates
untraced and traced experiments and reports the per-layer metrics plus the
tracing overhead. Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object with the result.

``--smoke`` runs every workload at toy size in both modes and checks that
every declared metric is emitted with its unit and every correctness check
passes.
"""
from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

from hooks import ROOT, import_fedkit, model_digest
from workloads import WORKLOADS, config_document, config_text, fault_free

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

MIN_ROUND_SAMPLES = 100  # so that ten round times lie beyond p90
MIN_EXPERIMENTS = {("full", 0): 3, ("full", 1): 2, ("smoke", 0): 2, ("smoke", 1): 1}
START_LIMIT_SECONDS = 110.0  # no experiment starts later; a run must end within 180 s
EXPERIMENT_TIMEOUT_SECONDS = 45.0
# End-to-end metrics printed with the others but left out of BENCHMARK.json:
# on a shared host their run-to-run spread follows other tenants' disk and
# CPU load more than the code (README.md), so no regression bound holds them.
PRINTED_ONLY = {"run_s": "s", "round_ms.p90": "ms"}


def run_experiment(job: dict, timeout: float) -> dict:
    """One experiment in a fresh worker process; a failure becomes a result."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group: worker plus its client process
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"experiment exceeded {timeout:.0f} s"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the worker left behind
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"worker exited with {proc.returncode}"}
    return json.loads(lines[-1])


def reference_model(fedkit, document: dict, work: str) -> str:
    """Digest of the final model of the fault-free simulation of ``document``,
    or why there is none; no experiment's model matches the latter."""
    from fedkit.config import parse_config

    reference = fault_free(document)
    reference["checkpoint_path"] = os.path.join(work, "reference.json")
    parsed = parse_config(config_text(reference))
    scenario = parsed.scenario or fedkit.SimScenario(federation=parsed.federation)
    try:
        report = fedkit.simulate(scenario)
    except Exception as exc:  # a diverging config fails every experiment, not the benchmark
        return f"reference simulation raised {type(exc).__name__}: {exc}"
    if report.status != "completed":
        return f"reference simulation {report.status}: {report.diagnosis}"
    return model_digest(report.final_global)


def _enough(runs: list, trace: int, size: str) -> bool:
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    least = MIN_EXPERIMENTS[(size, trace)]
    if len(untraced) < least or (trace and len(traced) < least):
        return False
    samples = sum(max(len(r.get("boundaries", [])) - 1, 0) for r in untraced)
    return trace or size == "smoke" or samples >= MIN_ROUND_SAMPLES


def _majority(values: list):
    return collections.Counter(values).most_common(1)[0][0] if values else None


def check(runs: list, expected_model: str, runtime: str) -> None:
    """Attach to each run the list of correctness checks it failed.

    Every run must end with the reference model, and every run of one
    config (traced or not) must encode the same bytes apart from the digits
    of measured training times; simulator runs must also repeat virtual
    time, totals and round records exactly.
    """
    ok = [r for r in runs if r["ok"]]
    for r in ok:
        r["fixed_bytes"] = r["wire_bytes"] - r["timing_bytes"]
    wire = _majority([r["fixed_bytes"] for r in ok])
    repeat = _majority([r.get("sim_digest") for r in ok])
    for r in runs:
        problems = [] if r["ok"] else [r["error"]]
        if r["ok"]:
            if len(r["boundaries"]) != r["rounds"]:
                problems.append(f"{len(r['boundaries'])} round boundaries for {r['rounds']} rounds")
            if r["model"] != expected_model:
                problems.append("final model differs from the fault-free simulation")
            if r["fixed_bytes"] != wire:
                problems.append(f"wire bytes apart from train times {r['fixed_bytes']} "
                                f"differ from {wire}")
            if runtime == "sim" and r["sim_digest"] != repeat:
                problems.append("virtual time, totals or round records did not repeat")
        r["problems"] = problems


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(good: list, rounds: int) -> dict:
    samples = [
        (later - earlier) * 1e3
        for r in good
        for earlier, later in zip(r["boundaries"], r["boundaries"][1:])
    ]
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else _median(samples)
    return {
        "run_s": _median([r["run_s"] for r in good]),
        "setup_s": _median([r["boundaries"][0] for r in good]),
        "round_ms.p50": _median(samples),
        "round_ms.p90": p90,
        "wire_bytes_per_round": good[0]["wire_bytes"] / rounds if good else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
    }, len(samples)


def per_layer(good_traced: list, good_untraced: list) -> dict:
    keys = good_traced[0]["layers"] if good_traced else {}
    layers = {k: _median([r["layers"][k] for r in good_traced]) for k in keys}
    untraced_s = _median([r["run_s"] for r in good_untraced])
    traced_s = _median([r["run_s"] for r in good_traced])
    both = untraced_s and traced_s
    layers["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0) if both else 0.0
    return layers


def checkpoint_fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mountinfo."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount_point = fields[4]
                fs = fields[fields.index("-") + 1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, fs_type = mount_point, fs
    except (OSError, ValueError, IndexError):
        pass
    return fs_type


def measure(fedkit, spec: dict, name: str, seed: int, seconds: float, trace: int,
            size: str) -> dict:
    """Run one benchmark run; returns the result object and report lines."""
    runtime = WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        document = config_document(name, seed, size, os.path.join(work, "checkpoint.json"))
        job = {"runtime": runtime, "config": config_text(document),
               "trace_path": os.path.join(WORK_ROOT, f"{name}-trace.json")}
        kinds = itertools.cycle([False, True] if trace else [False])
        runs: list = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # Start another experiment only if it is expected to end in time.
            expected_end = elapsed + (elapsed / len(runs) if runs else 0.0)
            if elapsed >= START_LIMIT_SECONDS or (
                expected_end > seconds and _enough(runs, trace, size)
            ):
                break
            traced = next(kinds)
            timeout = min(EXPERIMENT_TIMEOUT_SECONDS, START_LIMIT_SECONDS + 20.0 - elapsed)
            runs.append(dict(run_experiment(dict(job, trace=traced), timeout), traced=traced))
        expected = reference_model(fedkit, document, work)
        fs_type = checkpoint_fs_type(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check(runs, expected, runtime)
    rounds = document["rounds"]
    good = [r for r in runs if not r["problems"]]
    good_untraced = [r for r in good if not r["traced"]]
    e2e, samples = end_to_end(good_untraced, rounds)
    attempted = rounds * len(runs)
    failed = rounds * (len(runs) - len(good))
    if trace:
        values, declared = per_layer([r for r in good if r["traced"]], good_untraced), "per_layer"
    else:
        values, declared = e2e, "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[declared]}
    lines = [
        f"workload {name}, seed {seed}, size {size}: {len(runs)} experiments "
        f"({len(runs) - sum(r['traced'] for r in runs)} untraced, "
        f"{sum(r['traced'] for r in runs)} traced); round times: {samples} samples "
        f"from untraced experiments",
    ]
    for number, r in enumerate(runs):
        for problem in r["problems"]:
            lines.append(f"  FAILED experiment {number}: {problem}")
    for key, metric in metrics.items():
        lines.append(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        for key, unit in PRINTED_ONLY.items():
            lines.append(f"  {key:<40} {values[key]:.6g} {unit} (not in BENCHMARK.json)")
        lines.append(f"  {'failed_ratio':<40} {failed / attempted:.6g} fraction "
                     f"({failed} of {attempted} scheduled rounds)")
    lines.append(
        f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, checkpoint filesystem {fs_type}, "
        f"loopback only, no link shaping"
    )
    result = {
        "correct": bool(good) and len(good) == len(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "lines": lines, "computed": sorted(values)}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def smoke(fedkit, spec: dict) -> int:
    """Every workload at toy size, both modes: metrics present, checks pass."""
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            outcome = measure(fedkit, spec, name, seed=1, seconds=0.0, trace=trace, size="smoke")
            result = outcome["result"]
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = sorted(declared) if trace else sorted({**declared, **PRINTED_ONLY})
            problems = []
            if expected != outcome["computed"]:
                problems.append(f"computed {outcome['computed']}, expected {expected}")
            if emitted != declared:
                problems.append("emitted units differ from BENCHMARK.json")
            for key in [] if trace else [*PRINTED_ONLY, "failed_ratio"]:
                if not any(line.split()[0] == key for line in outcome["lines"][1:]):
                    problems.append(f"{key} is not printed")
            if not result["correct"] or result["failed"]:
                problems.append(f"correctness: {result['failed']} of {result['attempted']} "
                                f"rounds failed")
            print("\n".join(outcome["lines"]))
            verdict = "PASS" if not problems else "FAIL"
            print(f"{verdict} smoke {name} trace={trace}" + "".join(f"; {p}" for p in problems))
            failures += bool(problems)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    fedkit = import_fedkit()
    spec = load_spec()
    if args.smoke:
        return smoke(fedkit, spec)
    outcome = measure(fedkit, spec, args.workload, args.seed, args.seconds, args.trace, "full")
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
