#!/usr/bin/env python3
"""psesk benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of wells-cold, gallery-cold, sweep-warm, or ``all`` for the
three in turn.  Run from the repository root (or any checkout of it); the
package is taken from ``src/`` on PYTHONPATH, as the tier-1 tests do.

Load shape: a closed loop with one client and one job at a time.  Cold
workloads start one ``python -m psesk.cli`` process per job; sweep-warm is
one long-lived process making library calls.  A run measures whole passes
over the seeded job list until its jobs have run for ``--seconds``, so every
run does the same mix of work.  Every job's output is checked (checks.py);
a job fails on an unexpected exit code, a traceback, an exception or a
failed check.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced ones and prints the per-layer metrics of the
traced jobs (per-job means) and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Run the benchmark's self-tests with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # at most nproc; one client runs one job at a time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("PSESK_THREADS", None)  # angle sweeps stay serial

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("wells-cold", "gallery-cold", "sweep-warm")
# Set-up is sampled several times, spread over the run, because the CPU
# speed of a shared host can drift by tens of percent within a minute.
COLD_SETUP_PROBES = 5
TAIL_BEYOND = 10
# counts derived from call shapes and output sizes rather than timed
COMPUTED = ("overlap.gramian_flops", "phasespace.wigner_cells",
            "chiral.block_determinants_angles", "cli.rows_written", "cli.bytes_written")


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a job failing)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int, float]:
    """Run a child to completion: (start, end, exit code, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, scratch: Path) -> tuple[float, dict]:
    """Set-up time of a fresh probe process (spawn until inputs are ready)
    and the versions it loaded."""
    out, err = scratch / "probe.out", scratch / "probe.err"
    start, _, code, _ = spawn(
        [sys.executable, str(HERE / "worker.py"), "probe", workload, str(seed)], out, err)
    if code != 0:
        raise BenchmarkError(f"set-up probe failed ({code}): {err.read_text()[-500:]}")
    probe = json.loads(out.read_text())
    return probe["ready"] - start, probe["versions"]


def output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ------------------------------------------------------------------ cold runs


def run_cold_job(job, pass_dir: Path, index: int, traced: bool) -> dict:
    from checks import check_cold

    out = pass_dir / f"{index:02d}-{job.label}"
    logs = pass_dir / f"{index:02d}.log"
    logs.mkdir(parents=True)
    summary_path = logs / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "worker.py"), "cli", str(summary_path)]
    else:
        argv = [sys.executable, "-m", "psesk.cli"]
    argv += [*job.argv, "--out", str(out)]
    start, end, code, rss = spawn(argv, logs / "stdout", logs / "stderr")
    problems = check_cold(job, out, code, (logs / "stdout").read_text(),
                          (logs / "stderr").read_text())
    record = {"label": job.label, "input": index, "traced": traced, "start": start,
              "end": end, "rss_mb": rss, "problems": problems}
    if traced:
        if summary_path.is_file():
            record["trace"] = json.loads(summary_path.read_text())
            record["trace"]["counts"]["cli.bytes_written"] = (
                output_bytes(out) if out.is_dir() else 0)
        else:
            record["problems"] = problems + ["traced job wrote no span summary"]
    return record


def run_cold(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    jobs = workloads.COLD[workload](rng)
    # probes before the first job, between jobs of the first pass, and after it
    probe_slots = {round(k * len(jobs) / (COLD_SETUP_PROBES - 1))
                   for k in range(COLD_SETUP_PROBES)}
    setup = []
    records = []
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        pass_dir = scratch / f"pass{passes}"
        for position, k in enumerate(rng.permutation(len(jobs)).tolist() + [None]):
            if passes == 0 and position in probe_slots:
                probe_s, versions = measure_setup(workload, seed, scratch)
                setup.append(probe_s)
            if k is not None:
                records.append(run_cold_job(jobs[k], pass_dir, k, traced))
        shutil.rmtree(pass_dir)
        passes += 1
        if busy(records) >= seconds and (not trace or passes % 2 == 0):
            break
    return {"setup": setup, "versions": versions, "records": records, "passes": passes,
            "peak_rss_mb": max(r["rss_mb"] for r in records if not r["traced"])}


# ------------------------------------------------------------------ warm runs


def run_warm(seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    before, versions = measure_setup("sweep-warm", seed, scratch)
    result_path = scratch / "sweep.json"
    start, _, code, rss = spawn(
        [sys.executable, str(HERE / "worker.py"), "sweep", str(seed), repr(seconds),
         "1" if trace else "0", str(result_path)],
        scratch / "sweep.out", scratch / "sweep.err")
    if code != 0 or not result_path.is_file():
        raise BenchmarkError(
            f"sweep worker failed ({code}): {(scratch / 'sweep.err').read_text()[-800:]}")
    result = json.loads(result_path.read_text())
    setup = [before, result["ready"] - start, measure_setup("sweep-warm", seed, scratch)[0]]
    trace_by_job = result.get("trace", {})
    records = []
    for job in result["jobs"]:
        record = {"label": f"state{job['input']}", "input": job["input"],
                  "traced": job["traced"], "start": job["start"], "end": job["end"],
                  "problems": job["problems"]}
        if job["traced"]:
            record["trace"] = trace_by_job[str(job["id"])]
        records.append(record)
    return {"setup": setup, "versions": versions, "records": records,
            "passes": result["passes"], "peak_rss_mb": rss,
            "setup_trace": result.get("setup_trace")}


# -------------------------------------------------------------------- metrics


def busy(records: list[dict]) -> float:
    return sum(r["end"] - r["start"] for r in records)


def throughput(records: list[dict]) -> float:
    return sum(1 for r in records if not r["problems"]) / busy(records)


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond it) for the highest percentile that
    leaves at least TAIL_BEYOND jobs above it (the maximum if there are too
    few jobs)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def job_walls(records: list[dict]) -> list[float]:
    """One wall time per distinct job: the median over the passes that ran it.

    A pass runs every job once, so the count of jobs behind each percentile
    does not change when a run happens to fit one pass more or less.
    """
    walls: dict[str, list[float]] = {}
    for r in records:
        walls.setdefault(r["input"], []).append(r["end"] - r["start"])
    return [statistics.median(w) for w in walls.values()]


def end_to_end(run: dict) -> tuple[dict, dict]:
    records = run["records"]
    walls = job_walls(records)
    value, pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(run["setup"]),
        "jobs_per_s": throughput(records),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": value,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {"failed_frac": (sum(1 for r in records if r["problems"]) / len(records), "1"),
             "job_tail_percentile": (pct, "%"), "job_tail_jobs_beyond": (beyond, "count"),
             "jobs": (len(records), "count"), "passes": (run["passes"], "count"),
             "setup_samples_s": (run["setup"], "s")}
    return metrics, extra


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them ("end_to_end"
    or "per_layer"); the printed metrics must be exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def per_layer(run: dict) -> tuple[dict, list[str]]:
    """Per-job means over traced jobs, the accounting check, and the overhead."""
    from spans import LAYERS, account

    traced = [r for r in run["records"] if r["traced"]]
    plain = [r for r in run["records"] if not r["traced"]]
    n = len(traced)
    funcs: dict[str, dict] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    other = 0.0
    problems = []
    for r in traced:
        summary = r["trace"]
        job_other, issues = account(summary, r["start"], r["end"])
        other += job_other
        problems += [f"{r['label']}: {p}" for p in issues]
        for name, stats in summary["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += stats[key]
        for layer, value in summary["layers"].items():
            layers[layer] += value
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def fn(name: str, key: str) -> float:
        return funcs.get(name, {}).get(key, 0)

    def sum_fn(prefix: str, names: tuple[str, ...], key: str) -> float:
        return sum(fn(f"{prefix}.{x}", key) for x in names)

    requested = counts.get("chiral.winding_grid_requested", 0)
    totals = {"import.s": layers["import"]}
    totals.update({f"{layer}.self_s": layers[layer] for layer in LAYERS[1:]})
    totals.update({
        "specfun.hyp2f1_calls": fn("specfun.hyp2f1_terminating", "calls"),
        "hobasis.ho_stack_calls": fn("hobasis.ho_stack", "calls"),
        "hobasis.ho_stack_s": fn("hobasis.ho_stack", "s"),
        "states.slater_state_calls": fn("states.SlaterState.__post_init__", "calls"),
        "states.slater_state_s": fn("states.SlaterState.__post_init__", "s"),
        "overlap.table_build_calls": fn("overlap.table_build", "calls"),
        "overlap.table_build_s": fn("overlap.table_build", "s"),
        "overlap.rotated_overlap_calls": fn("overlap.rotated_overlap", "calls"),
        "overlap.rotated_overlap_self_s": fn("overlap.rotated_overlap", "self_s"),
        "overlap.gramian_flops": counts.get("overlap.gramian_flops", 0),
        "entanglement.pses_sweep_s": fn("entanglement.pses_sweep", "s"),
        "entanglement.pses_sweep_angles": counts.get("entanglement.pses_sweep_angles", 0),
        "entanglement.schmidt_values_calls": fn("entanglement.schmidt_values", "calls"),
        "entanglement.schmidt_values_self_s": fn("entanglement.schmidt_values", "self_s"),
        "entanglement.entropy_self_s": fn("entanglement.entanglement_entropy", "self_s"),
        "chiral.parity_sort_s": fn("chiral.parity_sort", "s"),
        "chiral.block_determinants_calls": fn("chiral.block_determinants", "calls"),
        "chiral.block_determinants_angles": counts.get("chiral.block_determinants_angles", 0),
        "chiral.block_determinants_self_s": fn("chiral.block_determinants", "self_s"),
        "chiral.refine_calls": counts.get("chiral.refine_calls", 0),
        "chiral.winding_scan_s": fn("chiral.winding_scan", "s"),
        "chiral.detect_gap_closings_s": fn("chiral.detect_gap_closings", "s"),
        "potentials.bound_states_calls": fn("potentials.bound_states", "calls"),
        "potentials.bound_states_s": fn("potentials.bound_states", "s"),
        "potentials.hamiltonian_matrix_s": fn("potentials.hamiltonian_matrix", "s"),
        "phasespace.wigner_of_state_s": fn("phasespace.wigner_of_state", "s"),
        "phasespace.wigner_cells": counts.get("phasespace.wigner_cells", 0),
        "cli.command_s": sum_fn("cli", ("cmd_spectrum", "cmd_winding", "cmd_entropy_surface",
                                        "cmd_wigner", "cmd_solve_potential",
                                        "cmd_frft_check"), "s"),
        "cli.build_state_s": fn("cli.build_state", "s"),
        "cli.write_s": sum_fn("cli", ("write_table", "write_sidecar"), "s"),
        "cli.rows_written": counts.get("cli.rows_written", 0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "other.s": other,
        "trace.job_wall_s": sum(r["end"] - r["start"] for r in traced),
    })
    metrics = {name: value / n for name, value in totals.items()}
    metrics["chiral.winding_grid_ratio"] = (
        counts.get("chiral.winding_grid_used", 0) / requested if requested else 0.0)
    untraced_rate, traced_rate = throughput(plain), throughput(traced)
    metrics["trace.overhead_jobs_per_s"] = untraced_rate - traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics, problems


# ---------------------------------------------------------------- environment


def git_sha() -> str | None:
    """HEAD from .git without running git (the checkout may not be a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(versions: dict) -> dict:
    return {"git_sha": git_sha(), **versions, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "PSESK_THREADS": os.environ.get("PSESK_THREADS")}


# ----------------------------------------------------------------------- main


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        if workload == "sweep-warm":
            run = run_warm(seed, seconds, trace, scratch)
        else:
            run = run_cold(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [r for r in run["records"] if r["problems"]]
    result = {"workload": workload, "seed": seed, "versions": run["versions"],
              "attempted": len(run["records"]),
              "failed": len(failed),
              "failures": [(r["label"], r["problems"]) for r in failed[:10]]}
    if trace:
        result["metrics"], result["accounting_problems"] = per_layer(run)
        result["units"] = declared_units("per_layer")
        if run.get("setup_trace"):
            result["setup_layers"] = run["setup_trace"]["layers"]
    else:
        result["metrics"], result["extra"] = end_to_end(run)
        result["units"] = declared_units("end_to_end")
    if set(result["metrics"]) != set(result["units"]):
        raise BenchmarkError("computed metrics differ from those BENCHMARK.json declares: "
                             f"{sorted(set(result['metrics']) ^ set(result['units']))}")
    result["correct"] = not failed and not result.get("accounting_problems")
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): {result['attempted']} jobs, "
          f"{result['failed']} failed")
    for name, value in result["metrics"].items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:38s} {value:16.6g} {result['units'][name]}{label}")
    for name, (value, unit) in result.get("extra", {}).items():
        print(f"  {name:38s} {value} {unit}")
    if result.get("setup_layers"):
        layers = {k: round(v, 4) for k, v in result["setup_layers"].items() if v}
        print(f"  set-up self time by layer (s): {layers}")
    for label, problems in result["failures"]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    for problem in result.get("accounting_problems", []):
        print(f"  ACCOUNTING {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psesk" / "__init__.py").is_file():
        print(f"perfbench: no psesk package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for result in results:
        report(result)
    print("environment " + json.dumps(environment(results[-1]["versions"]), sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = results[0]["units"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
        units = {f"{r['workload']}.{k}": u for r in results for k, u in r["units"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
