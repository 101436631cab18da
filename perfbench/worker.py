"""Benchmark-owned child process: set-up probe, traced CLI job and the
sweep-warm client.

    python3 perfbench/worker.py probe WORKLOAD SEED
    python3 perfbench/worker.py cli SUMMARY.json <psesk CLI arguments>
    python3 perfbench/worker.py sweep SEED SECONDS TRACE RESULT.json

``probe`` does everything a workload does before its first timed job
(import psesk, generate the seeded inputs, and for sweep-warm build the
M = 100 overlap table), prints the perf_counter time at which it was ready
and the versions it loaded, and exits.  ``cli`` is the traced stand-in for
``python -m psesk.cli``: it times the import, wraps every traced function
(see spans.TRACED), runs ``psesk.cli.main`` on the arguments, writes the
job's span summary to SUMMARY.json and exits with the CLI's exit code.
``sweep`` does the probe's set-up and then runs sweep-warm jobs in whole
passes, one at a time, until the jobs have run for SECONDS; with TRACE = 1
it alternates untraced and traced passes.  It writes job timings, check
results and span summaries to RESULT.json.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time

from spans import SETUP_JOB, Recorder


def import_psesk(module: str, recorder: Recorder | None):
    """Import ``module``; with a recorder, time it as the import layer and
    wrap the traced functions of the modules it loaded."""
    start = time.perf_counter()
    loaded = importlib.import_module(module)
    if recorder is not None:
        recorder.add_span("import.psesk", start, time.perf_counter())
        recorder.install()
    return loaded


def setup(workload: str, seed: int, recorder: Recorder | None = None):
    """Import psesk and build the workload's seeded inputs."""
    import_psesk("psesk" if workload == "sweep-warm" else "psesk.cli", recorder)
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    if workload in workloads.COLD:
        return workloads.COLD[workload](rng)
    from psesk import overlap, states

    inputs = [(ne, no, states.SlaterState(rows)) for ne, no, rows in workloads.sweep_specs(rng)]
    overlap.ho_overlap_table(workloads.SWEEP_BASIS)
    return inputs


def run_cli(summary_path: str, cli_args: list[str]) -> int:
    recorder = Recorder()
    recorder.job = 0
    cli = import_psesk("psesk.cli", recorder)
    try:
        return cli.main(cli_args)
    finally:
        with open(summary_path, "w") as fh:
            json.dump(recorder.summarize()[0], fh)


def sweep_job(state, thetas) -> dict:
    """One notebook-style analysis of a state: the timed library call chain."""
    from psesk import chiral, entanglement

    data = entanglement.pses_sweep(state, thetas)
    ps = chiral.parity_sort(state)
    outcome = {"energies": data.energies, "entropy": data.entropy,
               "parity": (ps.n_even, ps.n_odd), "winding": None, "closings": [],
               "flat_bands": None}
    if ps.n_even == ps.n_odd:
        try:
            outcome["winding"] = chiral.winding_scan(ps)[0]
        except chiral.GapClosed:
            pass
        outcome["closings"] = chiral.detect_gap_closings(ps)
    else:
        outcome["flat_bands"] = chiral.flat_band_count(ps)
    return outcome


def run_sweep(seed: int, seconds: float, trace: bool, result_path: str) -> None:
    recorder = Recorder() if trace else None
    inputs = setup("sweep-warm", seed, recorder)
    ready = time.perf_counter()

    import numpy as np

    from checks import check_sweep
    from workloads import SWEEP_ANGLES

    if recorder is not None:
        recorder.uninstall()
    thetas = np.linspace(0.0, 2.0 * math.pi, SWEEP_ANGLES, endpoint=False)
    rng = np.random.default_rng([seed, 1])
    jobs = []
    busy = 0.0
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        if traced:
            recorder.install()
        for k in rng.permutation(len(inputs)).tolist():
            ne, no, state = inputs[k]
            job_id = len(jobs)
            if recorder is not None:
                recorder.job = job_id
            start = time.perf_counter()
            try:
                outcome = sweep_job(state, thetas)
                end = time.perf_counter()
                problems = check_sweep(ne, no, outcome)
            except Exception as exc:  # any library error is a failed job
                end = time.perf_counter()
                problems = [f"{type(exc).__name__}: {exc}"]
            busy += end - start
            jobs.append({"id": job_id, "input": k, "pass": passes, "traced": traced,
                         "start": start, "end": end, "problems": problems})
        if traced:
            recorder.uninstall()
        passes += 1
        if busy >= seconds and (not trace or passes % 2 == 0):
            break

    result = {"ready": ready, "passes": passes, "jobs": jobs}
    if recorder is not None:
        summaries = recorder.summarize()
        result["setup_trace"] = summaries.pop(SETUP_JOB, None)
        result["trace"] = {str(j): s for j, s in summaries.items()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def versions() -> dict:
    """Versions of what a job runs on, as loaded in this process."""
    import platform

    import numpy as np
    import scipy

    import psesk

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "psesk": psesk.__version__, "blas": blas_name}


def main(argv: list[str]) -> int:
    if argv[0] == "probe":
        setup(argv[1], int(argv[2]))
        ready = time.perf_counter()
        print(json.dumps({"ready": ready, "versions": versions()}))
        return 0
    if argv[0] == "cli":
        return run_cli(argv[1], argv[2:])
    if argv[0] == "sweep":
        run_sweep(int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
        return 0
    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
