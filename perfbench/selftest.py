"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that corrupted job outputs are counted as failures, that span self
times plus ``other`` add up to the job wall time, that the recorder patches
and restores every binding, and that one seed gives identical inputs and
computed counts.  Real CLI jobs run here, so this takes about ten seconds.
"""

import json
import math
import shutil
import sys
import unittest

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, account  # noqa: E402

SCRATCH = run.OUT / "selftest"


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return float(self.ticks.pop(0))


class SpanArithmetic(unittest.TestCase):
    def nested(self, clock_ticks):
        """Job 0: a(1..10) holds b(2..5), which holds c(3..4), then d(6..8)."""
        rec = Recorder(clock=FakeClock(clock_ticks))
        rec.job = 0
        rec.open("overlap.a")
        rec.open("entanglement.b")
        rec.open("overlap.c")
        rec.close()
        rec.close()
        rec.open("chiral.d")
        rec.close()
        rec.close()
        return rec

    def test_self_times_and_other_sum_to_wall(self):
        rec = self.nested([1, 2, 3, 4, 5, 6, 8, 10])
        summary = rec.summarize()[0]
        fn = summary["functions"]
        self.assertEqual(fn["overlap.a"]["self_s"], 4.0)
        self.assertEqual(fn["entanglement.b"]["self_s"], 2.0)
        self.assertEqual(fn["overlap.c"]["self_s"], 1.0)
        self.assertEqual(fn["chiral.d"]["self_s"], 2.0)
        self.assertEqual(fn["overlap.a"]["s"], 9.0)
        self.assertEqual(summary["layers"]["overlap"], 5.0)
        other, problems = account(summary, 0.0, 12.0)
        self.assertEqual(problems, [])
        self.assertEqual(other, 3.0)
        self.assertEqual(sum(summary["layers"].values()) + other, 12.0)

    def test_recursive_calls_count_inclusive_time_once(self):
        rec = Recorder(clock=FakeClock([0, 1, 3, 4]))
        rec.job = 0
        rec.open("potentials.bound_states")
        rec.open("potentials.bound_states")
        rec.close()
        rec.close()
        stats = rec.summarize()[0]["functions"]["potentials.bound_states"]
        self.assertEqual((stats["calls"], stats["s"], stats["self_s"]), (2, 4.0, 4.0))

    def test_jobs_are_summarised_separately(self):
        rec = Recorder(clock=FakeClock([0, 1, 5, 7]))
        rec.job = 3
        rec.open("overlap.a")
        rec.close()
        rec.job = 4
        rec.open("overlap.a")
        rec.close()
        out = rec.summarize()
        self.assertEqual(out[3]["layers"]["overlap"], 1.0)
        self.assertEqual(out[4]["layers"]["overlap"], 2.0)

    def test_accounting_violations_are_reported(self):
        rec = self.nested([1, 2, 3, 4, 5, 6, 8, 10])
        summary = rec.summarize()[0]
        self.assertTrue(account(summary, 2.0, 12.0)[1])  # starts before the window
        self.assertTrue(account(summary, 0.0, 8.5)[1])  # ends after it, overfull


class Patching(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        import psesk.cli
        from psesk import entanglement, overlap, states

        originals = (overlap.rotated_overlap, entanglement.rotated_overlap,
                     states.ho_slater, psesk.cli.ho_slater, psesk.cli.COMMANDS["wigner"],
                     states.SlaterState.__post_init__)
        rec = Recorder()
        rec.job = 0
        rec.install()
        try:
            self.assertIsNot(entanglement.rotated_overlap, originals[1])
            self.assertIsNot(psesk.cli.COMMANDS["wigner"], originals[4])
            state = psesk.cli.ho_slater([0, 1], basis_size=4)
            entanglement.schmidt_values(entanglement.rotated_overlap(state, 0.3))
        finally:
            rec.uninstall()
        restored = (overlap.rotated_overlap, entanglement.rotated_overlap,
                    states.ho_slater, psesk.cli.ho_slater, psesk.cli.COMMANDS["wigner"],
                    states.SlaterState.__post_init__)
        self.assertTrue(all(a is b for a, b in zip(originals, restored)))
        fn = rec.summarize()[0]["functions"]
        for name in ("states.ho_slater", "states.SlaterState.__post_init__",
                     "overlap.rotated_overlap", "overlap.clamp_unit_interval",
                     "entanglement.schmidt_values"):
            self.assertEqual(fn[name]["calls"], 1, name)
        # the one table call is booked as a build if it grew the cache
        table_calls = sum(fn.get(name, {"calls": 0})["calls"]
                          for name in ("overlap.ho_overlap_table", "overlap.table_build"))
        self.assertEqual(table_calls, 1)
        counts = rec.summarize()[0]["counts"]
        self.assertEqual(counts["overlap.gramian_flops"], 8 * (2 * 16 + 2 * 4 * 2))


    def test_table_build_is_booked_apart(self):
        from psesk import overlap

        saved = overlap._master_table
        overlap._master_table = None  # a fresh process's empty cache
        rec = Recorder()
        rec.job = 0
        rec.install()
        try:
            overlap.ho_overlap_table(8)  # builds
            overlap.ho_overlap_table(6)  # cached
        finally:
            rec.uninstall()
            overlap._master_table = saved
        fn = rec.summarize()[0]["functions"]
        self.assertEqual(fn["overlap.table_build"]["calls"], 1)
        self.assertEqual(fn["overlap.ho_overlap_table"]["calls"], 1)


class Determinism(unittest.TestCase):
    def test_one_seed_gives_one_input_stream(self):
        for make in workloads.COLD.values():
            self.assertEqual(make(np.random.default_rng(7)), make(np.random.default_rng(7)))
        a = workloads.sweep_specs(np.random.default_rng(7))
        b = workloads.sweep_specs(np.random.default_rng(7))
        self.assertTrue(all(x[:2] == y[:2] and np.array_equal(x[2], y[2]) for x, y in zip(a, b)))

    def test_computed_counts_repeat_exactly(self):
        from psesk.overlap import ho_overlap_table
        from psesk.states import SlaterState

        import worker

        ho_overlap_table(workloads.SWEEP_BASIS)  # built in set-up, as sweep-warm does
        thetas = np.linspace(0.0, 2.0 * math.pi, workloads.SWEEP_ANGLES, endpoint=False)
        specs = workloads.sweep_specs(np.random.default_rng(11))[:4]
        counts = []
        for _ in range(2):
            rec = Recorder()
            rec.install()
            try:
                for job, (_, _, rows) in enumerate(specs):
                    rec.job = job
                    worker.sweep_job(SlaterState(rows), thetas)
            finally:
                rec.uninstall()
            counts.append({job: s["counts"] for job, s in rec.summarize().items()})
        self.assertEqual(counts[0], counts[1])


class CorruptedOutputsFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def run_job(self, job):
        out = SCRATCH / job.label
        logs = SCRATCH / f"{job.label}.log"
        logs.mkdir()
        argv = [sys.executable, "-m", "psesk.cli", *job.argv, "--out", str(out)]
        _, _, code, _ = run.spawn(argv, logs / "stdout", logs / "stderr")
        stdout, stderr = (logs / "stdout").read_text(), (logs / "stderr").read_text()

        def problems():
            return checks.check_cold(job, out, code, stdout, stderr)

        self.assertEqual(problems(), [], job.label)
        return out, problems

    def test_flipped_winding(self):
        job = workloads.ColdJob("winding", ("winding", "--ho-slater", "0,1,2,3"),
                                {"check": "winding", "nu": 2})
        out, problems = self.run_job(job)
        meta = json.loads((out / "winding.json").read_text())
        meta["nu_E"] = -meta["nu_E"]
        (out / "winding.json").write_text(json.dumps(meta))
        self.assertTrue(problems())

    def test_truncated_csv(self):
        job = workloads.ColdJob("solve",
                                ("solve-potential", "--potential", "sho", "--levels", "7"),
                                {"check": "solve", "well": "sho", "levels": 7})
        out, problems = self.run_job(job)
        lines = (out / "bound_states.csv").read_text().splitlines()
        (out / "bound_states.csv").write_text("\n".join(lines[:-1]) + "\n")
        self.assertTrue(problems())

    def test_wigner_with_wrong_trace(self):
        job = workloads.gallery_cold(np.random.default_rng(3))[4]  # a coherent state
        self.assertEqual(job.label, "r0-wigner-coherent0")
        out, problems = self.run_job(job)
        table = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1)
        table[:, 2] *= 1.01
        np.savetxt(out / "wigner.csv", table, delimiter=",", header="x,p,w_re,w_im",
                   comments="")
        self.assertTrue(problems())

    def test_bad_exit_and_traceback(self):
        job = workloads.ColdJob("winding", ("winding",), {"check": "winding", "nu": 2})
        self.assertTrue(checks.check_cold(job, SCRATCH, 2, "", "config error"))
        self.assertTrue(checks.check_cold(job, SCRATCH, 0, "", "Traceback (most recent..."))

    def test_corrupted_sweep_results(self):
        from psesk.states import SlaterState

        import worker

        thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        ne, no, rows = next(s for s in workloads.sweep_specs(np.random.default_rng(5))
                            if s[0] == s[1])
        outcome = worker.sweep_job(SlaterState(rows), thetas)
        self.assertEqual(checks.check_sweep(ne, no, outcome), [])
        broken = dict(outcome, energies=outcome["energies"].copy())
        broken["energies"][3, 0] += 0.1
        self.assertTrue(checks.check_sweep(ne, no, broken))
        self.assertTrue(checks.check_sweep(ne, no, dict(outcome, parity=(ne + 1, no - 1))))
        self.assertTrue(checks.check_sweep(ne, no, dict(outcome, winding=None, closings=[])))
        negative = -outcome["entropy"] - 1e-3
        self.assertTrue(checks.check_sweep(ne, no, dict(outcome, entropy=negative)))


class Metrics(unittest.TestCase):
    def test_tail_leaves_ten_jobs_beyond(self):
        walls = [float(k) for k in range(20)]
        self.assertEqual(run.tail(walls), (9.0, 50.0, 10))
        self.assertEqual(run.tail(walls[:5]), (4.0, 100.0, 0))


if __name__ == "__main__":
    unittest.main(verbosity=2)
