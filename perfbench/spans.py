"""In-memory span recorder that times psesk's layers from outside.

``Recorder.install`` replaces each function named in ``TRACED`` on every
loaded psesk module (and module-level dict) that binds it, so a call made
through ``psesk.cli.ho_slater`` or ``psesk.entanglement.rotated_overlap`` is
timed like one made through the defining module.  Each call is a span of the
current job; when it closes, its call, inclusive time and self time are added
to its function's totals for that job.  A layer is the psesk module that
defines the function, plus ``import`` for the package import itself.

A span's self time is its duration minus the time covered by its child
spans; calls nest strictly on one thread, so children never overlap and the
covered time is the sum of their durations, which each span adds to its
parent's as it closes.  Summed over all layers, self times plus ``other``
(job wall time covered by no span) give the job wall time.

This module uses only the standard library at import time, so a traced
process can time ``import psesk`` (and numpy with it) after importing it.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("import", "specfun", "hobasis", "states", "overlap", "entanglement",
          "chiral", "phasespace", "potentials", "cli")

TRACED = {
    "specfun": ("hyp2f1_terminating", "assoc_laguerre", "hermite_phys", "gamma_special"),
    "hobasis": ("ho_stack", "ho_wavefunction", "gauss_hermite", "reweighted_rule",
                "expand_function"),
    "states": ("ho_slater", "interpolated_state", "SlaterState.__post_init__"),
    "overlap": ("ho_overlap_table", "rotated_overlap", "translated_overlap",
                "clamp_unit_interval", "overlap_quadrature_oracle"),
    "entanglement": ("pses_sweep", "schmidt_values", "entanglement_energies",
                     "entanglement_entropy", "entanglement_hamiltonian"),
    "chiral": ("inversion_matrix", "parity_sort", "chiral_block", "block_determinants",
               "winding_scan", "winding_number", "flat_band_count", "detect_gap_closings",
               "minimum_block_gap"),
    "phasespace": ("wigner_of_state", "wigner_pure", "wigner_mn", "coherent_wigner",
                   "coherent_expansion", "frft_ho", "frft_direct", "frft_kernel",
                   "marginal_position"),
    "potentials": ("potential", "parse_potential_expression", "kinetic_matrix",
                   "hamiltonian_matrix", "bound_states", "parity_check"),
    "cli": ("main", "resolve_config", "build_state", "write_table", "write_sidecar",
            "cmd_spectrum", "cmd_winding", "cmd_entropy_surface", "cmd_wigner",
            "cmd_solve_potential", "cmd_frft_check"),
}

SETUP_JOB = -1
# ho_overlap_table returns a view of one cached, growing table; a call that
# replaced the cache built it, and its span is booked under TABLE_BUILD.
TABLE = "overlap.ho_overlap_table"
TABLE_BUILD = "overlap.table_build"


def _table_cache():
    return getattr(sys.modules["psesk.overlap"], "_master_table", None)


# ----------------------------------------------------------- computed counts
# Each hook maps (args, kwargs, result) to count increments.  The counts
# follow from call arguments and shapes alone, so one input stream always
# gives the same counts.

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _gram_flops(rows_a: int, basis: int, rows_b: int) -> int:
    # conj(A) T^theta B^T as two complex matmuls, 8 real flops per multiply-add
    return 8 * (rows_a * basis * basis + rows_a * basis * rows_b)


def _rotated_overlap(args, kwargs, result):
    n, m = _arg(args, kwargs, 0, "state").coeffs.shape
    return {"overlap.gramian_flops": _gram_flops(n, m, n)}


def _block_determinants(args, kwargs, result):
    ps = _arg(args, kwargs, 0, "ps")
    angles = len(_arg(args, kwargs, 1, "thetas"))
    flops = angles * _gram_flops(ps.n_even, ps.coeffs.shape[1], ps.n_odd)
    return {"chiral.block_determinants_angles": angles,
            "chiral.refine_calls": 1 if angles == 1 else 0,
            "overlap.gramian_flops": flops}


def _winding_scan(args, kwargs, result):
    return {"chiral.winding_grid_requested": _arg(args, kwargs, 1, "grid_size", 256),
            "chiral.winding_grid_used": result[1]}


def _pses_sweep(args, kwargs, result):
    return {"entanglement.pses_sweep_angles": len(result.thetas)}


def _wigner_of_state(args, kwargs, result):
    import numpy as np

    op = _arg(args, kwargs, 0, "op")
    coeffs = np.asarray(getattr(op, "coeffs", op))
    if coeffs.ndim == 1:
        nonzero = int(np.count_nonzero(coeffs)) ** 2
    else:
        nonzero = int(np.count_nonzero(coeffs))
    return {"phasespace.wigner_cells": result.values.size * nonzero}


def _write_table(args, kwargs, result):
    return {"cli.rows_written": len(_arg(args, kwargs, 4, "rows"))}


COUNTERS = {
    "overlap.rotated_overlap": _rotated_overlap,
    "chiral.block_determinants": _block_determinants,
    "chiral.winding_scan": _winding_scan,
    "entanglement.pses_sweep": _pses_sweep,
    "phasespace.wigner_of_state": _wigner_of_state,
    "cli.write_table": _write_table,
}


class Recorder:
    """Per-job, per-function span totals and counts for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = SETUP_JOB
        self.jobs: dict[int, dict] = {}
        self._stack: list[list] = []  # open spans: [name, start, child time]
        self._open: dict[str, int] = {}  # open spans per function (recursion)
        self._patches: list[tuple] = []

    def _entry(self) -> dict:
        entry = self.jobs.get(self.job)
        if entry is None:
            entry = self.jobs[self.job] = {"functions": {}, "counts": {},
                                           "first_start": None, "last_end": None}
        return entry

    def open(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def close(self, book_as: str | None = None) -> None:
        """Close the innermost span; book it under ``book_as`` if given."""
        end = self.clock()
        name, start, child = self._stack.pop()
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][2] += end - start
        self._book(book_as or name, start, end, child, outermost=self._open[name] == 0)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an already-timed top-level span (the package import)."""
        self._book(name, start, end, 0.0, outermost=True)

    def _book(self, name: str, start: float, end: float, child: float,
              outermost: bool) -> None:
        entry = self._entry()
        stats = entry["functions"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        if outermost:  # a recursive call's time is already inside its caller's
            stats["s"] += end - start
        stats["self_s"] += end - start - child
        if not self._stack:
            if entry["first_start"] is None or start < entry["first_start"]:
                entry["first_start"] = start
            if entry["last_end"] is None or end > entry["last_end"]:
                entry["last_end"] = end

    def count(self, increments: dict) -> None:
        bucket = self._entry()["counts"]
        for key, value in increments.items():
            bucket[key] = bucket.get(key, 0) + value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            cached = _table_cache() if name == TABLE else None
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                built = name == TABLE and _table_cache() is not cached
                self.close(TABLE_BUILD if built else None)
            if counter:
                self.count(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced
    def install(self) -> None:
        """Patch every binding of every traced function in loaded psesk modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "psesk" or key.startswith("psesk."))]
        for layer, attrs in TRACED.items():
            home = sys.modules.get(f"psesk.{layer}")
            if home is None:  # e.g. the CLI in a library-only process
                continue
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if key.startswith("__"):
                            continue
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    self._patches.append((value, dkey, original))
                                    value[dkey] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def summarize(self) -> dict[int, dict]:
        """Per job: calls, outermost inclusive time and self time per
        function, self time per layer, the earliest span start and latest
        span end, and the job's counts."""
        out = {}
        for job, entry in self.jobs.items():
            layers = dict.fromkeys(LAYERS, 0.0)
            for name, stats in entry["functions"].items():
                layers[name.split(".", 1)[0]] += stats["self_s"]
            out[job] = {**entry, "layers": layers}
        return out


def account(summary: dict, start: float, end: float) -> tuple[float, list[str]]:
    """other.s for one job with wall window [start, end], plus any violation
    of the accounting (a span outside the window, self times above wall)."""
    problems = []
    wall = end - start
    covered = sum(summary["layers"].values())
    if summary["first_start"] is not None and (
        summary["first_start"] < start or summary["last_end"] > end
    ):
        problems.append("a span lies outside the job's wall-clock window")
    other = wall - covered
    if other < 0.0:
        problems.append(f"layer self times {covered:.6f} s exceed job wall {wall:.6f} s")
    return other, problems
