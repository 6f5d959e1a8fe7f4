"""The benchmark's three workloads: set-up, one timed pass, checks.

Each workload is a batch job driven from this process.  The program
sees only inputs generated here from the workload seed: the corpus
(``build_corpus(seed=...)``), the GP/HP/ND seeds (the sweep seed) and
the solver right-hand sides (``seeded_rhs(seed=...)``).

* ``sweep-reorder`` — one small-tier matrix from each of six
  structural groups, every ordering, two Table 2 architectures with
  16 and 32 GP parts, 1D and 2D, inline (``jobs=1``).  Reordering is
  ~97% of it, GP most of that (one GP run per distinct part count), so
  it shows a change to the reordering layer; the model and the process
  pool stay idle.
* ``sweep-model`` — every other medium-tier matrix with the two cheap
  orderings over 8 architectures and the ``1d,2d,cg,spmm`` workload
  axis, on a 2-worker pool.  Model evaluation dominates worker time;
  it is the only workload that crosses the process pool and the
  matrix transport.
* ``solve`` — the SPD medium-tier matrices in original and RCM order
  (RCM computed in set-up), CG and Jacobi at tol 1e-8 under 1D and 2D
  schedules of 16 simulated threads.  It alone runs the numeric SpMV
  kernels and solver loops; reordering and the model do nothing in
  its timed phase.
"""

from __future__ import annotations

import gc
import math
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro import generators, reorder
from repro.harness.engine import SweepEngine
from repro.machine import architecture_names, get_architecture
from repro.machine.bench import simulate_measurement
from repro.machine.model import PerfModel
from repro.solvers import iterative

SOLVE_TOL = 1e-8
SOLVE_THREADS = 16
SOLVERS = ("cg", "jacobi")
KINDS = ("1d", "2d")


@dataclass
class Pass:
    """One timed pass: its wall time, the times of its units (the
    pieces every pass repeats in the same order) and what it produced."""

    wall: float
    units: list
    output: object
    engine_stages: dict = field(default_factory=dict)


def pass_seconds(passes: list) -> float:
    """Pass time robust to bursts of host noise: the sum over units of
    each unit's median time across passes."""
    return sum(float(np.median(times))
               for times in zip(*(p.units for p in passes)))


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Checked") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def reset_memos(matrices) -> None:
    """Drop every memo the program hangs on a matrix object.

    Schedules, ``row_of_entry``, ``ReuseStats``, the ordering graph and
    the finite-values flag are all ``_cache_*`` attributes; without
    this a second pass over the same matrices skips work the first
    one paid for.
    """
    for a in matrices:
        for key in [k for k in vars(a) if k.startswith("_cache_")]:
            object.__delattr__(a, key)
    gc.collect()


def fresh_copy(a):
    """The matrix without its memos, as a new object (pickling drops
    ``_cache_*``)."""
    return pickle.loads(pickle.dumps(a))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
@dataclass
class SweepState:
    seed: int
    corpus: list
    archs: list


class Sweep:
    """A :class:`SweepEngine` grid run once per pass."""

    name = ""
    tier = ""
    groups = None
    matrices = None
    #: keep every ``stride``-th matrix of the tier (after ``matrices``)
    stride = 1
    #: Table 2 architectures by name; ``None`` is all 8
    architectures = None
    orderings: tuple = ()
    kernels: tuple = ()
    jobs = 1
    sample_cells = 16

    def setup(self, seed: int) -> SweepState:
        corpus = generators.build_corpus(self.tier, seed=seed,
                                         groups=self.groups)
        if self.matrices is not None:
            by_name = {e.name: e for e in corpus}
            corpus = [by_name[n] for n in self.matrices]
        corpus = corpus[::self.stride]
        archs = [get_architecture(n)
                 for n in self.architectures or architecture_names()]
        return SweepState(seed=seed, corpus=corpus, archs=archs)

    def matrices_of(self, state: SweepState) -> list:
        return [e.matrix for e in state.corpus]

    def grid_size(self, state: SweepState) -> int:
        return (len(state.corpus) * (len(self.orderings) + 1)
                * len(state.archs) * len(self.kernels))

    def warm_up_state(self, state: SweepState) -> SweepState:
        """The first matrix alone: one untimed pass over it runs every
        code path of the pass before timing starts."""
        return SweepState(state.seed, state.corpus[:1], state.archs)

    def run_pass(self, state: SweepState, jobs: int | None = None) -> Pass:
        """One engine run.  Inline (``jobs=1``) the units are the
        matrices, timed from the engine's per-task progress ticks; on a
        pool they overlap, so the pass is one unit."""
        reset_memos(self.matrices_of(state))
        jobs = jobs or self.jobs
        ticks = []
        engine = SweepEngine(
            state.corpus, state.archs, self.orderings,
            kernels=self.kernels, seed=state.seed, jobs=jobs,
            progress=lambda done, total, failed, elapsed:
            ticks.append(elapsed))
        t0 = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - t0
        units = ([b - a for a, b in zip(ticks, ticks[1:])] if jobs == 1
                 else [wall])
        return Pass(wall=wall, units=units, output=result,
                    engine_stages=dict(engine.metrics.stages))

    def check(self, state: SweepState, first: Pass, pass_: Pass,
              index: int) -> Checked:
        """Pass ``index``: the full grid, records identical to those of
        ``first`` (pass 0), and on pass 0 a seeded sample re-scored from
        scratch matching bit for bit."""
        grid = self.grid_size(state)
        failed, problems = 0, []
        records = pass_.output.records
        missing = grid - len(records)
        if missing or pass_.output.failed:
            failed += max(missing, len(pass_.output.failed))
            problems.append(f"pass {index}: {len(records)}/{grid} cells, "
                            f"{len(pass_.output.failed)} failed")
        differ = sum(r != f for r, f in zip(records, first.output.records))
        if differ:
            failed += differ
            problems.append(f"pass {index}: {differ} cells differ from "
                            "pass 0")
        if index == 0:
            failed += self.rescore_sample(state, records, problems)
        return Checked(grid, failed, problems)

    def rescore_sample(self, state: SweepState, first: list,
                       problems: list) -> int:
        """Re-score a seeded sample of ``first``'s cells from scratch
        (fresh matrix copy, ordering and model); the number that differ."""
        failed = 0
        rng = np.random.default_rng([state.seed, 7])
        picks = rng.choice(len(first), size=min(self.sample_cells,
                                                len(first)),
                           replace=False)
        entries = {e.name: e for e in state.corpus}
        archs = {a.name: a for a in state.archs}
        for i in sorted(int(k) for k in picks):
            rec = first[i]
            arch = archs[rec.architecture]
            a = fresh_copy(entries[rec.matrix].matrix)
            if rec.ordering != "original":
                ordering = reorder.compute_ordering(
                    a, rec.ordering, nparts=arch.gp_parts,
                    seed=state.seed)
                a = ordering.apply(a)
            again = simulate_measurement(a, arch, rec.kernel, rec.matrix,
                                         rec.ordering,
                                         model=PerfModel(arch))
            if again != rec:
                failed += 1
                problems.append(f"re-scored cell {rec.matrix}/"
                                f"{rec.ordering}/{rec.kernel}/"
                                f"{rec.architecture} differs")
        return failed

    @staticmethod
    def iterations(pass_: Pass) -> dict:
        return {}

    def speedups(self, state: SweepState, passes: list) -> dict:
        """Geomean modelled speedup over ``original`` per kernel, across
        every (matrix, ordering, architecture) cell (Tables 3/4)."""
        result = passes[0].output
        out = {}
        for kind in KINDS:
            ratios = []
            for arch in state.archs:
                for name in self.orderings:
                    ratios.extend(result.speedups(name, kind, arch.name))
            out[kind] = geomean(ratios)
        return out


class SweepReorder(Sweep):
    name = "sweep-reorder"
    tier = "small"
    groups = ("PDE", "FEM", "Optimization", "Road", "Genome", "Graph500")
    matrices = ("stencil2d_scr_s28", "femmesh_n900", "kkt_scr_n1600",
                "road_n1600", "kmer_n2000", "rmat_unsym_s10")
    #: two part counts (16, 32), so GP/HP run twice per matrix and a
    #: change that shares bisection levels between part counts shows
    architectures = ("Rome", "Skylake")
    orderings = ("RCM", "ND", "AMD", "GP", "HP", "Gray")
    kernels = KINDS
    jobs = 1


class SweepModel(Sweep):
    name = "sweep-model"
    tier = "medium"
    stride = 2
    orderings = ("RCM", "Gray")
    kernels = ("1d", "2d", "cg", "spmm")
    jobs = 2
    sample_cells = 24


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
@dataclass
class Problem:
    matrix: str
    ordering: str
    a: object
    b: np.ndarray


@dataclass
class SolveOutcome:
    x: np.ndarray
    iterations: int
    converged: bool
    seconds: float


class Solve:
    name = "solve"
    tier = "medium"
    #: the groups whose medium-tier members are SPD (27 matrices)
    groups = ("PDE", "FEM", "CFD", "Semiconductor", "Banded")
    jobs = 1

    def setup(self, seed: int) -> list:
        corpus = generators.build_corpus(self.tier, seed=seed,
                                         groups=self.groups)
        problems = []
        for entry in corpus:
            if not entry.spd:
                continue
            a = entry.matrix
            b = iterative.seeded_rhs(a, seed)
            rcm = reorder.compute_ordering(a, "RCM", seed=seed)
            problems.append(Problem(entry.name, "original", a, b))
            # the same system, reordered: (P A Pᵀ)(P x) = P b
            problems.append(Problem(entry.name, "RCM", rcm.apply(a),
                                    b[rcm.perm]))
        return problems

    def matrices_of(self, problems: list) -> list:
        return [p.a for p in problems]

    def warm_up_state(self, problems: list) -> list:
        """The largest matrix in both orders, so the untimed warm-up
        pass also allocates arrays of the largest size."""
        largest = max(problems, key=lambda p: p.a.nnz).matrix
        return [p for p in problems if p.matrix == largest]

    def run_pass(self, problems: list, jobs: int | None = None) -> Pass:
        reset_memos(self.matrices_of(problems))
        outcomes = {}
        t_start = time.perf_counter()
        for p in problems:
            for solver in SOLVERS:
                fn = getattr(iterative, solver)
                for kind in KINDS:
                    t0 = time.perf_counter()
                    res = fn(p.a, p.b, kind=kind, nthreads=SOLVE_THREADS,
                             tol=SOLVE_TOL)
                    dt = time.perf_counter() - t0
                    outcomes[(p.matrix, p.ordering, solver, kind)] = \
                        SolveOutcome(res.x, res.iterations, res.converged,
                                     dt)
                    del res   # drop the iterate history before the next
        wall = time.perf_counter() - t_start
        return Pass(wall=wall,
                    units=[o.seconds for o in outcomes.values()],
                    output=outcomes)

    def check(self, problems: list, first: Pass, pass_: Pass,
              index: int) -> Checked:
        """Pass ``index``: every solve converged, with ‖b − Ax‖ ≤
        tol·‖b‖ recomputed by scipy, and the iterates of ``first``
        (pass 0)."""
        import scipy.sparse as sp

        attempted, failed, problems_found = 0, 0, []
        for p in problems:
            a = sp.csr_matrix((p.a.values, p.a.colidx, p.a.rowptr),
                              shape=(p.a.nrows, p.a.ncols))
            bound = SOLVE_TOL * float(np.linalg.norm(p.b))
            for solver in SOLVERS:
                for kind in KINDS:
                    key = (p.matrix, p.ordering, solver, kind)
                    out = pass_.output[key]
                    attempted += 1
                    resid = float(np.linalg.norm(p.b - a @ out.x))
                    bad = (not out.converged or not resid <= bound
                           or not np.array_equal(out.x,
                                                 first.output[key].x))
                    if bad:
                        failed += 1
                        problems_found.append(
                            f"pass {index}: {'/'.join(key)} residual "
                            f"{resid:.3e} > {bound:.3e}, converged="
                            f"{out.converged}, iterations="
                            f"{out.iterations}")
        return Checked(attempted, failed, problems_found)

    def speedups(self, problems: list, passes: list) -> dict:
        """Measured speedup of RCM over original per schedule: geomean
        over (matrix, solver) of the ratio of median solve times.  A
        pass's units are its solve times in the order of pass 0's
        outcomes, so passes whose outcomes were dropped still count."""
        times = dict(zip(passes[0].output,
                         zip(*(p.units for p in passes))))

        def median_time(key):
            return float(np.median(times[key]))

        names = sorted({p.matrix for p in problems})
        out = {}
        for kind in KINDS:
            out[kind] = geomean(
                median_time((m, "original", s, kind))
                / median_time((m, "RCM", s, kind))
                for m in names for s in SOLVERS)
        return out

    @staticmethod
    def iterations(pass_: Pass) -> dict:
        totals = dict.fromkeys(SOLVERS, 0)
        for (_m, _o, solver, _k), out in pass_.output.items():
            totals[solver] += out.iterations
        return totals


WORKLOADS = {w.name: w for w in (SweepReorder(), SweepModel(), Solve())}
