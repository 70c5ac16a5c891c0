"""The four workloads, the start-up probes, and their end-to-end and per-layer metrics.

Every workload is a closed loop in this one process: the next solve (or
sweep) starts when the previous one has returned and been checked.  Inputs
are generated from the workload seed before any timer starts; the program
only ever receives the built ``nx.Graph`` (or, for the engine sweep, the
registered trial jobs).
"""

from __future__ import annotations

import hashlib
import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

import repro.core  # noqa: F401  (loads every solver module before bindings are patched)
from perfbench import measure
from perfbench.layers import ENGINE_LAYERS, SOLVER_LAYERS, Instrumentation, SpanRecorder
from repro.analysis.bench import engine_provenance, trial_payload
from repro.analysis.engine import ExperimentEngine, TrialJob
from repro.analysis.experiments import E2_FAMILIES, TRIAL_REGISTRY
from repro.graphs.generators import make_family, random_k_edge_connected_graph
from repro.store import TrialStore

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Interpreter spawns per run behind ``setup_s`` (median reported).
SETUP_SPAWNS = 5
#: Spawns per import probe of the traced run (median reported).
IMPORT_SPAWNS = 3
#: A traced solve's self times must add up to its wall time within this share.
SELF_TIME_SLACK = 0.01

SETUP_PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import repro.cli\n"
    "print(time.perf_counter() - started)\n"
)
SOLVERS_PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import repro.core.two_ecss, repro.core.three_ecss, repro.core.k_ecss\n"
    "print(time.perf_counter() - started)\n"
)


# ------------------------------------------------------------------ inputs
@dataclass(frozen=True)
class Rung:
    """``copies`` instances of one (solver, family, n, k) point of a ladder."""

    solver: str
    family: str
    n: int
    k: int
    copies: int


#: The solver ladders.  Sizes are chosen so that solver time dominates and so
#: that instances within a ladder take similar time (the median then does not
#: jump between rungs from one seed to the next); README.md gives the reasons
#: behind each workload.
LADDERS: dict[str, tuple[Rung, ...]] = {
    "kecss-weighted": (
        Rung("k_ecss", "weighted-k3", 128, 3, 3),
        Rung("k_ecss", "weighted-sparse", 512, 2, 3),
    ),
    "threeecss-unweighted": (
        Rung("three_ecss", "torus", 256, 3, 3),
        Rung("three_ecss", "hypercube", 256, 3, 3),
    ),
    "twoecss-weighted": (
        Rung("two_ecss", "weighted-sparse", 2048, 2, 3),
        Rung("two_ecss", "powerlaw", 2048, 2, 3),
        Rung("two_ecss", "weighted-dense", 512, 2, 3),
    ),
}

#: The engine sweep: (experiment, configs); every config runs TRIALS_PER_CONFIG seeds.
ENGINE_GRID: tuple[tuple[str, tuple[dict, ...]], ...] = (
    ("e2", tuple({"family": f, "n": n} for f in ("weighted-sparse", "clique-chain")
                 for n in (64, 128, 256))),
    ("e4", tuple({"n": n, "k": k, "exact_cutoff": 0} for n in (32, 48) for k in (2, 3))),
    ("e5", tuple({"n": n} for n in (32, 48))),
)
TRIALS_PER_CONFIG = 5


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one input, fixed by the workload seed and the input's identity."""
    text = "|".join(map(repr, (seed, *parts)))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Instance:
    rung: Rung
    seed: int
    graph: nx.Graph
    lower_bound: int


def ladder_instances(workload: str, seed: int) -> list[Instance]:
    """The ladder's instances, rungs interleaved so a partial pass stays balanced."""
    instances = []
    rungs = LADDERS[workload]
    for copy in range(max(rung.copies for rung in rungs)):
        for rung in rungs:
            if copy >= rung.copies:
                continue
            instance_seed = derive_seed(seed, workload, rung.family, rung.n, copy)
            graph = make_family(rung.family)(rung.n, seed=instance_seed)
            instances.append(
                Instance(rung, instance_seed, graph, measure.k_ecss_lower_bound(graph, rung.k)))
    return instances


def solve(instance: Instance):
    """One ``kecss solve``-equivalent: the solver call, then ``ECSSResult.verify()``.

    The solver is looked up on its module at call time, so the traced run's
    patched binding is the one called.
    """
    solver = getattr(importlib.import_module(f"repro.core.{instance.rung.solver}"),
                     instance.rung.solver)
    if instance.rung.solver == "k_ecss":
        result = solver(instance.graph, instance.rung.k, seed=instance.seed)
    else:
        result = solver(instance.graph, seed=instance.seed)
    return result, result.verify()


# ------------------------------------------------------------------ outcome
@dataclass
class Outcome:
    """What one run measured, checked and traced."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tracebacks: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    layer_table: dict[str, dict[str, float]] = field(default_factory=dict)
    recorder: SpanRecorder | None = None

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def self_gap(recorder: SpanRecorder, root: int, wall: float) -> float:
    """How far the self times of *root*'s span tree miss *wall*, as a share of it."""
    own = recorder.self_times()
    return abs(wall - sum(own[index] for index in recorder.subtree(root))) / wall


def check_self_gaps(outcome: Outcome, gaps: list[float]) -> None:
    worst = max(gaps)
    outcome.notes["trace.self_gap_frac"] = worst
    if worst > SELF_TIME_SLACK:
        outcome.fail(f"traced self times miss the wall time by {worst:.2%}, "
                     f"more than the {SELF_TIME_SLACK:.0%} slack")


# ------------------------------------------------------------------ start-up
def spawn_probe(code: str, *flags: str) -> tuple[float, str, str]:
    """Run *code* in a fresh interpreter; return (spawn-to-exit wall, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"start-up probe failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout, proc.stderr


def measure_setup(outcome: Outcome) -> None:
    walls = [spawn_probe(SETUP_PROBE)[0] for _ in range(SETUP_SPAWNS)]
    outcome.metrics["setup_s"] = statistics.median(walls)
    outcome.notes["setup_s.samples"] = len(walls)


def measure_imports() -> dict[str, float]:
    cli = [float(spawn_probe(SETUP_PROBE)[1]) for _ in range(IMPORT_SPAWNS)]
    solvers = [float(spawn_probe(SOLVERS_PROBE)[1]) for _ in range(IMPORT_SPAWNS)]
    scipy = [
        measure.import_cumulative_seconds(spawn_probe("import repro.cli", "-X", "importtime")[2],
                                          "scipy")
        for _ in range(IMPORT_SPAWNS)
    ]
    return {
        "import.cli_s": statistics.median(cli),
        "import.solvers_s": statistics.median(solvers),
        "import.scipy_s": statistics.median(scipy),
    }


# ------------------------------------------------------------------ solver ladders
def run_ladder(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    instances = ladder_instances(workload, seed)
    first: dict[int, list] = {}
    walls: list[float] = []
    instance_walls: dict[int, list[float]] = {}
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    recorder = SpanRecorder() if trace else None
    instrumentation = Instrumentation(recorder, SOLVER_LAYERS) if trace else None
    roots: list[int] = []
    self_gaps: list[float] = []
    quality: list[tuple[int, int, int, int]] = []

    def checked(index: int, instance: Instance, run) -> float | None:
        """Run one solve through *run*, check its output, return its wall (None on failure)."""
        outcome.attempted += 1
        label = f"{instance.rung.family} n={instance.rung.n} k={instance.rung.k} #{index}"
        try:
            wall, (result, (ok, reason)) = run(instance)
        except Exception as exc:  # noqa: BLE001 -- a failed solve is a counted failure
            outcome.fail(f"{label}: {type(exc).__name__}: {exc}")
            outcome.tracebacks.append(traceback.format_exc())
            return None
        if not ok:
            outcome.fail(f"{label}: verify() rejected the result: {reason}")
            return None
        record = measure.instance_record(result.edges, result.weight, result.rounds,
                                         result.iterations)
        if index not in first:
            problem = measure.solution_problem(instance.graph, result.edges,
                                               instance.rung.k, result.weight)
            if problem is not None:
                outcome.fail(f"{label}: {problem}")
                return None
            first[index] = record
            quality.append((result.weight, instance.lower_bound, result.rounds,
                            result.metadata["round_bound"]))
        elif record != first[index]:
            outcome.fail(f"{label}: output differs from the first solve of this instance")
            return None
        return wall

    def untraced(instance: Instance):
        started = time.perf_counter()
        answer = solve(instance)
        return time.perf_counter() - started, answer

    def traced(instance: Instance):
        with instrumentation:
            started = time.perf_counter()
            root = recorder.open("solve")
            answer = solve(instance)
            recorder.close(root)
            wall = time.perf_counter() - started
        roots.append(root)
        self_gaps.append(self_gap(recorder, root, wall))
        return wall, answer

    # Warm-up: the first solve in a process pays one-off costs (lazy imports,
    # allocator growth) that every later solve of the run would not.
    checked(0, instances[0], untraced)
    position = 0
    started = time.perf_counter()
    while True:
        index = position % len(instances)
        # Every instance runs at least once; the untraced loop may stop between
        # instances, the traced one only between whole passes.
        if (position >= len(instances) and (index == 0 or not trace)
                and time.perf_counter() - started >= seconds):
            break
        position += 1
        instance = instances[index]
        wall = checked(index, instance, untraced)
        if wall is None:
            continue
        if trace:
            traced_wall = checked(index, instance, traced)
            if traced_wall is not None:
                untraced_walls.append(wall)
                traced_walls.append(traced_wall)
        else:
            walls.append(wall)
            instance_walls.setdefault(index, []).append(wall)
    passes = position / len(instances)

    outcome.notes["passes"] = passes
    outcome.notes["instances"] = [
        f"{i.rung.solver}:{i.rung.family}:n={i.graph.number_of_nodes()}:"
        f"m={i.graph.number_of_edges()}:k={i.rung.k}" for i in instances
    ]
    outcome.notes["digest"] = measure.digest([first.get(i) for i in range(len(instances))])
    if trace:
        outcome.recorder = recorder
        if traced_walls:
            outcome.layer_table = recorder.totals(roots)
            outcome.notes["traced_wall_s"] = sum(traced_walls)
            outcome.notes["trace.overhead_frac"] = sum(traced_walls) / sum(untraced_walls) - 1
            outcome.notes["untraced_wall_s"] = sum(untraced_walls)
            outcome.notes["traced_passes"] = passes
            check_self_gaps(outcome, self_gaps)
        return outcome
    if walls:
        timing = measure.timing_summary(walls)
        outcome.notes["solve_s"] = timing
        # Throughput of one ladder pass: each instance once, at its mean wall,
        # so a run that stops mid-pass does not tilt the mix of instances.
        mean_walls = {index: statistics.fmean(samples)
                      for index, samples in instance_walls.items()}
        outcome.metrics["solve_s.p50"] = timing["p50"]
        outcome.metrics["edges_per_s"] = measure.ratio_of_sums(
            [instances[index].graph.number_of_edges() for index in mean_walls],
            mean_walls.values())
        outcome.metrics["trials_per_s"] = measure.ratio_of_sums(
            [1] * len(mean_walls), mean_walls.values())
    if quality:
        weights, bounds, rounds, round_bounds = zip(*quality)
        outcome.metrics["approx_ratio"] = measure.mean_of_ratios(weights, bounds)
        outcome.metrics["rounds_per_bound"] = measure.mean_of_ratios(rounds, round_bounds)
    return outcome


# ------------------------------------------------------------------ engine sweep
def engine_jobs(seed: int) -> dict[str, list[TrialJob]]:
    return {
        experiment: [
            TrialJob.make(experiment, config,
                          derive_seed(seed, experiment, sorted(config.items()), t), t)
            for config in configs
            for t in range(TRIALS_PER_CONFIG)
        ]
        for experiment, configs in ENGINE_GRID
    }


def _trial_graph(job: TrialJob) -> nx.Graph:
    """The input graph a registered trial builds for *job* (mirrors the trial functions)."""
    config = job.config_dict
    if job.experiment == "e2":
        return E2_FAMILIES[config["family"]](config["n"], job.seed)
    if job.experiment == "e4":
        return random_k_edge_connected_graph(config["n"], config["k"], extra_edge_prob=0.3,
                                             seed=job.seed)
    return random_k_edge_connected_graph(config["n"], 3, extra_edge_prob=0.3,
                                         weight_range=None, seed=job.seed)


@dataclass
class Sweep:
    """One cold sweep (run + store ingest) and the warm replay of its cache."""

    cold_wall: float = 0.0
    warm_wall: float = 0.0
    cold: dict[str, list] = field(default_factory=dict)
    warm: dict[str, list] = field(default_factory=dict)
    runs: dict[str, object] = field(default_factory=dict)
    warm_stats: dict[str, int] = field(default_factory=dict)
    store: TrialStore | None = None
    roots: list[int] = field(default_factory=list)
    self_gaps: list[float] = field(default_factory=list)


def _sweep(jobs: dict[str, list[TrialJob]], workdir: Path,
           recorder: SpanRecorder | None) -> Sweep:
    shutil.rmtree(workdir, ignore_errors=True)
    cache_dir = workdir / "cache"
    workers = os.cpu_count() or 1
    records: dict[str, list[dict]] = {experiment: [] for experiment in jobs}
    sweep = Sweep()

    def ingest_observer(job: TrialJob, result) -> None:
        records[job.experiment].append(trial_payload(job, result))

    def timed(name: str, body) -> float:
        started = time.perf_counter()
        root = recorder.open(name) if recorder else None
        body()
        if recorder:
            recorder.close(root)
        wall = time.perf_counter() - started
        if recorder:
            sweep.roots.append(root)
            sweep.self_gaps.append(self_gap(recorder, root, wall))
        return wall

    def cold() -> None:
        with ExperimentEngine(workers=workers, backend="processes", cache_dir=cache_dir,
                              observers=[ingest_observer]) as engine:
            sweep.store = TrialStore(workdir / "store")
            for experiment, batch in jobs.items():
                sweep.cold[experiment] = engine.run_jobs(experiment, batch)
                sweep.runs[experiment] = sweep.store.ingest(
                    experiment, records[experiment], created_unix=time.time(),
                    provenance=engine_provenance(engine, experiment),
                )

    warm_engine = ExperimentEngine(workers=workers, backend="processes", cache_dir=cache_dir)

    def warm() -> None:
        for experiment, batch in jobs.items():
            sweep.warm[experiment] = warm_engine.run_jobs(experiment, batch)

    sweep.cold_wall = timed("sweep.cold", cold)
    sweep.warm_wall = timed("sweep.warm", warm)
    sweep.warm_stats = warm_engine.stats
    return sweep


def run_engine_sweep(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    jobs = engine_jobs(seed)
    trials = sum(len(batch) for batch in jobs.values())
    edges = sum(_trial_graph(job).number_of_edges() for batch in jobs.values() for job in batch)
    e4_bounds = [measure.k_ecss_lower_bound(_trial_graph(job), job.config_dict["k"])
                 for job in jobs["e4"]]
    recorder = SpanRecorder() if trace else None
    instrumentation = Instrumentation(recorder, ENGINE_LAYERS) if trace else None

    cold_walls: list[float] = []
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    traced_cycles: list[dict] = []
    self_gaps: list[float] = []
    # Serial, in-process ground truth for what the pool, the pickling, the
    # cache and the store must reproduce.  Computed before the first sweep so
    # that every sweep forks its workers from an equally warm parent process.
    reference = {
        experiment: [TRIAL_REGISTRY[experiment](job.config_dict, job.seed) for job in batch]
        for experiment, batch in jobs.items()
    }

    def checked(sweep: Sweep) -> bool:
        """Count the sweep's trials and check them; False if any failed."""
        outcome.attempted += 2 * trials
        failed_before = len(outcome.failures)
        for experiment, batch in jobs.items():
            columns = sweep.store.columns(sweep.runs[experiment])
            for position, job in enumerate(batch):
                label = f"{experiment} {job.config_dict} seed={job.seed}"
                live = sweep.cold[experiment][position]
                replay = sweep.warm[experiment][position]
                expected = reference[experiment][position]
                if live.error is not None:
                    outcome.fail(f"{label}: {live.error.strip().splitlines()[-1]}")
                    outcome.tracebacks.append(live.error)
                elif live.metrics != expected:
                    outcome.fail(f"{label}: pooled result differs from a serial run")
                if not replay.cached or replay.metrics != expected:
                    outcome.fail(f"{label}: warm replay did not return the cached result")
                stored = {key[len("metrics."):]: values[position]
                          for key, values in columns.items() if key.startswith("metrics.")}
                if stored != expected:
                    outcome.fail(f"{label}: the trial store read back different metrics")
        return len(outcome.failures) == failed_before

    cycles = 0
    try:
        # Warm-up: the first sweep of a process pays one-off costs (first pool,
        # first store, first code-version hash) that later sweeps do not.
        checked(_sweep(jobs, workdir, None))
        started = time.perf_counter()
        # Traced runs alternate untraced and traced sweeps, so they need two.
        while cycles < 1 + trace or time.perf_counter() - started < seconds:
            tracing = trace and cycles % 2 == 1
            if tracing:
                with instrumentation:
                    sweep = _sweep(jobs, workdir, recorder)
            else:
                sweep = _sweep(jobs, workdir, None)
            self_gaps.extend(sweep.self_gaps)
            cycles += 1
            if not checked(sweep):
                continue
            if tracing:
                traced_walls.append(sweep.cold_wall + sweep.warm_wall)
                cold_root, warm_root = sweep.roots
                cold_table = recorder.totals([cold_root])
                warm_table = recorder.totals([warm_root])
                both = recorder.totals(sweep.roots)
                results = [r for batch in sweep.cold.values() for r in batch]
                hits, misses = sweep.warm_stats["hits"], sweep.warm_stats["misses"]
                traced_cycles.append({
                    "engine.run_jobs.s": cold_table["engine.run_jobs"]["s"],
                    "engine.replay_s": warm_table["engine.run_jobs"]["s"],
                    "engine.code_version_for.s": both["engine.code_version_for"]["s"],
                    "store.ingest.s": both["store.ingest"]["s"],
                    "engine.compute_s": sum(r.duration for r in results),
                    "engine.queue_s": sum(r.queue_seconds for r in results),
                    "engine.cache_hit_ratio": hits / (hits + misses),
                })
            else:
                cold_walls.append(sweep.cold_wall)
                untraced_walls.append(sweep.cold_wall + sweep.warm_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e4_results = reference["e4"]
    for job, metrics, bound in zip(jobs["e4"], e4_results, e4_bounds):
        if metrics["weight"] < bound:
            outcome.fail(f"e4 {job.config_dict} seed={job.seed}: weight {metrics['weight']} "
                         f"is below the lower bound {bound}")
    outcome.notes["cycles"] = cycles
    outcome.notes["trials_per_sweep"] = trials
    outcome.notes["digest"] = measure.digest(
        [[experiment, metrics] for experiment, batch in reference.items() for metrics in batch]
    )
    if trace:
        outcome.recorder = recorder
        if traced_cycles:
            outcome.layer_table = recorder.totals(
                [i for i, name in enumerate(recorder.names) if name.startswith("sweep.")])
            outcome.notes["traced_passes"] = len(traced_cycles)
            outcome.notes["traced_wall_s"] = sum(traced_walls)
            outcome.notes["untraced_wall_s"] = statistics.fmean(untraced_walls) * len(traced_walls)
            outcome.notes["trace.overhead_frac"] = (
                statistics.fmean(traced_walls) / statistics.fmean(untraced_walls) - 1
            )
            outcome.notes["engine"] = {
                key: statistics.fmean(cycle[key] for cycle in traced_cycles)
                for key in traced_cycles[0]
            }
            check_self_gaps(outcome, self_gaps)
        return outcome
    if cold_walls:
        timing = measure.timing_summary(cold_walls)
        outcome.notes["solve_s"] = timing
        outcome.metrics["solve_s.p50"] = timing["p50"]
        outcome.metrics["edges_per_s"] = edges * len(cold_walls) / sum(cold_walls)
        outcome.metrics["trials_per_s"] = trials * len(cold_walls) / sum(cold_walls)
    outcome.metrics["approx_ratio"] = measure.mean_of_ratios(
        [m["weight"] for m in e4_results], e4_bounds)
    bounded = reference["e2"] + reference["e4"]
    outcome.metrics["rounds_per_bound"] = measure.mean_of_ratios(
        [m["rounds"] for m in bounded], [m["bound"] for m in bounded])
    return outcome
