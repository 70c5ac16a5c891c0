"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kecss-weighted --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  The lines before it are the human-readable report.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: The seed used while writing a change.
DEFAULT_SEED = 1
#: A seed kept out of development, for re-checking a claim afterwards.
HELD_OUT_SEED = 97
WORKLOAD_NAMES = ("kecss-weighted", "threeecss-unweighted", "twoecss-weighted", "engine-sweep")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "edges_per_s": "edges/s",
    "trials_per_s": "trials/s",
    "approx_ratio": "ratio",
    "rounds_per_bound": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), per traced ladder pass or sweep cycle: name -> unit.
PER_LAYER = {
    "import.cli_s": "s",
    "import.solvers_s": "s",
    "import.scipy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_gap_frac": "ratio",
    "graphs.hop_diameter.s": "s",
    "graphs.enumerate_cuts_of_size.s": "s",
    "graphs.is_k_edge_connected.s": "s",
    "graphs.verify.s": "s",
    "congest.simulate_bfs_tree.s": "s",
    "congest.bfs_rounds": "count",
    "mst.minimum_spanning_tree.s": "s",
    "mst.minimum_spanning_tree.calls": "count",
    "mst.build_mst_with_fragments.self_s": "s",
    "decomposition.build_decomposition.s": "s",
    "tap.distributed_tap.s": "s",
    "tap.iterations": "count",
    "core.augment_to_k.s": "s",
    "core.augment_to_k.self_s": "s",
    "core.aug_iterations": "count",
    "fastaug.BitsetCoverKernel.score.s": "s",
    "fastaug.BitsetCoverKernel.score.calls": "count",
    "fastaug.BitsetCoverKernel.add_many.s": "s",
    "core.three_ecss.self_s": "s",
    "core.three_ecss.iterations": "count",
    "cycle_space.compute_labels.s": "s",
    "cycle_space.compute_labels.calls": "count",
    "fastaug.PathLabelKernel.score_round.s": "s",
    "fastaug.PathLabelKernel.score_round.calls": "count",
    "engine.run_jobs.s": "s",
    "engine.replay_s": "s",
    "engine.compute_s": "s",
    "engine.queue_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.code_version_for.s": "s",
    "store.ingest.s": "s",
}


def parse_seed(text: str) -> int:
    named = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}
    return named[text] if text in named else int(text)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED,
                        help=f"workload seed, or 'default' ({DEFAULT_SEED}) / "
                             f"'held-out' ({HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the closed loop keeps starting solves")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the traced pass and print per-layer metrics")
    return parser.parse_args(argv)


def git_describe() -> str | None:
    """``git describe`` of the checkout, without looking above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def environment() -> dict:
    import networkx
    import scipy

    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "git_describe": git_describe(),
        "loadavg_at_start": os.getloadavg(),
    }


def layer_metrics(outcome, imports: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values of a traced run, per traced pass (or sweep cycle)."""
    passes = outcome.notes.get("traced_passes", 0)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(imports)
    if not passes:
        return values
    values["trace.wall_s"] = outcome.notes["traced_wall_s"] / passes
    values["trace.overhead_s"] = (
        outcome.notes["traced_wall_s"] - outcome.notes["untraced_wall_s"]) / passes
    values["trace.overhead_frac"] = outcome.notes["trace.overhead_frac"]
    values["trace.self_gap_frac"] = outcome.notes["trace.self_gap_frac"]
    for span, row in outcome.layer_table.items():
        for column in ("s", "self_s", "calls"):
            name = f"{span}.{column}"
            if name in values:
                values[name] = row[column] / passes
    for counter, total in outcome.recorder.counts.items():
        if counter in values:
            values[counter] = total / passes
    values.update(outcome.notes.get("engine", {}))
    return values


def report(workload: str, args: argparse.Namespace, env: dict, outcome,
           metrics: dict[str, tuple[float, str]]) -> dict:
    """Print the human-readable report; return it as a dict (also written to disk)."""
    print(f"perfbench: workload={workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env))
    for key, value in outcome.notes.items():
        if key not in ("engine",):
            print(f"{key}: {json.dumps(value)}")
    attempted, failed = outcome.attempted, len(outcome.failures)
    print(f"failed_frac: {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    for reason in outcome.failures[:10]:
        print(f"  FAILED {reason}")
    if outcome.layer_table:
        wall = outcome.notes["traced_wall_s"]
        print(f"{'layer (by self time)':44} {'self s':>9} {'share':>7} {'incl s':>9} {'calls':>8}")
        for span, row in sorted(outcome.layer_table.items(), key=lambda item: -item[1]["self_s"]):
            print(f"{span:44} {row['self_s']:9.3f} {row['self_s'] / wall:7.1%} "
                  f"{row['s']:9.3f} {row['calls']:8d}")
    print(f"{'metric':40} {'value':>16} unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:16.6g} {unit}")
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "notes": outcome.notes, "failures": outcome.failures,
        "tracebacks": outcome.tracebacks,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_one(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads

    env = environment()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    if args.workload == "engine-sweep":
        outcome = workloads.run_engine_sweep(args.seed, args.seconds, bool(args.trace), workdir)
    else:
        outcome = workloads.run_ladder(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = layer_metrics(outcome, workloads.measure_imports())
        units = PER_LAYER
        outcome.recorder.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
        workloads.measure_setup(outcome)
        values, units = outcome.metrics, END_TO_END
    metrics = {name: (values[name], unit) for name, unit in units.items() if name in values}
    record = report(args.workload, args, env, outcome, metrics)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not outcome.failures and len(metrics) == len(units),
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own interpreter, then one table of every metric."""
    names = PER_LAYER if args.trace else END_TO_END
    results = {}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':40} {'unit':9}" + "".join(f" {w:>21}" for w in results))
    for name, unit in names.items():
        cells = "".join(f" {results[w]['metrics'][name]['value']:21.6g}" for w in results)
        print(f"{name:40} {unit:9}{cells}")
    cells = "".join(f" {r['failed'] / r['attempted']:21.6g}" for r in results.values())
    print(f"{'failed_frac':40} {'ratio':9}{cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": value for w, r in results.items()
                    for name, value in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    status = run_all(args) if args.workload == "all" else run_one(args)
    print(f"perfbench: finished in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
