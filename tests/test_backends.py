"""Tests for the pluggable execution backends and the content-hash cache
lifecycle.

Covers the backend registry (lookup, errors, third-party registration, the
lazy ``cluster`` autoload), the determinism guarantee (serial == processes
== cluster on golden seeds, both for synthetic trials and for a
real experiment table), the pooled-executor lifecycle (an entered backend
reuses one pool across ``map`` calls; the engine enters/exits it), the
code versions derived from each trial's module closure (sound, precise and
identical across interpreters), and ``cache gc`` evicting exactly the
stale-version entries.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.analysis import code_version
from repro.analysis.code_version import code_version_for, module_files
from repro.analysis.engine import (
    CODE_VERSION,
    ExperimentEngine,
    TrialJob,
    cache_clear,
    cache_gc,
    cache_stats,
)
from repro.analysis.experiments import (
    TRIAL_REGISTRY,
    experiment_e1_two_ecss_approximation,
)
from repro.analysis.runner import derive_seed


def _value_trial(config, seed):
    return {"value": config["x"] * 10 + (seed % 7)}


def _getpid(_item):
    return os.getpid()


def _jobs(trial_name, xs, trials=2):
    return [
        TrialJob.make(trial_name, {"x": x}, derive_seed(trial_name, x, t), t)
        for x in xs
        for t in range(trials)
    ]


class TestBackendRegistry:
    def test_builtin_backends_are_registered(self):
        assert {"serial", "processes"} <= set(BACKENDS)

    def test_available_backends_lists_the_lazy_cluster_backend(self):
        # ``cluster`` is importable on demand, so it must be advertised (and
        # accepted by the CLI ``--backend`` choices) even before its module
        # has been loaded.
        assert available_backends() == ["cluster", "failover", "processes", "serial"]

    def test_cluster_backend_autoloads_on_resolve(self):
        backend = resolve_backend("cluster", workers=2)
        assert type(backend).__name__ == "ClusterBackend"
        assert backend.workers == 2 and backend.name == "cluster"
        assert "cluster" in BACKENDS

    def test_resolve_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        processes = resolve_backend("processes", workers=3)
        assert isinstance(processes, ProcessBackend) and processes.workers == 3

    def test_resolve_none_matches_historical_default(self):
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        assert isinstance(resolve_backend(None, workers=4), ProcessBackend)

    def test_resolve_passes_instances_through(self):
        backend = ProcessBackend(workers=2)
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises_with_known_backends_listed(self):
        with pytest.raises(KeyError, match="no execution backend.*serial"):
            resolve_backend("mpi")

    def test_engine_surfaces_unknown_backend(self):
        engine = ExperimentEngine(backend="ray")
        with pytest.raises(KeyError, match="no execution backend"):
            engine.run_jobs(_value_trial, _jobs("unit", (1,), trials=1))

    def test_backend_returning_short_results_is_a_loud_error(self):
        """A buggy plugged-in backend must not silently drop trials."""

        class ShortBackend:
            name = "short"
            workers = 1

            def map(self, function, items):
                return [function(item) for item in items[:-1]]

        engine = ExperimentEngine(backend=ShortBackend())
        with pytest.raises(RuntimeError, match="one result per item"):
            engine.run_jobs(_value_trial, _jobs("unit", (1, 2)))

    def test_third_party_backend_plugs_in_by_name(self):
        calls = []

        @register_backend("recording")
        class RecordingBackend:
            def __init__(self, workers=1):
                self.workers = workers
                self.name = "recording"

            def map(self, function, items):
                calls.append(len(items))
                return [function(item) for item in items]

        try:
            engine = ExperimentEngine(backend="recording", workers=5)
            results = engine.run_jobs(_value_trial, _jobs("unit", (1, 2)))
            assert calls == [4]
            assert len(results) == 4
            assert "backend=recording" in engine.summary()
        finally:
            BACKENDS.pop("recording", None)


class TestBackendParity:
    """Bit-identical results on every backend, for synthetic and real trials."""

    BACKEND_NAMES = ("serial", "processes", "cluster")

    def test_synthetic_trials_identical_across_backends(self):
        jobs = _jobs("unit", (1, 2, 3, 4), trials=3)
        outcomes = {}
        for name in self.BACKEND_NAMES:
            with ExperimentEngine(workers=4, backend=name) as engine:
                outcomes[name] = engine.run_jobs(_value_trial, jobs)
        baseline = [(r.config, r.seed, r.metrics) for r in outcomes["serial"]]
        for name, results in outcomes.items():
            assert [(r.config, r.seed, r.metrics) for r in results] == baseline, name

    def test_e1_table_identical_across_backends(self):
        tables = []
        for name in self.BACKEND_NAMES:
            with ExperimentEngine(workers=2, backend=name) as engine:
                tables.append(
                    experiment_e1_two_ecss_approximation(
                        sizes=(12,), trials=2, engine=engine
                    )
                )
        assert all(table.rows == tables[0].rows for table in tables)


class TestPooledExecutorLifecycle:
    """Entered pool backends keep one executor alive across ``map`` calls."""

    def test_entered_process_backend_reuses_its_worker_processes(self):
        backend = ProcessBackend(workers=2)
        with backend:
            first = set(backend.map(_getpid, range(16)))
            second = set(backend.map(_getpid, range(16)))
        # Same pool on both calls: across both maps no more pids than the
        # pool size (per-call pools would have shown two disjoint sets).
        assert first and second
        assert len(first | second) <= 2
        assert backend._pool is None

    def test_unentered_map_still_uses_a_fresh_pool_per_call(self):
        backend = ProcessBackend(workers=2)
        first = set(backend.map(_getpid, range(8)))
        second = set(backend.map(_getpid, range(8)))
        assert backend._pool is None
        # Historical per-call behaviour: fresh processes each time.
        assert first.isdisjoint(second)

    def test_entered_process_backend_maps_across_calls(self):
        backend = ProcessBackend(workers=2)
        with backend:
            assert backend.map(str, range(10)) == [str(i) for i in range(10)]
            assert backend.map(abs, [-3, -1]) == [3, 1]
        assert backend._pool is None
        assert backend.map(str, [5]) == ["5"]  # usable again, per-call pool

    def test_chunked_map_preserves_item_order(self):
        # 64 items over a 2-worker pool -> chunksize > 1; order must hold.
        backend = ProcessBackend(workers=2)
        items = list(range(64))
        with backend:
            assert backend.map(str, items) == [str(i) for i in items]


class TestEngineBackendLifecycle:
    """``with engine:`` enters the resolved backend once and exits it after."""

    def test_entered_engine_keeps_one_backend_and_one_pool(self):
        engine = ExperimentEngine(workers=2, backend="processes")
        with engine:
            backend = engine._backend_instance()
            engine.run_jobs(_value_trial, _jobs("unit", (1,)))
            assert engine._backend_instance() is backend
            assert backend._pool is not None
            pool = backend._pool
            engine.run_jobs(_value_trial, _jobs("unit", (2,)))
            assert backend._pool is pool
        assert backend._pool is None

    def test_entered_engine_with_serial_backend_is_a_noop(self):
        with ExperimentEngine(backend="serial") as engine:
            results = engine.run_jobs(_value_trial, _jobs("unit", (1,)))
        assert all(result.ok for result in results)

    def test_unentered_engine_matches_historical_behaviour(self):
        engine = ExperimentEngine(workers=2, backend="processes")
        results = engine.run_jobs(_value_trial, _jobs("unit", (1, 2)))
        assert len(results) == 4
        assert engine._backend_instance()._pool is None


PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Prints every registered trial's code version (and the all-modules one
#: under the key "*") as JSON.
_PRINT_VERSIONS = (
    "import json\n"
    "import repro.analysis.differential\n"
    "from repro.analysis.code_version import code_version_for\n"
    "from repro.analysis.experiments import TRIAL_REGISTRY\n"
    "versions = {name: code_version_for(name) for name in sorted(TRIAL_REGISTRY)}\n"
    "versions['*'] = code_version_for(None)\n"
    "print(json.dumps(versions))\n"
)


def versions_in_fresh_interpreter(src: Path, hashseed: str = "0") -> dict[str, str]:
    """Every registered trial's code version, derived in a new interpreter
    importing the package from *src*."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hashseed}
    proc = subprocess.run(
        [sys.executable, "-c", _PRINT_VERSIONS],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


class TestCodeVersion:
    def test_default_is_the_all_modules_hash(self):
        assert code_version_for(None) == CODE_VERSION
        assert code_version_for("never-declared") == CODE_VERSION
        assert isinstance(CODE_VERSION, str) and CODE_VERSION

    def test_declared_experiments_get_a_narrower_version(self):
        # e3/e6/e7 hash their derived trial closures; their tags differ from
        # the all-modules default and from each other.
        versions = {code_version_for(name) for name in ("e3", "e6", "e7")}
        assert len(versions) == 3
        assert CODE_VERSION not in versions

    def test_versions_are_stable_across_calls(self):
        assert code_version_for("e3") == code_version_for("e3")
        assert code_version_for(None) == code_version_for(None)

    def test_module_files_expands_packages(self):
        package_files = module_files("repro.tap")
        assert len(package_files) >= 3
        (single,) = module_files("repro.tap.fastcover")
        assert single in package_files

    def test_unknown_module_raises(self):
        with pytest.raises(ModuleNotFoundError):
            module_files("repro.no_such_module")

    def test_edits_bump_exactly_the_trials_that_reach_them(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(PACKAGE_DIR, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = versions_in_fresh_interpreter(src)

        # Sound: e5 reaches the CONGEST primitives only through a
        # function-local import in three_ecss.  Precise: e3 never does.
        with open(src / "repro" / "congest" / "primitives.py", "a") as handle:
            handle.write("# edited\n")
        edited = versions_in_fresh_interpreter(src)
        assert edited["e5"] != before["e5"]
        assert edited["e3"] == before["e3"]

        # No trial reaches the CLI, but the all-modules version hashes it.
        with open(src / "repro" / "cli.py", "a") as handle:
            handle.write("# edited\n")
        after_cli = versions_in_fresh_interpreter(src)
        assert after_cli["*"] != edited["*"]
        assert {k: v for k, v in after_cli.items() if k != "*"} == {
            k: v for k, v in edited.items() if k != "*"
        }

    def test_versions_do_not_depend_on_the_hash_seed(self):
        src = PACKAGE_DIR.parent
        assert versions_in_fresh_interpreter(src, "0") == versions_in_fresh_interpreter(
            src, "1"
        )


@pytest.fixture
def fake_solver(tmp_path, monkeypatch):
    """A throwaway package whose decorated trials code versions are derived from.

    ``fakepkg.trials`` registers ``fake-exp`` (reaching ``fakepkg.solver``)
    and ``fake-other`` (reaching ``fakepkg.other``); while the fixture is
    active, code versions hash ``fakepkg`` instead of ``repro``.  Yields the
    solver file, for tests to edit.
    """
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "solver.py").write_text("VALUE = 1\n")
    (package / "other.py").write_text("VALUE = 2\n")
    (package / "trials.py").write_text(
        "from repro.analysis.experiments import register_trial\n"
        "from fakepkg import other, solver\n"
        "\n"
        "@register_trial('fake-exp')\n"
        "def fake_trial(config, seed):\n"
        "    return {'value': float(config['x'] + 0 * solver.VALUE)}\n"
        "\n"
        "@register_trial('fake-other')\n"
        "def other_trial(config, seed):\n"
        "    return {'value': float(config['x'] + 0 * other.VALUE)}\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(code_version, "DEFAULT_PACKAGE", "fakepkg")
    importlib.import_module("fakepkg.trials")
    yield package / "solver.py"
    TRIAL_REGISTRY.pop("fake-exp", None)
    TRIAL_REGISTRY.pop("fake-other", None)
    for name in ("fakepkg.trials", "fakepkg.solver", "fakepkg.other", "fakepkg"):
        sys.modules.pop(name, None)


class TestCacheLifecycle:
    def test_editing_a_solver_module_changes_the_derived_version(self, fake_solver):
        # Edits change the file size: the digest cache is keyed on the stat
        # stamp, and same-size rewrites within one timestamp tick would reuse
        # the old digest (a non-issue for real editing cadences).
        before = code_version_for("fake-exp")
        fake_solver.write_text("VALUE = 22  # edited\n")
        after = code_version_for("fake-exp")
        assert before != after
        fake_solver.write_text("VALUE = 1\n")
        assert code_version_for("fake-exp") == before

    def test_gc_evicts_exactly_the_stale_version_entries(self, fake_solver, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = ExperimentEngine(cache_dir=cache_dir)
        engine.run_jobs("fake-exp", _jobs("fake-exp", (1, 2), trials=1))
        engine.run_jobs("fake-other", _jobs("fake-other", (1, 2), trials=1))
        assert len(list(cache_dir.rglob("*.json"))) == 4
        # Nothing is stale yet, so gc is a no-op.
        assert cache_gc(cache_dir) == []

        # Editing the fake solver outdates only fake-exp's entries.
        fake_solver.write_text("VALUE = 99\n")
        stats = cache_stats(cache_dir)
        assert stats["fake-exp"]["stale"] == 2
        assert stats["fake-other"]["stale"] == 0
        removed = cache_gc(cache_dir)
        assert len(removed) == 2
        assert all(path.parent.name == "fake-exp" for path in removed)
        remaining = list(cache_dir.rglob("*.json"))
        assert len(remaining) == 2
        assert all(path.parent.name == "fake-other" for path in remaining)

    def test_stale_entries_miss_and_rerun_under_the_new_version(self, fake_solver, tmp_path):
        cache_dir = tmp_path / "cache"
        jobs = _jobs("fake-exp", (1,), trials=1)
        ExperimentEngine(cache_dir=cache_dir).run_jobs("fake-exp", jobs)
        fake_solver.write_text("VALUE = 777\n")
        rerun = ExperimentEngine(cache_dir=cache_dir)
        rerun.run_jobs("fake-exp", jobs)
        assert rerun.stats["hits"] == 0 and rerun.stats["misses"] == 1

    def test_gc_removes_corrupt_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        corrupt = cache_dir / "unit" / ("ab" * 32 + ".json")
        corrupt.write_text("{not json")
        removed = cache_gc(cache_dir)
        assert removed == [corrupt]

    def test_lifecycle_never_touches_foreign_json_files(self, tmp_path):
        """``--cache-dir .`` by mistake must not destroy unrelated JSON:
        lifecycle operations only consider engine-named ``<sha256>.json``
        entries."""
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        foreign = cache_dir / "package.json"
        foreign.write_text('{"name": "not-a-cache-entry"}')
        nested = cache_dir / "unit" / "notes.json"
        nested.write_text("[1, 2, 3]")
        assert "package" not in cache_stats(cache_dir)
        assert cache_gc(cache_dir) == []
        assert cache_clear(cache_dir) == 1
        assert foreign.exists() and nested.exists()

    def test_gc_keeps_entries_written_under_a_pinned_code_version(self, tmp_path):
        """Entries stored by an engine with an explicit ``code_version`` have
        no derived hash to re-check against, so gc must not evict them."""
        cache_dir = tmp_path / "cache"
        pinned = ExperimentEngine(cache_dir=cache_dir, code_version="v-pinned")
        jobs = _jobs("unit", (1,), trials=1)
        pinned.run_jobs(_value_trial, jobs)
        assert cache_stats(cache_dir)["unit"]["stale"] == 0
        assert cache_gc(cache_dir) == []
        # The pinned engine still replays its own entries afterwards.
        replay = ExperimentEngine(cache_dir=cache_dir, code_version="v-pinned")
        replay.run_jobs(_value_trial, jobs)
        assert replay.stats["hits"] == 1

    def test_gc_and_clear_reclaim_orphaned_tmp_files(self, tmp_path):
        """A writer killed between write and rename leaks '<key>.json.<pid>.<tid>.tmp'."""
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        orphan = cache_dir / "unit" / ("cd" * 32 + ".json.123.456.tmp")
        orphan.write_text("{half written")
        stats = cache_stats(cache_dir)
        assert stats["unit"]["tmp"] == 1
        assert cache_gc(cache_dir) == [orphan]
        orphan.write_text("{half written")
        assert cache_clear(cache_dir) == 2
        assert not orphan.exists()

    def test_valid_but_non_object_json_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache_dir = tmp_path / "cache"
        jobs = _jobs("unit", (1,), trials=1)
        ExperimentEngine(cache_dir=cache_dir).run_jobs(_value_trial, jobs)
        (entry,) = list(cache_dir.rglob("*.json"))
        entry.write_text("[1, 2, 3]")
        engine = ExperimentEngine(cache_dir=cache_dir)
        results = engine.run_jobs(_value_trial, jobs)
        assert engine.stats == {"hits": 0, "misses": 1, "executed": 1, "failures": 0}
        assert results[0].ok and not results[0].cached

    def test_clear_removes_everything(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1, 2), trials=2)
        )
        assert cache_clear(cache_dir) == 4
        assert not list(cache_dir.rglob("*.json"))
        assert cache_stats(cache_dir) == {}

    def test_lifecycle_helpers_tolerate_missing_directories(self, tmp_path):
        missing = tmp_path / "nope"
        assert cache_stats(missing) == {}
        assert cache_gc(missing) == []
        assert cache_clear(missing) == 0
