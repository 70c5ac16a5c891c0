"""Tests for the fault-injection harness and the retry/failover/recovery layer.

Covers :class:`RetryPolicy` (seeded backoff, classification, the shared
``call`` loop, the ``worker._connect`` adoption with its last-error
message), :class:`FaultPlan` determinism (same seed -> same schedule, pure
per-event RNG) and its scripted worker/store hooks, the :class:`ChaosProxy`
frame faults (drop / delay / truncate / sever) driven end-to-end through
:func:`run_chaos_batch` -- including the acceptance chaos parity sweep (50
seeds x every generator family under frame drops plus a scripted worker
crash, bit-identical to serial) -- the coordinator's poison-chunk bound
(bounded requeues surface as ``TrialResult.error`` instead of hanging the
batch), the ``failover`` degradation chain with its ``degraded_from``
provenance, the engine- and cluster-level retry hooks, the
``--heartbeat-timeout`` / ``REPRO_CLUSTER_HEARTBEAT`` plumbing, and store
crash recovery (a writer killed at *every* injected crash point, ``fsck``
detection/quarantine of each damage class, ``runs()`` warn-and-skip, and
``gc --keep-last`` retention).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import pytest

from repro.analysis.backends import resolve_backend
from repro.analysis.bench import engine_provenance
from repro.analysis.cluster import (
    AuthenticationError,
    ClusterBackend,
    Coordinator,
)
from repro.analysis.cluster.backend import HEARTBEAT_ENV, heartbeat_timeout_from_env
from repro.analysis.cluster.worker import _connect
from repro.analysis.differential import cluster_protocol_jobs
from repro.analysis.engine import ExperimentEngine, TrialJob, _execute_trial
from repro.analysis.faults import (
    ChaosProxy,
    FailoverBackend,
    FaultPlan,
    InjectedCrash,
    InjectedWorkerCrash,
    RetryPolicy,
    WorkerFault,
    crash_store_at,
    record_store_crash_points,
    run_chaos_batch,
    store_crash_hook,
)
from repro.analysis.runner import TrialResult
from repro.cli import _apply_cluster_options, build_parser, main as kecss_main
from repro.store import StoreError, StoreWarning, TrialStore

from _helpers import cli_error

WAIT = 30.0


# Mapped functions live at module level so the fork-spawned loopback workers
# (and pickled chunk frames) resolve them by reference.
def _square(x):
    return x * x


def _poisonous_trial(job):
    """A trial whose poison configuration kills the whole worker process."""
    if job.config_dict.get("poison"):
        os._exit(13)
    return TrialResult(
        config=job.config_dict, seed=job.seed,
        metrics={"value": job.seed}, index=job.index,
    )


def _exit_on_three(x):
    if x == 3:
        os._exit(7)
    return x * x


def _toy_trial(config, seed):
    return {"value": config["x"] * 10 + seed}


@dataclass
class _FlakyBackend:
    """An always-failing (or fail-N-times) stand-in backend."""

    name: str = "flaky"
    workers: int = 1
    failures: int = 10 ** 9
    calls: int = 0

    def map(self, function, items):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("flaky infrastructure died")
        return [function(item) for item in items]


# -------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_delays_are_seeded_and_reproducible(self):
        assert RetryPolicy(seed=1).delays(5) == RetryPolicy(seed=1).delays(5)
        assert RetryPolicy(seed=1).delays(5) != RetryPolicy(seed=2).delays(5)

    def test_delays_grow_exponentially_and_respect_the_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        assert policy.delays(5) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify(OSError("boom"))
        assert not policy.classify(ValueError("boom"))
        # Fatal wins even though AuthenticationError is an OSError subclass:
        # retrying a wrong shared secret can only fail again.
        assert not policy.classify(AuthenticationError("bad secret"))
        assert RetryPolicy.infrastructure().classify(RuntimeError("died"))

    def test_call_retries_until_success_with_the_seeded_delays(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.25, seed=9)
        sleeps, retries, attempts = [], [], {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError(f"transient {attempts['n']}")
            return "ok"

        result = policy.call(
            flaky, sleep=sleeps.append,
            on_retry=lambda attempt, exc, delay: retries.append(attempt),
        )
        assert result == "ok"
        assert attempts["n"] == 3
        assert sleeps == policy.delays(2)
        assert retries == [1, 2]

    def test_call_exhausts_attempts_and_raises_the_last_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        attempts = {"n": 0}

        def always():
            attempts["n"] += 1
            raise OSError("always down")

        with pytest.raises(OSError, match="always down"):
            policy.call(always, sleep=lambda delay: None)
        assert attempts["n"] == 3

    def test_fatal_and_unclassified_errors_raise_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        sleeps: list = []
        for exc in (AuthenticationError("bad secret"), ValueError("a bug")):
            attempts = {"n": 0}

            def failing():
                attempts["n"] += 1
                raise exc

            with pytest.raises(type(exc)):
                policy.call(failing, sleep=sleeps.append)
            assert attempts["n"] == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"max_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": -0.25},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestConnectRetry:
    def test_connect_failure_carries_attempts_and_the_last_socket_error(self):
        # Reserve a port, then close it: connects are refused immediately.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(
            max_attempts=None, base_delay=0.01, max_delay=0.05, jitter=0.0
        )
        with pytest.raises(ConnectionError) as err:
            _connect("127.0.0.1", port, timeout=0.3, policy=policy)
        message = str(err.value)
        assert "could not reach coordinator" in message
        assert "attempt(s)" in message
        assert "last error:" in message
        # The underlying socket error is chained, not discarded.
        assert isinstance(err.value.__cause__, OSError)


# ---------------------------------------------------------------- fault plan
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        scopes = [f"conn{i}:{d}" for i in range(3) for d in ("c2w", "w2c")]
        first = FaultPlan(seed=42, drop_rate=0.2, delay_rate=0.1)
        second = FaultPlan(seed=42, drop_rate=0.2, delay_rate=0.1)
        assert first.schedule(scopes, 200) == second.schedule(scopes, 200)
        different = FaultPlan(seed=43, drop_rate=0.2, delay_rate=0.1)
        assert first.schedule(scopes, 200) != different.schedule(scopes, 200)

    def test_schedule_is_query_order_independent(self):
        # Per-event hash-derived RNG: asking about frames in any order (as
        # racing proxy threads do) cannot perturb any decision.
        plan = FaultPlan(seed=3, drop_rate=0.5, protect_first=0)
        forward = [plan.frame_action("s", i) for i in range(50)]
        backward = [plan.frame_action("s", i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_protect_first_frames_always_pass(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, protect_first=2)
        assert plan.frame_action("s", 0) == "pass"
        assert plan.frame_action("s", 1) == "pass"
        assert plan.frame_action("s", 2) == "drop"

    def test_scripted_cuts_override_rates(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, protect_first=0,
                         truncate_at={"a": 1}, sever_at={"a": 2, "b": 0})
        assert plan.frame_action("a", 1) == "truncate"
        assert plan.frame_action("a", 2) == "sever"
        assert plan.frame_action("b", 0) == "sever"
        assert plan.frame_action("a", 0) == "drop"

    @pytest.mark.parametrize(
        "kwargs",
        [{"drop_rate": 1.5}, {"delay_rate": -0.1},
         {"drop_rate": 0.6, "delay_rate": 0.6}],
    )
    def test_rate_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, **kwargs)

    def test_worker_hook_scripts_crashes_and_records_them(self):
        plan = FaultPlan(worker_faults=(WorkerFault("w0", at_item=2),))
        assert plan.worker_hook("other") is None
        hook = plan.worker_hook("w0")
        hook(0)
        hook(1)
        with pytest.raises(InjectedWorkerCrash):
            hook(2)
        assert plan.events == [{"kind": "crash", "worker": "w0", "item": 2}]

    def test_worker_fault_kind_is_validated(self):
        with pytest.raises(ValueError):
            WorkerFault("w0", at_item=0, kind="explode")

    def test_store_hook_fires_only_at_scripted_points(self):
        assert FaultPlan().store_hook() is None
        plan = FaultPlan(crash_points=frozenset({"before-manifest"}))
        hook = plan.store_hook()
        hook("segment-claimed")  # not scripted: passes
        with pytest.raises(InjectedCrash):
            hook("before-manifest")
        assert plan.events == [{"kind": "store-crash", "point": "before-manifest"}]


# ---------------------------------------------------------------- chaos runs
class TestChaosRuns:
    def test_clean_plan_passes_everything_through(self):
        items = list(range(30))
        outcome, stats = run_chaos_batch(_square, items, FaultPlan(), workers=2)
        assert outcome.values == [x * x for x in items]
        assert stats["dead_workers"] == 0
        assert stats["poisoned"] == 0

    def test_same_fault_seed_reproduces_schedule_and_results(self):
        items = list(range(40))
        scopes = [f"conn{i}:{d}" for i in range(2) for d in ("c2w", "w2c")]
        runs = []
        for _ in range(2):
            plan = FaultPlan(
                seed=5, drop_rate=0.1,
                worker_faults=(WorkerFault("c1", at_item=3, kind="crash"),),
            )
            outcome, _stats = run_chaos_batch(
                _square, items, plan, workers=2, request_timeout=0.3
            )
            runs.append((outcome.values, plan.schedule(scopes, 64)))
        assert runs[0] == runs[1]
        assert runs[0][0] == [x * x for x in items]

    def test_scripted_sever_kills_one_worker_and_the_batch_survives(self):
        items = list(range(40))
        plan = FaultPlan(seed=0, sever_at={"conn0:c2w": 4}, protect_first=2)
        outcome, stats = run_chaos_batch(
            _square, items, plan, workers=2, request_timeout=0.3
        )
        assert outcome.values == [x * x for x in items]
        assert stats["dead_workers"] == 1
        assert any(event["kind"] == "sever" for event in plan.events)

    def test_scripted_truncate_desyncs_and_severs(self):
        items = list(range(40))
        plan = FaultPlan(seed=0, truncate_at={"conn0:c2w": 3}, protect_first=2)
        outcome, stats = run_chaos_batch(
            _square, items, plan, workers=2, request_timeout=0.3
        )
        assert outcome.values == [x * x for x in items]
        assert stats["dead_workers"] == 1
        assert any(event["kind"] == "truncate" for event in plan.events)

    def test_hung_worker_is_recovered_without_being_declared_dead(self):
        items = list(range(30))
        plan = FaultPlan(
            worker_faults=(WorkerFault("c0", at_item=2, kind="hang", seconds=0.8),),
        )
        outcome, stats = run_chaos_batch(
            _square, items, plan, workers=2, heartbeat_timeout=10.0
        )
        assert outcome.values == [x * x for x in items]
        # The hang is shorter than the heartbeat timeout and the heartbeat
        # thread keeps beating through it, so the worker is never retired;
        # peers steal its untouched lease tail and the in-flight item
        # completes once the hang ends.
        assert stats["dead_workers"] == 0
        assert plan.events == [{"kind": "hang", "worker": "c0", "item": 2}]


class TestChaosParity:
    """The acceptance bar: chaos runs stay bit-identical to serial.

    The sweep runs with tracing ENABLED: the hard observability invariant
    is that spans observe and never participate, so a traced chaos run must
    stay bit-identical to the untraced serial baseline -- and the trace it
    writes must parse and carry the cluster's lease/steal story.
    """

    N_GRAPHS = 50

    def test_chaos_sweep_matches_serial_with_drops_and_a_worker_crash(
        self, tmp_path
    ):
        from repro.obs.trace import disable_tracing, enable_tracing

        jobs = cluster_protocol_jobs(self.N_GRAPHS)
        function = partial(_execute_trial, "diff-cluster-protocol")
        serial = [function(job) for job in jobs]
        assert all(result.error is None for result in serial)
        plan = FaultPlan(
            seed=2024, drop_rate=0.08, protect_first=2,
            worker_faults=(WorkerFault("c0", at_item=7, kind="crash"),),
        )
        trace_file = tmp_path / "chaos.jsonl"
        enable_tracing(trace_file, truncate=True)
        try:
            outcome, stats = run_chaos_batch(
                function, jobs, plan, workers=3, request_timeout=0.5
            )
        finally:
            disable_tracing()

        def key(results):
            return [(r.config, r.seed, r.metrics, r.error) for r in results]

        assert key(outcome.values) == key(serial)
        assert stats["dead_workers"] >= 1  # the scripted crash fired
        assert stats["poisoned"] == 0      # one strike never poisons
        assert any(event["kind"] == "crash" for event in plan.events)

        # The trace the sweep produced is loadable and tells the story:
        # every dispatched lease, the scripted death, and the worker-side
        # trial spans shipped back through the chaos proxy.
        from repro.obs.timeline import load_trace, summarize

        events, _skipped = load_trace(trace_file)
        summary = summarize(events)
        assert summary["event_counts"].get("lease.dispatch", 0) >= 1
        assert summary["event_counts"].get("worker.dead", 0) >= 1
        assert summary["stages"].get("trial", {}).get("count", 0) >= self.N_GRAPHS
        assert any(name.startswith("c") for name in summary["workers"])


# -------------------------------------------------------------- poison chunks
class TestPoisonChunks:
    def test_poison_trial_surfaces_as_error_after_bounded_requeues(self):
        jobs = [
            TrialJob.make("pz", {"poison": i == 4}, seed=i, index=i)
            for i in range(12)
        ]
        backend = ClusterBackend(workers=3, max_item_requeues=1, chunk_size=2)
        with backend:
            values = backend.map(_poisonous_trial, jobs)
            stats = backend.coordinator.stats()
        poisoned = [r for r in values if r.error is not None]
        assert len(poisoned) == 1
        assert poisoned[0].config == {"poison": True}
        assert "poison chunk" in poisoned[0].error
        assert "max_item_requeues=1" in poisoned[0].error
        clean = [r for r in values if r.error is None]
        assert sorted(r.metrics["value"] for r in clean) == [
            i for i in range(12) if i != 4
        ]
        # One strike per worker death: the bound of 1 poisons on the second.
        assert stats["poisoned"] == 1
        assert stats["dead_workers"] == 2

    def test_poisoned_plain_items_fail_the_map_loudly(self):
        backend = ClusterBackend(workers=2, max_item_requeues=0, chunk_size=1)
        with pytest.raises(RuntimeError, match="poison chunk"):
            backend.map(_exit_on_three, list(range(6)))

    def test_coordinator_validates_the_bounds(self):
        with pytest.raises(ValueError):
            Coordinator(max_item_requeues=-1)
        with pytest.raises(ValueError):
            Coordinator(heartbeat_timeout=0.0)


# ------------------------------------------------------------------ failover
class TestFailoverBackend:
    def test_registry_resolves_failover(self):
        backend = resolve_backend("failover", workers=3)
        assert isinstance(backend, FailoverBackend)
        assert backend.workers == 3

    def test_degrades_to_the_next_stage_and_stays_there(self):
        flaky = _FlakyBackend()
        backend = FailoverBackend(chain=(flaky, "serial"))
        items = list(range(8))
        assert backend.map(_square, items) == [x * x for x in items]
        assert flaky.calls == 1
        assert len(backend.degradations) == 1
        event = backend.degradations[0]
        assert event["degraded_from"] == "flaky"
        assert event["to"] == "serial"
        assert "flaky infrastructure died" in event["reason"]
        # Sticky: the dead stage is not re-dialed once per batch.
        assert backend.map(_square, items) == [x * x for x in items]
        assert flaky.calls == 1
        assert len(backend.degradations) == 1

    def test_last_stage_failure_raises(self):
        backend = FailoverBackend(chain=(_FlakyBackend(),))
        with pytest.raises(RuntimeError, match="flaky infrastructure died"):
            backend.map(_square, [1, 2])

    def test_workerless_attach_cluster_degrades_instead_of_hanging(self):
        stage = ClusterBackend(
            workers=2, listen=("127.0.0.1", 0), secret="s", startup_timeout=0.2
        )
        backend = FailoverBackend(chain=(stage, "serial"), startup_timeout=0.2)
        items = list(range(6))
        started = time.monotonic()
        assert backend.map(_square, items) == [x * x for x in items]
        assert time.monotonic() - started < WAIT
        assert backend.degradations[0]["degraded_from"] == "cluster"
        assert "no workers registered" in backend.degradations[0]["reason"]

    def test_entered_failover_enters_only_the_active_stage(self):
        flaky = _FlakyBackend()
        with FailoverBackend(chain=(flaky, "serial")) as backend:
            items = list(range(5))
            assert backend.map(_square, items) == [x * x for x in items]
            assert backend.map(_square, items) == [x * x for x in items]
        assert backend.degradations[0]["to"] == "serial"

    def test_engine_provenance_records_degraded_from(self):
        flaky = _FlakyBackend()
        backend = FailoverBackend(chain=(flaky, "serial"))
        engine = ExperimentEngine(backend=backend, use_cache=False)
        jobs = [TrialJob.make("toy", {"x": i}, seed=i, index=i) for i in range(4)]
        results = engine.run_jobs(_toy_trial, jobs)
        assert [r.metrics["value"] for r in results] == [11 * i for i in range(4)]
        provenance = engine_provenance(engine, "e3")
        assert provenance["degraded_from"] == backend.degradations
        assert provenance["degraded_from"][0]["degraded_from"] == "flaky"

    def test_undegraded_engines_record_no_degradation_key(self):
        engine = ExperimentEngine(backend="serial", use_cache=False)
        engine.run_jobs(_toy_trial, [TrialJob.make("toy", {"x": 1}, seed=0)])
        assert "degraded_from" not in engine_provenance(engine, "e3")


# --------------------------------------------------------------- retry hooks
class TestRetryHooks:
    def test_engine_retry_policy_retries_infrastructure_failures(self):
        backend = _FlakyBackend(failures=1)
        engine = ExperimentEngine(
            backend=backend, use_cache=False,
            retry_policy=RetryPolicy.infrastructure(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
        )
        jobs = [TrialJob.make("toy", {"x": i}, seed=i) for i in range(4)]
        results = engine.run_jobs(_toy_trial, jobs)
        assert [r.metrics["value"] for r in results] == [11 * i for i in range(4)]
        assert backend.calls == 2

    def test_trial_exceptions_are_never_retried(self):
        backend = _FlakyBackend(failures=0)
        engine = ExperimentEngine(
            backend=backend, use_cache=False,
            retry_policy=RetryPolicy.infrastructure(max_attempts=5),
        )

        def broken_trial(config, seed):
            raise ValueError("a real trial bug")

        results = engine.run_jobs(broken_trial, [TrialJob.make("t", {}, seed=0)])
        assert backend.calls == 1  # captured as data, not raised -> no retry
        assert "a real trial bug" in results[0].error

    def test_cluster_retry_reruns_the_batch_on_a_fresh_cluster(self):
        backend = ClusterBackend(
            workers=2,
            retry=RetryPolicy.infrastructure(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
        )
        calls = {"n": 0}
        real = backend._map_attempt

        def flaky(function, items):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated mid-batch cluster loss")
            return real(function, items)

        backend._map_attempt = flaky  # instance attribute shadows the method
        values = backend.map(_square, list(range(10)))
        assert values == [x * x for x in range(10)]
        assert calls["n"] == 2

    def test_cluster_retry_exhaustion_still_raises(self):
        backend = ClusterBackend(
            workers=2, listen=("127.0.0.1", 0), secret="s", startup_timeout=0.05,
            retry=RetryPolicy.infrastructure(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
        )
        with pytest.raises(RuntimeError, match="no workers registered"):
            backend.map(_square, [1, 2])


# ---------------------------------------------------------- heartbeat timeout
class TestHeartbeatConfiguration:
    def test_env_fallback_sets_the_backend_timeout(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "0.5")
        assert ClusterBackend(workers=1).heartbeat_timeout == 0.5
        assert heartbeat_timeout_from_env() == 0.5

    def test_unset_env_keeps_the_default(self, monkeypatch):
        monkeypatch.delenv(HEARTBEAT_ENV, raising=False)
        assert ClusterBackend(workers=1).heartbeat_timeout == 10.0
        assert heartbeat_timeout_from_env() is None

    @pytest.mark.parametrize("raw", ["garbage", "0", "-3", "nan"])
    def test_invalid_env_values_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(HEARTBEAT_ENV, raw)
        with pytest.raises(ValueError):
            ClusterBackend(workers=1)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_explicit_non_positive_timeouts_are_rejected(self, value):
        with pytest.raises(ValueError):
            ClusterBackend(workers=1, heartbeat_timeout=value)

    @pytest.mark.parametrize("flag", ["0", "-2.5"])
    def test_cli_rejects_non_positive_heartbeat(self, flag, capsys):
        code, message = cli_error(
            ["experiment", "e3", "--heartbeat-timeout", flag], capsys
        )
        assert code == 2
        assert message.startswith("--heartbeat-timeout must be > 0")

    def test_cli_flag_publishes_the_env_fallback(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "placeholder")  # restored on teardown
        args = build_parser().parse_args(
            ["experiment", "e3", "--heartbeat-timeout", "2.5"]
        )
        _apply_cluster_options(args)
        assert os.environ[HEARTBEAT_ENV] == "2.5"
        assert ClusterBackend(workers=1).heartbeat_timeout == 2.5

    def test_bench_accepts_the_flag_too(self):
        args = build_parser().parse_args(
            ["bench", "e3", "--heartbeat-timeout", "1.5"]
        )
        assert args.heartbeat_timeout == 1.5


# -------------------------------------------------------- store crash recovery
def _trials(n=3):
    return [
        {
            "config": {"family": "f"},
            "seed": i,
            "index": i,
            "duration": 0.25,
            "cached": False,
            "metrics": {"value": i * 2},
        }
        for i in range(n)
    ]


def _ingest(store, experiment="e3", stamp=1.0):
    return store.ingest(
        experiment, _trials(), created_unix=stamp,
        provenance={"code_version": "v1"},
    )


class TestStoreCrashRecovery:
    def test_recording_hook_enumerates_the_writer_crash_points(self, tmp_path):
        store = TrialStore(tmp_path / "probe")
        points = record_store_crash_points(lambda: _ingest(store))
        assert "segment-claimed" in points
        assert "before-manifest" in points
        assert any(p.startswith("column-written:") for p in points)
        assert any(p.startswith("tmp-written:manifest.json") for p in points)

    def test_writer_killed_at_every_crash_point_leaves_a_recoverable_store(
        self, tmp_path
    ):
        probe = TrialStore(tmp_path / "probe")
        points = record_store_crash_points(lambda: _ingest(probe))
        assert points, "the writer exposed no crash points"
        for number, point in enumerate(points):
            root = tmp_path / f"store-{number}"
            store = TrialStore(root)
            healthy = _ingest(store, stamp=1.0)
            with crash_store_at(point):
                with pytest.raises(InjectedCrash):
                    _ingest(store, stamp=2.0)
            # Reads never see the half-written segment.
            assert [info.run_id for info in store.runs()] == [healthy.run_id]
            findings = store.fsck()
            assert len(findings) == 1, (point, findings)
            assert findings[0].kind == "uncommitted"
            repaired = store.fsck(repair=True)
            assert len(repaired) == 1 and repaired[0].repaired
            assert (root / "quarantine" / repaired[0].segment).is_dir()
            assert store.fsck() == []
            assert [info.run_id for info in store.runs()] == [healthy.run_id]

    def test_store_crash_hook_restores_the_previous_hook(self):
        from repro.store import store as store_module

        assert store_module._crash_hook is None
        with store_crash_hook(lambda point: None):
            assert store_module._crash_hook is not None
        assert store_module._crash_hook is None

    def test_corrupt_manifest_is_skipped_with_a_warning(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        good = _ingest(store, stamp=1.0)
        bad = _ingest(store, stamp=2.0)
        (bad.path / "manifest.json").write_text("{ not json at all")
        with pytest.warns(StoreWarning, match="corrupt run manifest"):
            runs = store.runs()
        assert [info.run_id for info in runs] == [good.run_id]
        findings = store.fsck()
        assert [f.kind for f in findings] == ["manifest-corrupt"]

    def test_schema_invalid_manifest_is_skipped_with_a_warning(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        good = _ingest(store, stamp=1.0)
        bad = _ingest(store, stamp=2.0)
        (bad.path / "manifest.json").write_text(json.dumps({"schema": "nope"}))
        with pytest.warns(StoreWarning, match="invalid run manifest"):
            runs = store.runs()
        assert [info.run_id for info in runs] == [good.run_id]
        findings = store.fsck()
        assert [f.kind for f in findings] == ["manifest-schema"]

    def test_truncated_column_is_an_fsck_finding(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        info = _ingest(store)
        spec = info.column_specs()[0]
        column = info.path / spec.file
        column.write_bytes(column.read_bytes()[:-1])
        findings = store.fsck()
        assert [f.kind for f in findings] == ["column"]
        assert spec.name in findings[0].detail
        repaired = store.fsck(repair=True)
        assert repaired[0].repaired
        assert store.runs() == []  # the damaged segment is quarantined

    def test_stray_manifest_tmp_is_reported_and_unlinked(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        info = _ingest(store)
        stray = info.path / "manifest.json.12345.tmp"
        stray.write_text("half-written junk")
        findings = store.fsck()
        assert [f.kind for f in findings] == ["stray-tmp"]
        repaired = store.fsck(repair=True)
        assert repaired[0].repaired
        assert not stray.exists()
        # The healthy segment itself is untouched.
        assert [i.run_id for i in store.runs()] == [info.run_id]
        assert store.fsck() == []

    def test_gc_keeps_the_newest_runs_per_experiment(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        runs_a = [_ingest(store, "ea", stamp=float(i)) for i in range(4)]
        runs_b = [_ingest(store, "eb", stamp=float(i)) for i in range(2)]
        removed = store.gc(keep_last=2)
        assert [info.run_id for info in removed] == [
            runs_a[0].run_id, runs_a[1].run_id
        ]
        assert [info.run_id for info in store.runs("ea")] == [
            runs_a[2].run_id, runs_a[3].run_id
        ]
        assert [info.run_id for info in store.runs("eb")] == [
            info.run_id for info in runs_b
        ]
        with pytest.raises(StoreError):
            store.gc(0)


class TestStoreCliVerbs:
    def test_fsck_clean_store_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        _ingest(TrialStore(store_dir))
        assert kecss_main(["store", "fsck", "--store-dir", str(store_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_repair_quarantines_and_history_keeps_working(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        store = TrialStore(store_dir)
        _ingest(store, stamp=1.0)
        with crash_store_at("before-manifest"):
            with pytest.raises(InjectedCrash):
                _ingest(store, stamp=2.0)
        assert kecss_main(["store", "fsck", "--store-dir", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "uncommitted" in out and "--repair" in out
        assert kecss_main(
            ["store", "fsck", "--repair", "--store-dir", str(store_dir)]
        ) == 1
        assert "quarantined" in capsys.readouterr().out
        assert kecss_main(["store", "fsck", "--store-dir", str(store_dir)]) == 0
        capsys.readouterr()
        assert kecss_main(["store", "ls", "--store-dir", str(store_dir)]) == 0
        assert kecss_main(["history", "e3", "--store-dir", str(store_dir)]) == 0

    def test_gc_cli_retention(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = TrialStore(store_dir)
        for stamp in range(3):
            _ingest(store, stamp=float(stamp))
        assert kecss_main(
            ["store", "gc", "--keep-last", "1", "--store-dir", str(store_dir)]
        ) == 0
        assert "removed 2 run(s)" in capsys.readouterr().out
        assert len(TrialStore(store_dir, create=False).runs()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "gc", "--store-dir", "{d}"],
            ["store", "gc", "--keep-last", "0", "--store-dir", "{d}"],
            ["store", "ls", "--repair", "--store-dir", "{d}"],
            ["store", "fsck", "--keep-last", "1", "--store-dir", "{d}"],
        ],
    )
    def test_usage_errors(self, tmp_path, argv, capsys):
        store_dir = tmp_path / "store"
        _ingest(TrialStore(store_dir))
        argv = [arg.format(d=store_dir) for arg in argv]
        code, message = cli_error(argv, capsys)
        assert code == 2
        assert "--keep-last" in message or "--repair" in message
