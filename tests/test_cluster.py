"""Tests for the distributed socket work-queue backend (``"cluster"``).

Covers the wire protocol (framing, the frame-size cap, chunk planning, the
shared-secret challenge), the coordinator's lease bookkeeping against
in-process thread workers (ordering, name collisions, failure frames,
one-batch-at-a-time), the batch epoch (stale result/error frames from a
completed batch are dropped, not recorded into the next one), the loopback
backend lifecycle (transient vs entered, registry autoload), lease-based
fault tolerance (killed workers requeue, stealing, all-dead abandonment),
engine integration (worker provenance flowing into the trial store and
``kecss history --by worker``), the acceptance parity sweeps (cluster
bit-identical to serial on 50 seeds x every generator family, including
under an injected worker death), and attach mode (``REPRO_CLUSTER_LISTEN``
+ ``REPRO_CLUSTER_SECRET`` + ``kecss worker``, including surfaced
authentication and registration failures).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.analysis.backends import available_backends, resolve_backend
from repro.analysis.bench import engine_provenance, trial_payload
from repro.analysis.cluster import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SECRET_ENV,
    AuthenticationError,
    ClusterBackend,
    ConnectionClosed,
    Coordinator,
    answer_challenge,
    decode_frame,
    default_chunk_size,
    encode_frame,
    plan_chunks,
    run_worker,
)
from repro.analysis.cluster.backend import LISTEN_ENV, listen_address_from_env
from repro.analysis.cluster.protocol import _MAX_CHUNK, recv_frame, send_frame
from repro.analysis.differential import (
    cluster_protocol_jobs,
    diff_cluster_protocol_trial,
)
from repro.analysis.engine import ExperimentEngine
from repro.cli import main as kecss_main
from repro.graphs.generators import FAMILIES

from _helpers import cli_error

WAIT = 30.0  # generous registration/liveness deadline for slow CI


# Mapped functions live at module level so the fork-spawned loopback workers
# (and pickled chunk frames) resolve them by reference.
def _square(x):
    return x * x


def _nap_then_negate(x):
    time.sleep(0.05)
    return -x


def _uneven_nap(x):
    # Front items are slow, tail items fast: whoever leases the front chunk
    # falls behind, and the drained peer must steal from its tail.
    time.sleep(0.25 if x < 8 else 0.001)
    return -x


def _boom(x):
    raise ValueError(f"infrastructure failure on {x}")


def _sleepy_protocol_trial(job):
    # The real parity payload plus enough latency that a mid-batch worker
    # kill reliably lands while leases are in flight.
    time.sleep(0.002)
    return diff_cluster_protocol_trial(job.config_dict, job.seed)


def _wait_until(predicate, deadline=WAIT, message="condition never became true"):
    limit = time.monotonic() + deadline
    while not predicate():
        assert time.monotonic() < limit, message
        time.sleep(0.01)


def _thread_worker(coordinator, name, capacity=1):
    """Run :func:`run_worker` on a thread (same process: nothing to pickle)."""
    outcome = {}
    address = coordinator.address
    secret = coordinator.secret

    def target():
        outcome.update(
            run_worker(
                address[0],
                address[1],
                secret=secret,
                name=name,
                capacity=capacity,
                heartbeat_interval=0.2,
                connect_timeout=10.0,
            )
        )

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def _handshake(coordinator):
    """Open a raw authenticated+registered test connection to *coordinator*."""
    conn = socket.create_connection(coordinator.address)
    answer_challenge(conn, coordinator.secret)
    send_frame(conn, {
        "type": "register", "proto": PROTOCOL_VERSION,
        "name": "raw", "pid": 1, "host": "h", "capacity": 1,
    })
    welcome = recv_frame(conn)
    assert welcome["type"] == "welcome"
    return conn


def _request_chunk(conn, deadline=WAIT):
    """Request work on a raw connection until a chunk (not a wait) arrives."""
    limit = time.monotonic() + deadline
    while True:
        send_frame(conn, {"type": "request"})
        reply = recv_frame(conn)
        if reply.get("type") == "chunk":
            return reply
        assert time.monotonic() < limit, "never leased a chunk"
        time.sleep(0.01)


# ----------------------------------------------------------------- protocol
class TestProtocol:
    def test_frame_round_trip(self):
        for message in (
            {"type": "request"},
            {"type": "chunk", "lease": 3, "indices": [0, 1], "items": [(1, 2), (3, 4)]},
            {"type": "result", "index": 0, "result": {"nested": [1.5, "x"]}},
        ):
            assert decode_frame(encode_frame(message)) == message

    def test_decode_rejects_truncated_and_mismatched_buffers(self):
        frame = encode_frame({"type": "request"})
        with pytest.raises(ConnectionClosed, match="truncated"):
            decode_frame(frame[:4])
        with pytest.raises(ConnectionClosed, match="length mismatch"):
            decode_frame(frame + b"trailing")
        with pytest.raises(ConnectionClosed, match="length mismatch"):
            decode_frame(frame[:-1])

    def test_send_and_recv_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "heartbeat", "n": 7})
            assert recv_frame(right) == {"type": "heartbeat", "n": 7}
            left.close()
            with pytest.raises(ConnectionClosed, match="closed the connection"):
                recv_frame(right)
        finally:
            right.close()

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 1) == 1
        assert default_chunk_size(1, 8) == 1
        # 4 leases per slot: 100 items over 1 slot -> ceil(100/4) = 25.
        assert default_chunk_size(100, 1) == 25
        assert default_chunk_size(100, 4) == 7
        # Huge sweeps cap out so leases stay stealable.
        assert default_chunk_size(10**6, 1) == _MAX_CHUNK

    @pytest.mark.parametrize("n_items", [0, 1, 2, 7, 64, 65, 400])
    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_plan_chunks_partitions_the_range_exactly(self, n_items, capacity):
        chunks = plan_chunks(n_items, capacity)
        covered = [i for start, stop in chunks for i in range(start, stop)]
        assert covered == list(range(n_items))
        size = default_chunk_size(n_items, capacity)
        assert all(1 <= stop - start <= size for start, stop in chunks)

    def test_plan_chunks_explicit_size_and_rejection(self):
        assert plan_chunks(5, 1, chunk_size=2) == [(0, 2), (2, 4), (4, 5)]
        with pytest.raises(ValueError, match="chunk size"):
            plan_chunks(5, 1, chunk_size=0)

    def test_oversized_frame_header_is_rejected_before_allocation(self):
        """A forged multi-GB length header must not provoke the allocation."""
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(ConnectionClosed, match="frame too large"):
                recv_frame(right)
        finally:
            left.close()
            right.close()
        huge = MAX_FRAME_BYTES.to_bytes(4, "big")  # truncated on purpose
        with pytest.raises(ConnectionClosed, match="truncated"):
            decode_frame(huge)
        forged = (1 << 60).to_bytes(8, "big") + b"x" * 8
        with pytest.raises(ConnectionClosed, match="frame too large"):
            decode_frame(forged)


# -------------------------------------------------- coordinator (thread workers)
class TestCoordinator:
    def test_submit_returns_item_ordered_results_with_attribution(self):
        with Coordinator() as coordinator:
            threads = [
                _thread_worker(coordinator, f"t{i}") for i in range(2)
            ]
            _wait_until(lambda: len(coordinator.live_workers()) == 2)
            outcome = coordinator.submit(_square, list(range(37)))
            assert outcome.values == [x * x for x in range(37)]
            assert set(outcome.worker_of) <= {"t0", "t1"}
            assert all(name is not None for name in outcome.worker_of)
            # A second batch reuses the same registered workers.
            again = coordinator.submit(_square, list(range(5)))
            assert again.values == [0, 1, 4, 9, 16]
            stats = coordinator.stats()
            assert stats["total_completed"] == 42
            assert sorted(stats["workers"]) == ["t0", "t1"]
        for thread, _ in threads:
            thread.join(timeout=WAIT)
            assert not thread.is_alive()

    def test_empty_batch_completes_without_workers(self):
        with Coordinator() as coordinator:
            outcome = coordinator.submit(_square, [])
            assert outcome.values == [] and outcome.worker_of == []

    def test_duplicate_worker_names_are_uniquified(self):
        with Coordinator() as coordinator:
            for _ in range(2):
                _thread_worker(coordinator, "dup")
            _wait_until(lambda: len(coordinator.live_workers()) == 2)
            assert coordinator.live_workers() == ["dup", "dup-2"]

    def test_worker_error_frame_fails_the_batch_loudly(self):
        with Coordinator() as coordinator:
            _thread_worker(coordinator, "t0")
            _wait_until(lambda: coordinator.live_workers() == ["t0"])
            with pytest.raises(RuntimeError, match="(?s)worker failed.*ValueError"):
                coordinator.submit(_boom, [1, 2, 3])
            # The coordinator recovers: the next batch runs normally.
            assert coordinator.submit(_square, [4]).values == [16]

    def test_protocol_version_mismatch_is_rejected_with_a_message(self):
        with Coordinator() as coordinator:
            conn = socket.create_connection(coordinator.address)
            try:
                answer_challenge(conn, coordinator.secret)
                send_frame(conn, {
                    "type": "register", "proto": PROTOCOL_VERSION + 1,
                    "name": "old", "pid": 1, "host": "h", "capacity": 1,
                })
                reply = recv_frame(conn)
                assert reply["type"] == "error"
                assert "protocol version mismatch" in reply["error"]
            finally:
                conn.close()

    def test_one_batch_at_a_time_and_close_mid_batch(self):
        coordinator = Coordinator().start()
        errors: list[str] = []

        def submit_forever():
            try:
                coordinator.submit(_square, [1, 2, 3])
            except RuntimeError as exc:
                errors.append(str(exc))

        background = threading.Thread(target=submit_forever, daemon=True)
        background.start()
        _wait_until(lambda: coordinator.stats()["batch_remaining"] is not None)
        with pytest.raises(RuntimeError, match="already in flight"):
            coordinator.submit(_square, [4])
        coordinator.close()
        background.join(timeout=WAIT)
        assert errors and "closed mid-batch" in errors[0]
        with pytest.raises(RuntimeError, match="coordinator is closed"):
            coordinator.submit(_square, [5])


# --------------------------------------------------------------- batch epoch
class TestBatchEpoch:
    """Frames that outlive their batch are dropped, never recorded.

    A steal victim is never told its lease was trimmed: after a batch
    completes it can keep streaming results for stolen-tail items.  With
    the coordinator reused across batches (``with engine:``), those frames
    arrive while the *next* batch is in flight and pass the index bounds
    check -- only the echoed batch epoch distinguishes them.
    """

    def _submit_in_background(self, coordinator, items, outcomes, errors):
        def target():
            try:
                outcomes.append(
                    coordinator.submit(_square, items, chunk_size=len(items))
                )
            except RuntimeError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread

    def test_stale_result_frames_are_dropped_not_recorded(self):
        outcomes, errors = [], []
        with Coordinator() as coordinator:
            conn = _handshake(coordinator)
            try:
                first = self._submit_in_background(
                    coordinator, [1, 2], outcomes, errors
                )
                chunk1 = _request_chunk(conn)
                for index, item in zip(chunk1["indices"], chunk1["items"]):
                    send_frame(conn, {
                        "type": "result", "lease": chunk1["lease"],
                        "batch": chunk1["batch"], "index": index,
                        "result": item * item,
                    })
                first.join(timeout=WAIT)
                assert outcomes[0].values == [1, 4]

                second = self._submit_in_background(
                    coordinator, [10, 20], outcomes, errors
                )
                chunk2 = _request_chunk(conn)
                assert chunk2["batch"] == chunk1["batch"] + 1
                # The stale frame targets index 0 with a poison value; it
                # must be dropped so the fresh result is not treated as a
                # duplicate of it.
                send_frame(conn, {
                    "type": "result", "lease": chunk1["lease"],
                    "batch": chunk1["batch"], "index": 0, "result": "poison",
                })
                for index, item in zip(chunk2["indices"], chunk2["items"]):
                    send_frame(conn, {
                        "type": "result", "lease": chunk2["lease"],
                        "batch": chunk2["batch"], "index": index,
                        "result": item * item,
                    })
                second.join(timeout=WAIT)
            finally:
                conn.close()
            stats = coordinator.stats()
        assert errors == []
        assert outcomes[1].values == [100, 400]
        assert stats["stale_frames"] >= 1
        assert stats["duplicates"] == 0

    def test_stale_error_frames_do_not_abort_the_current_batch(self):
        outcomes, errors = [], []
        with Coordinator() as coordinator:
            conn = _handshake(coordinator)
            try:
                # No batch in flight: an unsolicited error frame is noise.
                send_frame(conn, {
                    "type": "error", "batch": 999, "index": 0, "error": "boom",
                })
                batch = self._submit_in_background(
                    coordinator, [3], outcomes, errors
                )
                chunk = _request_chunk(conn)
                # An error tagged with the previous epoch is ignored...
                send_frame(conn, {
                    "type": "error", "batch": chunk["batch"] - 1,
                    "index": 0, "error": "stale boom",
                })
                # ...and the in-flight batch still completes normally.
                send_frame(conn, {
                    "type": "result", "lease": chunk["lease"],
                    "batch": chunk["batch"], "index": chunk["indices"][0],
                    "result": 9,
                })
                batch.join(timeout=WAIT)
            finally:
                conn.close()
            stats = coordinator.stats()
        assert errors == []
        assert outcomes and outcomes[0].values == [9]
        assert stats["stale_frames"] >= 2

    def test_current_epoch_error_frames_still_fail_the_batch(self):
        outcomes, errors = [], []
        with Coordinator() as coordinator:
            conn = _handshake(coordinator)
            try:
                batch = self._submit_in_background(
                    coordinator, [3], outcomes, errors
                )
                chunk = _request_chunk(conn)
                send_frame(conn, {
                    "type": "error", "batch": chunk["batch"],
                    "index": chunk["indices"][0], "error": "real boom",
                })
                batch.join(timeout=WAIT)
            finally:
                conn.close()
        assert outcomes == []
        assert errors and "real boom" in errors[0]


# ------------------------------------------------------------- authentication
class TestAuthentication:
    def test_wrong_secret_is_rejected_before_registration(self):
        with Coordinator() as coordinator:
            host, port = coordinator.address
            with pytest.raises(AuthenticationError, match="shared secret"):
                run_worker(host, port, secret="not-the-secret",
                           connect_timeout=5.0)
            assert coordinator.live_workers() == []

    def test_unauthenticated_peer_never_reaches_the_frame_layer(self):
        with Coordinator() as coordinator:
            conn = socket.create_connection(coordinator.address)
            try:
                # Skip the challenge and push a register frame: the
                # coordinator reads it as a (wrong) digest, denies, and
                # closes without ever unpickling it.
                send_frame(conn, {
                    "type": "register", "proto": PROTOCOL_VERSION,
                    "name": "intruder", "pid": 1, "host": "h", "capacity": 1,
                })
                conn.settimeout(WAIT)
                with pytest.raises((ConnectionClosed, OSError)):
                    while True:
                        recv_frame(conn)
            finally:
                conn.close()
            assert coordinator.live_workers() == []

    def test_registration_rejection_surfaces_to_the_caller(self, monkeypatch):
        import repro.analysis.cluster.worker as worker_module

        monkeypatch.setattr(
            worker_module, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1
        )
        with Coordinator() as coordinator:
            host, port = coordinator.address
            with pytest.raises(ConnectionClosed, match="rejected registration"):
                run_worker(host, port, secret=coordinator.secret,
                           connect_timeout=5.0)
class TestLoopbackBackend:
    def test_registry_autoloads_the_cluster_backend(self):
        assert "cluster" in available_backends()
        backend = resolve_backend("cluster", workers=2)
        assert isinstance(backend, ClusterBackend)
        assert backend.workers == 2 and backend.name == "cluster"

    def test_transient_map_matches_the_serial_computation(self):
        backend = ClusterBackend(workers=2)
        assert backend.map(_square, range(19)) == [x * x for x in range(19)]
        # Transient: nothing is left running between calls.
        assert backend._coordinator is None and backend.processes == ()

    def test_entered_backend_reuses_one_cluster_across_maps(self):
        backend = ClusterBackend(workers=2)
        with backend:
            coordinator = backend.coordinator
            first = backend.map(_square, range(8))
            second = backend.map(_square, range(8, 16))
            assert backend.coordinator is coordinator
            assert all(process.is_alive() for process in backend.processes)
        assert first + second == [x * x for x in range(16)]
        assert backend._coordinator is None and backend.processes == ()

    def test_single_item_chunks_preserve_order(self):
        backend = ClusterBackend(workers=3, chunk_size=1)
        with backend:
            assert backend.map(_square, range(11)) == [x * x for x in range(11)]

    def test_empty_items(self):
        with ClusterBackend(workers=2) as backend:
            assert backend.map(_square, []) == []

    def test_failed_batch_surfaces_and_the_backend_recovers(self):
        with ClusterBackend(workers=2) as backend:
            with pytest.raises(RuntimeError, match="worker failed"):
                backend.map(_boom, [1, 2, 3])
            assert backend.map(_square, [7]) == [49]


# ------------------------------------------------------------ fault tolerance
class TestFaultTolerance:
    def test_killed_worker_requeues_and_results_stay_identical(self):
        backend = ClusterBackend(workers=2, chunk_size=4)
        with backend:
            coordinator = backend.coordinator

            def victim_is_mid_lease():
                # One completed item of a 4-item lease: w0 provably holds a
                # lease with unfinished indices, so the kill must requeue.
                completed = coordinator.stats()["workers"].get("w0", {}).get(
                    "completed", 0
                )
                return completed % 4 == 1

            def kill_one_mid_batch():
                _wait_until(victim_is_mid_lease, message="w0 never held a lease")
                backend.processes[0].terminate()

            killer = threading.Thread(target=kill_one_mid_batch, daemon=True)
            killer.start()
            values = backend.map(_nap_then_negate, list(range(40)))
            killer.join(timeout=WAIT)
            stats = coordinator.stats()
        assert values == [-x for x in range(40)]
        assert stats["dead_workers"] == 1
        assert stats["requeued"] >= 1

    def test_idle_worker_steals_from_a_slow_peer(self):
        backend = ClusterBackend(workers=2, chunk_size=8)
        with backend:
            values = backend.map(_uneven_nap, list(range(16)))
            stats = backend.coordinator.stats()
        assert values == [-x for x in range(16)]
        assert stats["steals"] >= 1

    def test_batch_fails_when_every_loopback_worker_is_dead(self):
        backend = ClusterBackend(workers=1)
        with backend:
            _wait_until(lambda: backend.coordinator.live_workers())
            backend.processes[0].terminate()
            _wait_until(lambda: not backend.coordinator.live_workers())
            with pytest.raises(RuntimeError, match="every cluster worker died"):
                backend.map(_square, [1, 2, 3])


# --------------------------------------------------------- engine integration
class TestEngineIntegration:
    def test_run_jobs_matches_serial_and_records_worker_provenance(self):
        jobs = cluster_protocol_jobs(n_graphs=2)
        with ExperimentEngine(backend="serial", use_cache=False) as serial:
            base = serial.run_jobs("diff-cluster-protocol", jobs)
        with ExperimentEngine(
            backend="cluster", workers=2, use_cache=False
        ) as engine:
            fast = engine.run_jobs("diff-cluster-protocol", jobs)
        assert [(r.config, r.seed, r.metrics, r.error) for r in base] == [
            (r.config, r.seed, r.metrics, r.error) for r in fast
        ]
        assert all(r.worker is None for r in base)
        assert {r.worker for r in fast} <= {"w0", "w1"}
        assert all(r.worker is not None for r in fast)

    def test_entered_engine_keeps_one_coordinator_across_batches(self):
        jobs = cluster_protocol_jobs(n_graphs=1)
        engine = ExperimentEngine(backend="cluster", workers=2, use_cache=False)
        with engine:
            backend = engine._backend_instance()
            engine.run_jobs("diff-cluster-protocol", jobs)
            coordinator = backend.coordinator
            engine.run_jobs("diff-cluster-protocol", jobs)
            assert backend.coordinator is coordinator
        assert backend._coordinator is None

    def test_worker_provenance_round_trips_the_store_and_history(
        self, tmp_path, capsys
    ):
        """Cluster runs land a ``worker`` column; ``history --by worker`` groups on it."""
        from repro.store import TrialStore, import_baseline

        jobs = cluster_protocol_jobs(n_graphs=2)
        engine = ExperimentEngine(backend="cluster", workers=2, use_cache=False)
        with engine:
            results = engine.run_jobs("diff-cluster-protocol", jobs)
        payload = {
            "schema": "kecss-bench-baseline",
            "schema_version": 1,
            "experiment": "diff-cluster-protocol",
            "created_unix": 1.0,
            "provenance": engine_provenance(engine, "diff-cluster-protocol"),
            "table": {"title": "t", "columns": ["x"], "rows": [[1]], "notes": []},
            "trials": [
                trial_payload(job, result) for job, result in zip(jobs, results)
            ],
            "summary": {"trial_count": len(results)},
        }
        assert all(trial["worker"] is not None for trial in payload["trials"])

        store_dir = tmp_path / "store"
        store = TrialStore(store_dir)
        import_baseline(store, payload)
        (info,) = store.runs("diff-cluster-protocol")
        columns = store.columns(info)
        assert set(columns["worker"]) <= {"w0", "w1"}

        capsys.readouterr()
        assert kecss_main([
            "history", "diff-cluster-protocol", "--store-dir", str(store_dir),
            "--metric", "frame_bytes", "--by", "worker",
        ]) == 0
        out = capsys.readouterr().out
        assert "metric frame_bytes by worker" in out
        assert "w0" in out or "w1" in out


# ------------------------------------------------------- acceptance parity
class TestParitySweeps:
    """The acceptance bar: bit-identical to serial, 50 seeds x every family."""

    N_GRAPHS = 50

    def test_cluster_matches_serial_on_the_full_grid(self):
        jobs = cluster_protocol_jobs(self.N_GRAPHS)
        assert len(jobs) == self.N_GRAPHS * len(FAMILIES)
        with ExperimentEngine(backend="serial", use_cache=False) as serial:
            base = serial.run_jobs("diff-cluster-protocol", jobs)
        with ExperimentEngine(
            backend="cluster", workers=4, use_cache=False
        ) as engine:
            fast = engine.run_jobs("diff-cluster-protocol", jobs)
        assert all(r.error is None for r in base)
        assert [(r.config, r.seed, r.metrics, r.error) for r in base] == [
            (r.config, r.seed, r.metrics, r.error) for r in fast
        ]

    def test_cluster_matches_serial_under_an_injected_worker_death(self):
        jobs = cluster_protocol_jobs(self.N_GRAPHS)
        expected = [
            diff_cluster_protocol_trial(job.config_dict, job.seed) for job in jobs
        ]
        backend = ClusterBackend(workers=2, chunk_size=8)
        with backend:
            coordinator = backend.coordinator

            def kill_one_mid_batch():
                _wait_until(
                    lambda: coordinator.stats()["total_completed"] >= 25,
                    message="sweep never made progress",
                )
                backend.processes[0].terminate()

            killer = threading.Thread(target=kill_one_mid_batch, daemon=True)
            killer.start()
            values = backend.map(_sleepy_protocol_trial, jobs)
            killer.join(timeout=WAIT)
            stats = coordinator.stats()
        assert stats["dead_workers"] == 1
        assert values == expected


# ----------------------------------------------------- attach mode + CLI verb
class TestAttachModeAndWorkerCli:
    def test_attach_mode_serves_external_workers_instead_of_spawning(self):
        backend = ClusterBackend(
            workers=2, listen=("127.0.0.1", 0), secret="attach-secret"
        )
        assert backend.attached
        with backend:
            assert backend.processes == ()
            coordinator = backend.coordinator
            threads = [_thread_worker(coordinator, f"ext{i}") for i in range(2)]
            _wait_until(lambda: len(backend.coordinator.live_workers()) == 2)
            assert backend.map(_square, range(31)) == [x * x for x in range(31)]
            assert backend.coordinator.live_workers() == ["ext0", "ext1"]
        for thread, outcome in threads:
            thread.join(timeout=WAIT)
            assert not thread.is_alive()
        # Stealing may compute an item on both workers (the coordinator
        # dedups first-wins), so the raw per-worker counts sum to >= n.
        assert sum(outcome["computed"] for _, outcome in threads) >= 31

    def test_listen_env_switches_the_backend_into_attach_mode(self, monkeypatch):
        monkeypatch.setenv(LISTEN_ENV, "0.0.0.0:7781")
        assert listen_address_from_env() == ("0.0.0.0", 7781)
        assert ClusterBackend(workers=2).listen == ("0.0.0.0", 7781)
        monkeypatch.setenv(LISTEN_ENV, "")
        assert listen_address_from_env() is None
        assert not ClusterBackend(workers=2).attached
        monkeypatch.setenv(LISTEN_ENV, "no-port-here")
        with pytest.raises(ValueError, match="HOST:PORT"):
            listen_address_from_env()
        monkeypatch.setenv(LISTEN_ENV, "host:notaport")
        with pytest.raises(ValueError, match="non-numeric port"):
            listen_address_from_env()

    def test_attach_mode_without_a_secret_refuses_to_listen(self, monkeypatch):
        monkeypatch.delenv(SECRET_ENV, raising=False)
        backend = ClusterBackend(workers=1, listen=("127.0.0.1", 0))
        with pytest.raises(RuntimeError, match=SECRET_ENV):
            backend.map(_square, [1])

    def test_secret_env_reaches_an_attach_mode_backend(self, monkeypatch):
        monkeypatch.setenv(SECRET_ENV, "env-secret")
        backend = ClusterBackend(workers=1, listen=("127.0.0.1", 0))
        assert backend.secret == "env-secret"

    def test_kecss_worker_serves_a_coordinator_and_exits_cleanly(
        self, capsys, monkeypatch
    ):
        with Coordinator() as coordinator:
            monkeypatch.setenv(SECRET_ENV, coordinator.secret)
            host, port = coordinator.address
            exit_codes: list[int] = []

            def cli_worker():
                exit_codes.append(kecss_main([
                    "worker", "--connect", f"{host}:{port}",
                    "--name", "cli-w", "--connect-timeout", "10",
                ]))

            thread = threading.Thread(target=cli_worker, daemon=True)
            thread.start()
            _wait_until(lambda: coordinator.live_workers() == ["cli-w"])
            outcome = coordinator.submit(_square, list(range(9)))
            assert outcome.values == [x * x for x in range(9)]
            assert set(outcome.worker_of) == {"cli-w"}
        thread.join(timeout=WAIT)
        assert exit_codes == [0]
        assert "computed 9 item(s)" in capsys.readouterr().err

    def test_kecss_worker_rejects_malformed_addresses(self, capsys):
        code, message = cli_error(["worker", "--connect", "nocolon"], capsys)
        assert code == 2
        assert message == "--connect expects HOST:PORT, got 'nocolon'"
        code, message = cli_error(["worker", "--connect", "host:xyz"], capsys)
        assert code == 2
        assert message == "--connect has a non-numeric port: 'host:xyz'"

    def test_kecss_worker_unreachable_coordinator_is_exit_code_1(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv(SECRET_ENV, "any-secret")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        assert kecss_main([
            "worker", "--connect", f"127.0.0.1:{port}", "--connect-timeout", "0.3",
        ]) == 1
        assert "cannot reach coordinator" in capsys.readouterr().err

    def test_kecss_worker_without_the_secret_env_is_a_usage_error(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv(SECRET_ENV, raising=False)
        assert kecss_main(["worker", "--connect", "127.0.0.1:1"]) == 2
        assert SECRET_ENV in capsys.readouterr().err

    def test_kecss_worker_wrong_secret_is_surfaced_and_exit_code_1(
        self, capsys, monkeypatch
    ):
        with Coordinator() as coordinator:
            monkeypatch.setenv(SECRET_ENV, "definitely-wrong")
            host, port = coordinator.address
            assert kecss_main(["worker", "--connect", f"{host}:{port}"]) == 1
        assert "shared secret" in capsys.readouterr().err

    def test_kecss_worker_registration_rejection_is_exit_code_1(
        self, capsys, monkeypatch
    ):
        import repro.analysis.cluster.worker as worker_module

        monkeypatch.setattr(
            worker_module, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1
        )
        with Coordinator() as coordinator:
            monkeypatch.setenv(SECRET_ENV, coordinator.secret)
            host, port = coordinator.address
            assert kecss_main(["worker", "--connect", f"{host}:{port}"]) == 1
        err = capsys.readouterr().err
        assert "rejected registration" in err
        assert "computed 0 item(s)" not in err


def test_baseline_payload_with_workers_is_valid_json(tmp_path):
    """The worker field serialises cleanly inside a written baseline."""
    jobs = cluster_protocol_jobs(n_graphs=1)
    with ExperimentEngine(backend="cluster", workers=2, use_cache=False) as engine:
        results = engine.run_jobs("diff-cluster-protocol", jobs)
    payloads = [trial_payload(job, result) for job, result in zip(jobs, results)]
    text = json.dumps(payloads)
    assert all(trial["worker"] in {"w0", "w1"} for trial in json.loads(text))
