"""End-to-end server tests: real sockets on port 0, real threads.

Each test starts a :class:`MediatorServer` on an OS-assigned port,
talks to it with :class:`ServeClient` (the same code path the CLI and
the bench driver use), and shuts it down.  Admission-control behaviors
are forced with a slow source whose latency keeps requests inflight
long enough to fill the queue deterministically.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.mediator import BreakerState, FanoutPolicy
from repro.serve import (
    AdmissionController,
    MediatorServer,
    RequestFailed,
    ServeClient,
    ServePolicy,
    build_paper_federation,
    build_serve_workload,
)
from repro.serve.protocol import (
    QueueDeadlineExceeded,
    ServerOverloaded,
)

VIEW = "journals"


def paper_server(policy=None, n_sources=3, fanout=None):
    mediator = build_paper_federation(n_sources=n_sources, fanout=fanout)
    return MediatorServer(mediator, policy)


class TestServerBasics:
    def test_port_zero_picks_a_free_port(self):
        with paper_server() as server:
            host, port = server.address
            assert host == "127.0.0.1"
            assert port > 0

    def test_ping_views_union_health_stats(self):
        with paper_server(
            fanout=FanoutPolicy(max_workers=2)
        ) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                assert client.ping()
                views = client.views()
                assert VIEW in views
                assert views[VIEW]["sources"] == [
                    "dept0",
                    "dept1",
                    "dept2",
                ]
                assert "<!ELEMENT" in views[VIEW]["dtd"]
                response = client.union(VIEW, budget=5.0)
                assert "<journals>" in response["answer"]
                assert response["degraded"] is False
                health = client.health()
                assert set(health) == {"dept0", "dept1", "dept2"}
                assert all(
                    entry["breaker"] == "closed"
                    for entry in health.values()
                )
                stats = client.stats()
                assert stats["served"] >= 3
                assert stats["latency"]["count"] == 1

    def test_unknown_view_is_a_mediator_error(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.union("nope")
                assert excinfo.value.server_code == "MED001"

    def test_malformed_request_keeps_connection_alive(self):
        import socket as socket_module

        with paper_server() as server:
            host, port = server.address
            raw = socket_module.create_connection((host, port), timeout=5)
            try:
                raw.sendall(b"this is not json\n")
                reader = raw.makefile("rb")
                import json

                error = json.loads(reader.readline())
                assert error["ok"] is False
                assert error["error"]["code"] == "SRV001"
                # Same connection still serves well-formed requests.
                raw.sendall(b'{"op": "ping", "id": 2}\n')
                pong = json.loads(reader.readline())
                assert pong == {"ok": True, "pong": True, "id": 2}
            finally:
                raw.close()

    def test_oversized_line_gets_exactly_one_response(self):
        import json
        import socket as socket_module

        from repro.serve.protocol import MAX_LINE_BYTES

        padding = "x" * (150 * 1024)
        oversized = json.dumps({"op": "ping", "pad": padding}).encode()
        assert len(oversized) > 2 * MAX_LINE_BYTES
        with paper_server() as server:
            host, port = server.address
            raw = socket_module.create_connection((host, port), timeout=5)
            try:
                raw.sendall(oversized + b'\n{"op": "ping", "id": 7}\n')
                reader = raw.makefile("rb")
                error = json.loads(reader.readline())
                assert error["ok"] is False
                assert error["error"]["code"] == "SRV001"
                pong = json.loads(reader.readline())
                assert pong == {"ok": True, "pong": True, "id": 7}
            finally:
                raw.close()
            assert server.stats.snapshot()["requests"] == 2

    def test_budget_must_be_finite_positive_and_not_bool(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                for budget in (float("nan"), float("inf"), True) * 3:
                    with pytest.raises(RequestFailed) as excinfo:
                        client.union(VIEW, budget=budget)
                    assert excinfo.value.server_code == "SRV001"
                health = client.health()
                assert all(
                    entry["breaker"] == "closed"
                    for entry in health.values()
                )
                response = client.union(VIEW, budget=5.0)
                assert "<journals>" in response["answer"]
                assert response["degraded"] is False

    def test_unknown_op(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.request("frobnicate")
                assert excinfo.value.server_code == "SRV002"

    def test_client_shutdown_stops_server(self):
        server = paper_server().start()
        host, port = server.address
        with ServeClient(host, port) as client:
            client.shutdown()
        server.serve_forever()  # returns because shutdown completed
        # The port no longer accepts connections.
        import socket as socket_module

        with pytest.raises(OSError):
            socket_module.create_connection((host, port), timeout=0.5)

    def test_concurrent_clients_all_answered(self):
        with paper_server(
            ServePolicy(max_inflight=4), fanout=FanoutPolicy()
        ) as server:
            host, port = server.address
            answers = []
            errors = []

            def worker():
                try:
                    with ServeClient(host, port) as client:
                        for _ in range(5):
                            answers.append(client.union(VIEW))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=worker) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert len(answers) == 30
            first = answers[0]["answer"]
            assert all(a["answer"] == first for a in answers)


class TestAdmissionController:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"default_budget": float("nan")},
            {"default_budget": float("inf")},
            {"default_budget": 0.0},
            {"default_budget": -1.0},
            {"max_inflight": 0},
            {"max_queue": -1},
            {"per_source_concurrency": -1},
        ],
        ids=lambda knobs: "{}={}".format(*next(iter(knobs.items()))),
    )
    def test_policy_rejects_invalid_configuration(self, knobs):
        # A bad server default must fail at construction, not blame
        # every client request that names no budget (SRV001).
        with pytest.raises(ValueError):
            ServePolicy(**knobs)

    def make_deadline(self, budget):
        from repro.mediator import Deadline, SystemClock

        return Deadline.after(SystemClock(), budget)

    def test_admits_up_to_max_inflight(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        admission.acquire(self.make_deadline(1.0))
        admission.acquire(self.make_deadline(1.0))
        with pytest.raises(ServerOverloaded):
            admission.acquire(self.make_deadline(1.0))
        admission.release()
        admission.acquire(self.make_deadline(1.0))  # freed slot reusable

    def test_queue_full_drops_immediately(self):
        admission = AdmissionController(max_inflight=1, max_queue=1)
        admission.acquire(self.make_deadline(5.0))
        waiter_started = threading.Event()
        waiter_done = threading.Event()

        def waiter():
            waiter_started.set()
            admission.acquire(self.make_deadline(5.0))
            waiter_done.set()
            admission.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        waiter_started.wait(timeout=5)
        # Give the waiter time to enter the queue.
        deadline = time.monotonic() + 5
        while admission.queued() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert admission.queued() == 1
        with pytest.raises(ServerOverloaded):
            admission.acquire(self.make_deadline(5.0))  # queue is full
        admission.release()  # frees the slot; the queued waiter takes it
        assert waiter_done.wait(timeout=5)
        thread.join(timeout=5)

    def test_deadline_expires_in_queue(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        admission.acquire(self.make_deadline(5.0))
        started = time.monotonic()
        with pytest.raises(QueueDeadlineExceeded):
            admission.acquire(self.make_deadline(0.05))
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # dropped at its own budget, not blocked
        assert admission.queued() == 0
        admission.release()


class TestAdmissionOverSockets:
    def test_queue_full_surfaces_srv003(self):
        # One slow source (50ms latency), inflight=1, queue=0: a second
        # concurrent union must be dropped with the overload code.
        mediator = build_serve_workload(
            "flaky",
            n_sources=1,
            latency=0.2,
            fanout=None,
        )
        policy = ServePolicy(
            max_inflight=1, max_queue=0, per_source_concurrency=0
        )
        with MediatorServer(mediator, policy) as server:
            host, port = server.address
            first_sent = threading.Event()
            codes = []

            def slow_request():
                with ServeClient(host, port) as client:
                    first_sent.set()
                    client.union(VIEW, budget=5.0)

            thread = threading.Thread(target=slow_request)
            thread.start()
            first_sent.wait(timeout=5)
            # Wait until the slow request actually holds the slot.
            deadline = time.monotonic() + 5
            while (
                server.admission.inflight() < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.union(VIEW, budget=5.0)
                assert excinfo.value.server_code == "SRV003"
            thread.join(timeout=10)
            assert server.stats.snapshot()["dropped_queue_full"] == 1

    def test_shedding_when_all_breakers_open(self):
        mediator = build_paper_federation(n_sources=2)
        for transport in mediator.transports.values():
            transport.breaker._state = BreakerState.OPEN
            transport.breaker._opened_at = mediator.clock.now()
        with MediatorServer(mediator, ServePolicy()) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.union(VIEW)
                assert excinfo.value.server_code == "SRV005"
                assert client.stats()["shed"] == 1

    def test_per_source_gate_is_installed(self):
        mediator = build_paper_federation(n_sources=2)
        with MediatorServer(
            mediator, ServePolicy(per_source_concurrency=3)
        ) as server:
            for transport in mediator.transports.values():
                assert transport.gate is not None
                # BoundedSemaphore of the configured width
                assert transport.gate._initial_value == 3

    def test_gate_disabled_when_zero(self):
        mediator = build_paper_federation(n_sources=2)
        with MediatorServer(
            mediator, ServePolicy(per_source_concurrency=0)
        ) as server:
            for transport in mediator.transports.values():
                assert transport.gate is None


class TestLargeResponses:
    """Responses are framed by newline alone; the 64 KiB cap is for
    requests, so the client must read an answer of any size whole."""

    def test_union_answers_over_the_request_cap(self):
        from repro.serve.protocol import MAX_LINE_BYTES
        from repro.xmlmodel import serialize_document

        mediator = build_serve_workload("bibdb", n_sources=4, n_docs=16)
        expected = serialize_document(mediator.materialize_union(VIEW))
        assert len(expected.encode("utf-8")) > MAX_LINE_BYTES
        with MediatorServer(mediator) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                # Two calls on one connection: a truncated first read
                # would hand its unread tail to the second call.
                first = client.union(VIEW)
                second = client.union(VIEW)
        assert first["answer"] == expected
        assert second["answer"] == expected

    def test_unterminated_response_is_a_closed_connection(self):
        import socket as socket_module

        from repro.serve import ServeClientError

        listener = socket_module.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()

        def truncating_server():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b'{"ok": true, "pong"')

        thread = threading.Thread(target=truncating_server)
        thread.start()
        try:
            with ServeClient(host, port, timeout=5) as client:
                with pytest.raises(ServeClientError, match="closed"):
                    client.ping()
        finally:
            thread.join(timeout=5)
            listener.close()


class TestWarmCache:
    def cached_server(self, **kwargs):
        from repro.mediator import MatViewPolicy

        mediator = build_paper_federation(
            cache=MatViewPolicy(), **kwargs
        )
        return MediatorServer(mediator, ServePolicy())

    def test_repeat_requests_hit_the_shared_cache(self):
        with self.cached_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                first = client.union(VIEW)
                assert first["cache"] == "miss"
                second = client.union(VIEW)
                assert second["cache"] == "hit"
                assert second["answer"] == first["answer"]
                stats = client.stats()
                assert stats["matview"]["hits"] == 1
                assert stats["matview"]["misses"] == 1
                assert stats["cache_bypassed"] == 0

    def test_cache_false_bypasses_and_is_counted(self):
        with self.cached_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                client.union(VIEW)
                response = client.union(VIEW, cache=False)
                assert response["cache"] == "bypass"
                assert response["cache_code"] == "SRV008"
                stats = client.stats()
                assert stats["cache_bypassed"] == 1
                assert stats["matview"]["bypasses"] == 1
                # the stored entry survived the bypass
                assert client.union(VIEW)["cache"] == "hit"

    def test_uncached_server_reports_off(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                response = client.union(VIEW)
                assert response["cache"] == "off"
                assert "matview" not in client.stats()


class TestBenchDriver:
    def test_run_bench_counts_everything(self):
        from repro.serve import run_bench

        with paper_server(
            ServePolicy(max_inflight=8), fanout=FanoutPolicy()
        ) as server:
            host, port = server.address
            result = run_bench(
                host, port, VIEW, requests=25, concurrency=5
            )
        assert result["answered"] == 25
        assert result["failures"] == 0
        assert result["rejected"] == {}
        assert result["qps"] > 0
        assert result["latency"]["p50"] <= result["latency"]["max"]
