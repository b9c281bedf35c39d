"""The concurrent mediator front end behind ``repro serve``.

A :class:`MediatorServer` keeps one warm :class:`~repro.mediator.Mediator`
— view plans compiled, document indexes built, fan-out pool up — behind
a TCP socket speaking the JSON-line protocol of
:mod:`repro.serve.protocol`, one handler thread per connection.

What stands between the socket and the mediator is *admission control*
(:class:`AdmissionController`): the request path is bounded at every
point where an unbounded queue could hide, so overload degrades into
fast, explicit rejections instead of collapse:

* **bounded inflight** -- at most ``max_inflight`` requests evaluate at
  once; arrivals beyond that wait for a slot;
* **bounded queue, deadline-aware drop** -- at most ``max_queue``
  requests wait, each at most until its own budget expires (a request
  that would time out anyway is dropped *in the queue*, spending none
  of the mediator's capacity on a dead answer);
* **load shedding** -- when every source's circuit breaker is open the
  mediator cannot produce even a degraded answer, so union requests are
  rejected immediately (``SRV005``) without queuing;
* **per-source concurrency** -- each source transport is gated by a
  semaphore of ``per_source_concurrency`` slots, bounding the pressure
  any number of concurrent fan-outs can put on one wrapper.

See ``docs/SERVING.md`` for the protocol, tuning guidance, and the
relationship to the paper's mediator architecture.
"""

from __future__ import annotations

import math
import socket
import threading
from dataclasses import dataclass, field

from .. import obs
from ..dtd import serialize_dtd
from ..errors import ReproError
from ..mediator import BreakerState, Deadline, Mediator
from ..xmlmodel import serialize_document
from . import protocol
from .protocol import (
    LoadShedding,
    QueueDeadlineExceeded,
    ServerOverloaded,
    UnknownOperation,
)


@dataclass(frozen=True)
class ServePolicy:
    """Admission-control and serving knobs for a :class:`MediatorServer`."""

    #: requests evaluating concurrently before arrivals queue
    max_inflight: int = 8
    #: requests allowed to wait for a slot before hard rejection
    max_queue: int = 16
    #: deadline budget (seconds) for requests that name none
    default_budget: float = 2.0
    #: per-source transport concurrency gate (0 disables the gate)
    per_source_concurrency: int = 4


@dataclass
class ServerStats:
    """Counters the ``stats`` operation reports (lock-guarded)."""

    connections: int = 0
    requests: int = 0
    served: int = 0
    errors: int = 0
    dropped_queue_full: int = 0
    dropped_queue_deadline: int = 0
    shed: int = 0
    #: union requests that opted out of the matview cache (SRV008)
    cache_bypassed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, attribute: str) -> None:
        with self._lock:
            setattr(self, attribute, getattr(self, attribute) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "served": self.served,
                "errors": self.errors,
                "dropped_queue_full": self.dropped_queue_full,
                "dropped_queue_deadline": self.dropped_queue_deadline,
                "shed": self.shed,
                "cache_bypassed": self.cache_bypassed,
            }


class AdmissionController:
    """Bounded inflight + bounded, deadline-aware wait queue.

    ``acquire`` admits the caller when an inflight slot is free,
    raising :class:`ServerOverloaded` when the wait queue is already
    full and :class:`QueueDeadlineExceeded` when the caller's own
    budget dies first.  Every admission must be paired with
    ``release`` (use the context manager ``admitted``).
    """

    def __init__(self, max_inflight: int, max_queue: int) -> None:
        self.max_inflight = max(1, max_inflight)
        self.max_queue = max(0, max_queue)
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0

    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def queued(self) -> int:
        with self._cond:
            return self._queued

    def acquire(self, deadline: Deadline) -> None:
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._queued >= self.max_queue:
                raise ServerOverloaded(
                    f"admission queue full "
                    f"({self._queued} waiting, "
                    f"{self._inflight} inflight)"
                )
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise QueueDeadlineExceeded(
                            "request budget expired waiting for an "
                            "inflight slot"
                        )
                    self._cond.wait(remaining)
                self._inflight += 1
            finally:
                self._queued -= 1

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify()


class MediatorServer:
    """One warm mediator behind a JSON-line TCP socket.

    ``start()`` binds (``port=0`` picks a free port — ``address``
    reports the real one), warms the mediator's plans and indexes,
    installs the per-source concurrency gates, and spawns the accept
    loop; ``stop()`` (or a client ``shutdown`` request) closes the
    listening socket and joins the handler threads.  Usable as a
    context manager.
    """

    def __init__(
        self,
        mediator: Mediator,
        policy: ServePolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.mediator = mediator
        self.policy = policy or ServePolicy()
        self.host = host
        self.port = port
        self.stats = ServerStats()
        self.admission = AdmissionController(
            self.policy.max_inflight, self.policy.max_queue
        )
        #: request latencies (seconds) as measured server-side
        self.latency = obs.Histogram()
        self._socket: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._handlers_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after ``start()``."""
        if self._socket is None:
            raise RuntimeError("server not started")
        return self._socket.getsockname()[:2]

    def start(self) -> "MediatorServer":
        if self._socket is not None:
            raise RuntimeError("server already started")
        warmed = self.mediator.warm()
        if self.policy.per_source_concurrency > 0:
            for transport in self.mediator.transports.values():
                transport.gate = threading.BoundedSemaphore(
                    self.policy.per_source_concurrency
                )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._socket = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="repro-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        with obs.span("serve.start") as sp:
            sp.set_attribute("indexed_documents", warmed)
            sp.set_attribute("port", self.address[1])
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, join handlers (idempotent)."""
        if self._stopping.is_set() or self._socket is None:
            return
        self._stopping.set()
        try:
            # Unblock accept() portably: connect-then-close to ourselves.
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        self._socket.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)
        self.mediator.close()
        self._stopped.set()

    def serve_forever(self) -> None:
        """Block until ``stop()`` (or a client ``shutdown``) completes."""
        self._stopped.wait()

    def __enter__(self) -> "MediatorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling ---------------------------------------------

    def _accept_loop(self) -> None:
        assert self._socket is not None
        while not self._stopping.is_set():
            try:
                connection, _ = self._socket.accept()
            except OSError:
                break
            if self._stopping.is_set():
                connection.close()
                break
            self.stats.bump("connections")
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._handlers_lock:
                self._handlers = [
                    t for t in self._handlers if t.is_alive()
                ]
                self._handlers.append(handler)
            handler.start()

    def _handle_connection(self, connection: socket.socket) -> None:
        try:
            reader = connection.makefile("rb")
            while not self._stopping.is_set():
                line = reader.readline(protocol.MAX_LINE_BYTES + 1)
                if not line:
                    break
                oversized = len(line) > protocol.MAX_LINE_BYTES
                if oversized and not line.endswith(b"\n"):
                    # Oversized: drop the rest of the line, so that it
                    # earns exactly one (SRV001) response.
                    rest = line
                    while rest and not rest.endswith(b"\n"):
                        rest = reader.readline(protocol.MAX_LINE_BYTES)
                else:
                    line = line.strip()
                    if not line:
                        continue
                response, shutdown = self._handle_line(line)
                try:
                    connection.sendall(protocol.encode(response))
                except OSError:
                    break
                if shutdown:
                    # Respond first, then stop from a thread that is
                    # not among the handlers stop() joins.
                    threading.Thread(
                        target=self.stop, daemon=True
                    ).start()
                    break
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _handle_line(self, line: bytes) -> tuple[dict, bool]:
        """One request line to one response dict (+ shutdown flag)."""
        self.stats.bump("requests")
        request_id = None
        try:
            request = protocol.decode(line)
            request_id = request.get("id")
            response, shutdown = self._dispatch(request)
            if request_id is not None:
                response["id"] = request_id
            self.stats.bump("served")
            return response, shutdown
        except ReproError as error:
            self.stats.bump("errors")
            return protocol.error_response(error, request_id), False

    def _dispatch(self, request: dict) -> tuple[dict, bool]:
        op = request["op"]
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "views":
            return {"ok": True, "views": self._views()}, False
        if op == "union":
            return self._op_union(request), False
        if op == "health":
            return {"ok": True, "health": self.mediator.health()}, False
        if op == "stats":
            return {"ok": True, "stats": self._stats()}, False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        raise UnknownOperation(f"unknown operation {op!r}")

    # -- operations ------------------------------------------------------

    def _views(self) -> dict:
        return {
            name: {
                "sources": list(registration.source_names),
                "dtd": serialize_dtd(registration.dtd),
            }
            for name, registration in sorted(
                self.mediator.union_views.items()
            )
        }

    def _breakers_all_open(self) -> bool:
        transports = self.mediator.transports.values()
        if not transports:
            return False
        return all(
            transport.breaker.state is BreakerState.OPEN
            for transport in transports
        )

    def _op_union(self, request: dict) -> dict:
        view = request.get("view")
        if not isinstance(view, str):
            raise protocol.ProtocolError(
                "union request needs a string 'view' field"
            )
        budget = request.get("budget", self.policy.default_budget)
        if isinstance(budget, bool) or not (
            isinstance(budget, (int, float)) and 0 < budget < math.inf
        ):
            raise protocol.ProtocolError(
                "'budget' must be a finite positive number of seconds"
            )
        degrade = bool(request.get("degrade", True))
        use_cache = bool(request.get("cache", True))
        if not use_cache:
            self.stats.bump("cache_bypassed")
        if self._breakers_all_open():
            self.stats.bump("shed")
            raise LoadShedding(
                "all source circuit breakers are open; "
                "not queueing a request that cannot be answered"
            )
        deadline = self.mediator.deadline(float(budget))
        started = self.mediator.clock.now()
        try:
            self.admission.acquire(deadline)
        except ServerOverloaded:
            self.stats.bump("dropped_queue_full")
            raise
        except QueueDeadlineExceeded:
            self.stats.bump("dropped_queue_deadline")
            raise
        try:
            document = self.mediator.materialize_union(
                view, deadline, degrade=degrade, cache=use_cache
            )
            report = self.mediator.last_degradation
            cache_outcome = self.mediator.last_cache_outcome
        finally:
            self.admission.release()
        elapsed = self.mediator.clock.now() - started
        self.latency.observe(elapsed)
        # A hit or a delta is sent as the bytes its matview entry
        # keeps; every other answer (a miss, cache off or bypassed,
        # degraded, refused by the cache's freshness check) goes
        # through the document writer here.
        encoded = None
        if cache_outcome in ("hit", "delta"):
            encoded = self.mediator.matview.answer_json(document)
        response = {
            "ok": True,
            "answer": (
                serialize_document(document)
                if encoded is None
                else protocol.Encoded(encoded)
            ),
            "degraded": report is not None,
            "elapsed": round(elapsed, 6),
            "cache": cache_outcome,
        }
        if cache_outcome == "bypass":
            response["cache_code"] = protocol.CACHE_BYPASS
        if report is not None:
            response["skipped"] = dict(sorted(report.skipped.items()))
            response["answered"] = list(report.answered)
        return response

    def _stats(self) -> dict:
        snapshot = self.stats.snapshot()
        snapshot["inflight"] = self.admission.inflight()
        snapshot["queued"] = self.admission.queued()
        snapshot["latency"] = {
            "count": self.latency.count,
            "p50": self.latency.quantile(0.5),
            "p95": self.latency.quantile(0.95),
            "max": self.latency.max,
        }
        if self.mediator.matview is not None:
            snapshot["matview"] = self.mediator.matview.info()
        return snapshot
