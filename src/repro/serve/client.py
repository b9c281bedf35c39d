"""Client side of the ``repro serve`` protocol, plus the bench driver.

:class:`ServeClient` is a tiny blocking client: one TCP connection,
one in-order request/response pair per call.  ``run_bench`` is the
load driver behind ``repro bench-serve``: ``concurrency`` client
threads each issue union requests against a running server and the
aggregate (throughput, latency quantiles, error/degradation counts)
comes back as a plain dict.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

from ..errors import ReproError, register_diagnostic_code
from . import protocol


class ServeClientError(ReproError):
    """The server closed the connection or broke protocol framing."""

    code = register_diagnostic_code(
        "SRV006", "serve client: connection closed or framing broken"
    )


class RequestFailed(ReproError):
    """An ``ok: false`` response; carries the server's diagnostic code."""

    code = register_diagnostic_code(
        "SRV007", "serve client: request failed server-side"
    )

    def __init__(self, error: dict) -> None:
        self.server_code = error.get("code", "REPRO001")
        super().__init__(
            f"[{self.server_code}] {error.get('message', 'request failed')}"
        )


class ServeClient:
    """A blocking JSON-line client for one server connection."""

    def __init__(
        self, host: str, port: int, timeout: float | None = 30.0
    ) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        self._next_id = 0

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, op: str, **fields) -> dict:
        """Send one request, await its response; raise on ``ok: false``."""
        self._next_id += 1
        message = {"op": op, "id": self._next_id, **fields}
        self._socket.sendall(protocol.encode(message))
        # Responses are not capped (``MAX_LINE_BYTES`` bounds requests):
        # a union answer can be any size, and a partial read would leave
        # its tail in the stream as the next call's response.
        line = self._reader.readline()
        if not line.endswith(b"\n"):
            raise ServeClientError("server closed the connection")
        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeClientError(f"unparseable response: {error}")
        if not isinstance(response, dict):
            raise ServeClientError("response is not a JSON object")
        if not response.get("ok"):
            raise RequestFailed(response.get("error", {}))
        return response

    # -- convenience wrappers -------------------------------------------

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def views(self) -> dict:
        return self.request("views")["views"]

    def union(
        self,
        view: str,
        budget: float | None = None,
        degrade: bool = True,
        cache: bool = True,
    ) -> dict:
        fields: dict = {"view": view, "degrade": degrade}
        if not cache:
            fields["cache"] = False
        if budget is not None:
            fields["budget"] = budget
        return self.request("union", **fields)

    def health(self) -> dict:
        return self.request("health")["health"]

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def shutdown(self) -> None:
        self.request("shutdown")


# -- bench driver -------------------------------------------------------


@dataclass
class _WorkerTally:
    """One bench thread's outcomes (merged after the join barrier)."""

    latencies: list[float] = field(default_factory=list)
    degraded: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    failures: int = 0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(q * len(sorted_values))
    )
    return sorted_values[index]


def run_bench(
    host: str,
    port: int,
    view: str,
    requests: int = 100,
    concurrency: int = 4,
    budget: float | None = None,
) -> dict:
    """Drive ``requests`` union requests at ``concurrency`` and tally.

    Admission drops (``SRV003``-``SRV005``) are counted per code, not
    treated as failures: rejecting quickly under overload is the
    behavior the server is *supposed* to exhibit, and the split shows
    whether the admission controller or the mediator was the limit.
    """
    concurrency = max(1, min(concurrency, requests))
    per_worker = [
        requests // concurrency + (1 if i < requests % concurrency else 0)
        for i in range(concurrency)
    ]
    tallies = [_WorkerTally() for _ in range(concurrency)]

    def worker(index: int) -> None:
        tally = tallies[index]
        try:
            client = ServeClient(host, port)
        except OSError:
            tally.failures += per_worker[index]
            return
        with client:
            for _ in range(per_worker[index]):
                started = time.perf_counter()
                try:
                    response = client.union(view, budget=budget)
                except RequestFailed as error:
                    code = error.server_code
                    if code.startswith("SRV"):
                        tally.rejected[code] = (
                            tally.rejected.get(code, 0) + 1
                        )
                    else:
                        tally.failures += 1
                    continue
                except (ReproError, OSError):
                    tally.failures += 1
                    return
                tally.latencies.append(time.perf_counter() - started)
                if response.get("degraded"):
                    tally.degraded += 1

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(concurrency)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    latencies = sorted(
        latency for tally in tallies for latency in tally.latencies
    )
    rejected: dict[str, int] = {}
    for tally in tallies:
        for code, count in tally.rejected.items():
            rejected[code] = rejected.get(code, 0) + count
    answered = len(latencies)
    return {
        "requests": requests,
        "concurrency": concurrency,
        "answered": answered,
        "degraded": sum(tally.degraded for tally in tallies),
        "rejected": rejected,
        "failures": sum(tally.failures for tally in tallies),
        "wall_seconds": round(wall, 6),
        "qps": round(answered / wall, 2) if wall > 0 else 0.0,
        "latency": {
            "p50": round(_percentile(latencies, 0.50), 6),
            "p95": round(_percentile(latencies, 0.95), 6),
            "max": round(latencies[-1], 6) if latencies else 0.0,
        },
    }
