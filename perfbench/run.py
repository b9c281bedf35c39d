"""The mediator benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload edit-mix --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The run and every process it starts
are pinned to one CPU.  One run:

1. generates the workload's inputs from the seed (XML text, plus a
   document store file for ``store-mix``) in a scratch directory under
   ``perfbench/.work``;
2. runs the untimed verifying pass in a fresh host process
   (``host.py verify``), which checks every distinct answer and records
   its id-free digest;
3. with ``--trace 0``, starts the host ``SETUP_SAMPLES`` times and reports
   the median set-up time and first-answer latency; ``TIMED_HOSTS`` of
   them, spread through the run, share the closed-loop timed phase,
   every answer compared with the digest the verifying pass recorded
   for its request index;
4. with ``--trace 1``, starts one host with the layer wrappers of
   ``tracer.py`` installed, times half the phase untraced and half traced,
   and reports the per-layer metrics and the tracing overhead.

Human-readable lines go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when any answer check failed; the
lines above it say which.  The exit code is 0 whenever that line is
printed, and not 0 when the run could not measure at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST = os.path.join(HERE, "host.py")
SETUP_SAMPLES = 11
#: hosts that share an untraced run's timed phase (see :func:`samples`)
TIMED_HOSTS = 3
#: a served request that takes longer than this has hung
REQUEST_TIMEOUT_S = 60.0


class RunFailed(Exception):
    """The run cannot produce trustworthy numbers."""


# -- statistics ------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- host processes ----------------------------------------------------------------

def host_command(mode: str, args, inputs: str) -> list[str]:
    command = [
        sys.executable, HOST, mode, "--workload", args.workload,
        "--seed", str(args.seed), "--inputs", inputs,
    ]
    return command + ["--tiny"] if args.tiny else command


class Host:
    """One host process; ``setup_s`` is spawn-to-``READY`` time."""

    def __init__(self, args, inputs: str, seconds: float = 0.0) -> None:
        command = host_command("run", args, inputs) + ["--seconds", str(seconds)]
        if args.trace:
            command.append("--trace")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        ready = self.line("READY")
        self.setup_s = time.perf_counter() - started
        self.port = int(ready.split()[1]) if len(ready.split()) > 1 else None

    def line(self, prefix: str) -> str:
        """The next stdout line, which must start with ``prefix``."""
        line = self.process.stdout.readline()
        if not line.startswith(prefix):
            self.process.kill()
            self.process.wait()
            raise RunFailed(f"host: expected {prefix}, got {line.strip()!r}")
        return line.strip()

    def wait(self) -> None:
        try:
            code = self.process.wait(timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RunFailed("host did not exit")
        self.process.stdout.close()
        if code != 0:
            raise RunFailed(f"host exited with {code}")


class Client:
    """A JSON-line client with no response size cap.

    The program's own client reads responses under the protocol's
    request-size limit, which a full ``journals`` answer exceeds.
    """

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.reader = self.socket.makefile("rb")
        self.next_id = 0

    def request(self, op: str, **fields) -> tuple[dict, float, int]:
        """``(response, latency_s, response bytes)`` of one request."""
        self.next_id += 1
        line = json.dumps({"op": op, "id": self.next_id, **fields}, separators=(",", ":"))
        started = time.perf_counter()
        self.socket.sendall(line.encode("utf-8") + b"\n")
        received = self.reader.readline()
        response = json.loads(received)
        latency = time.perf_counter() - started
        if response.get("id") != self.next_id:
            raise RunFailed(f"{op}: response out of order")
        return response, latency, len(received)

    def must(self, op: str, **fields) -> dict:
        response = self.request(op, **fields)[0]
        if not response.get("ok"):
            raise RunFailed(f"{op}: {response.get('error')}")
        return response

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


# -- served workloads -------------------------------------------------------------

class ServedLoad:
    """The closed-loop load of serve-hot and edit-mix on one connection."""

    def __init__(self, client: Client, digests: dict, edits: bool) -> None:
        import workloads as wl

        self.client = client
        self.sequence = digests["sequence"]
        self.edits = edits
        self.unions_per_edit = wl.UNIONS_PER_EDIT
        self.union_view = wl.UNION_VIEW
        self.unions = 0

    def phase(self, seconds: float) -> dict:
        from host import digest_text

        reads, writes, checking = [], [], 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            if self.edits and self.unions % self.unions_per_edit == 0:
                response, latency, _ = self.client.request("bench.edit")
                writes.append(response["apply_s"] if response.get("ok") else None)
            response, latency, size = self.client.request("union", view=self.union_view)
            check_started = time.perf_counter()
            answered = response.get("ok") is True and response.get("degraded") is False
            ok = answered and (
                digest_text(response["answer"]) == self.sequence[self.unions % len(self.sequence)]
            )
            checking += time.perf_counter() - check_started
            reads.append({
                "latency": latency if answered else None,
                "ok": ok,
                "bytes": size,
                "elapsed": response.get("elapsed"),
                "item": 0,
            })
            self.unions += 1
        return {
            "reads": reads,
            "writes": writes,
            "busy_s": time.perf_counter() - started - checking,
        }


def first_answer(client: Client, digests: dict) -> tuple[float | None, bool]:
    """``(latency_s, answer ok)``; the latency is None for a failed request."""
    from host import digest_text
    import workloads as wl

    response, latency, _ = client.request("union", view=wl.UNION_VIEW)
    if response.get("ok") is not True or response.get("degraded") is not False:
        return None, False
    return latency, digest_text(response["answer"]) == digests["first"]


def samples(args) -> tuple[int, list[int]]:
    """``(set-up samples, indexes of the ones that share the timed phase)``.

    An untraced run splits its timed phase over ``TIMED_HOSTS`` hosts
    spread through the run, as are the set-up and first-answer samples:
    on a two-vCPU cloud VM one store-mix host could run a fifth slower
    than the next for its whole life, so a single timed host made the
    run's figures that host's draw.  A traced run is one host, so its
    spans pair up with its requests.
    """
    if args.trace:
        return 1, [0]
    count = SETUP_SAMPLES
    return count, [(2 * i + 1) * count // (2 * TIMED_HOSTS) for i in range(TIMED_HOSTS)]


def joined(parts: list[dict]) -> dict:
    """The timed hosts' results as one: each phase's requests and time summed."""
    result = {"phases": [], "broken": [], "peak_rss_mb": max(part["peak_rss_mb"] for part in parts)}
    for part in parts:
        result["broken"] += part.get("broken", [])
        for index, phase in enumerate(part["phases"]):
            if index == len(result["phases"]):
                result["phases"].append(dict(phase, reads=[], writes=[], busy_s=0.0))
            total = result["phases"][index]
            total["reads"] += phase["reads"]
            total["writes"] += phase["writes"]
            total["busy_s"] += phase["busy_s"]
    return result


def run_served(args, workload, inputs, digests) -> dict:
    setups, firsts, checks, parts = [], [], [], []
    count, timed = samples(args)
    for sample in range(count):
        host = Host(args, inputs)
        client = Client(host.port)
        latency, ok = first_answer(client, digests)
        setups.append(host.setup_s)
        firsts.append(latency)
        checks.append(ok)
        if sample in timed:
            load = ServedLoad(client, digests, workload.edits)
            parts.append(served_phases(args, client, load, args.seconds / len(timed)))
        client.must("shutdown")
        client.close()
        host.wait()
    result = joined(parts)
    result.update(setups=setups, firsts=firsts, first_ok=all(checks))
    return result


def served_phases(args, client: Client, load: ServedLoad, seconds: float) -> dict:
    """The timed phase on a served host, untraced or in two halves."""
    result = {"phases": []}
    if args.trace:
        result["broken"] = client.must("bench.trace", on=False)["broken"]
        result["phases"].append(dict(load.phase(seconds / 2), name="untraced"))
        before = client.must("bench.trace", on=True)["counters"]
        traced = load.phase(seconds / 2)
        off = client.must("bench.trace", on=False)
        result["broken"] += off["broken"]
        result["phases"].append(dict(traced, name="traced", counters=[before, off["counters"]]))
    else:
        result["phases"].append(dict(load.phase(seconds), name="timed"))
    result["peak_rss_mb"] = client.must("bench.report")["peak_rss_mb"]
    return result


# -- in-process workloads ---------------------------------------------------------

def run_inprocess(args, workload, inputs) -> dict:
    setups, firsts, checks, parts = [], [], [], []
    count, timed = samples(args)
    for sample in range(count):
        seconds = args.seconds / len(timed) if sample in timed else 0.0
        host = Host(args, inputs, seconds=seconds)
        _, latency_ms, ok = host.line("FIRST").split()
        setups.append(host.setup_s)
        firsts.append(float(latency_ms) / 1000 if float(latency_ms) >= 0 else None)
        checks.append(ok == "1")
        if sample in timed:
            part = json.loads(host.line("RESULT")[len("RESULT "):])
            for phase in part["phases"]:
                phase["reads"] = [
                    {"latency": latency, "ok": ok, "kind": kind, "rid": rid, "item": item}
                    for kind, latency, ok, rid, item in phase.pop("records")
                ]
                phase["writes"] = []
            for failure in part["failures"]:
                print(failure, file=sys.stderr)
            checks.append(part["first_ok"])
            parts.append(part)
        host.wait()
    result = joined(parts)
    result.update(setups=setups, firsts=firsts, first_ok=all(checks))
    return result


# -- metrics ------------------------------------------------------------------------

def end_to_end(result: dict) -> tuple[dict, dict]:
    """``(metrics, extra)``: the gated metrics and the report-only ones."""
    phase = result["phases"][0]
    latencies = [read["latency"] for read in phase["reads"] if read["latency"] is not None]
    writes = [write for write in phase["writes"] if write is not None]
    firsts = [first for first in result["firsts"] if first is not None]
    if not latencies or not firsts:
        raise RunFailed("no request completed")
    metrics = {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "first_answer_ms": (statistics.median(firsts) * 1000, "ms"),
        "answer_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "answer_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "throughput_rps": ((len(latencies) + len(writes)) / phase["busy_s"], "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    extra = {
        "samples": {
            "setup_s": len(result["setups"]),
            "first_answer_ms": len(firsts),
            "answer_p50_ms": len(latencies),
            "answer_p90_ms": len(latencies),
        },
    }
    if writes:
        extra["write_p50_ms"] = (percentile(writes, 50) * 1000, "ms", len(writes))
        extra["write_p90_ms"] = (percentile(writes, 90) * 1000, "ms", len(writes))
    return metrics, extra


def attempted_failed(result: dict) -> tuple[int, int]:
    attempted = len(result["firsts"])
    failed = sum(1 for latency in result["firsts"] if latency is None)
    for phase in result["phases"]:
        attempted += len(phase["reads"]) + len(phase["writes"])
        failed += sum(1 for read in phase["reads"] if read["latency"] is None)
        failed += sum(1 for write in phase["writes"] if write is None)
    return attempted, failed


def correct(result: dict) -> bool:
    return (
        result["first_ok"]
        and not result.get("broken")
        and all(read["ok"] for phase in result["phases"] for read in phase["reads"])
    )


# -- report -------------------------------------------------------------------------

def pin_to_one_cpu():
    """Run this process and every host it starts on one CPU.

    A served request alternates between the client and the server; on
    two CPUs the scheduler sometimes places them together and sometimes
    apart, and the two placements differ by about a third in latency,
    so unpinned runs measured the placement as much as the program.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_record(args, workload, cpu) -> str:
    layout = workload.layout
    sizes = f"{layout.sites} sites x {layout.docs} docs"
    if layout.shards > 1:
        sizes += f" x {layout.shards} shards"
    return (
        f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} cpu={cpu} "
        f"python={platform.python_version()} sizes=({sizes})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mediator benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run on the tiny layouts of the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: the program's source (src/repro) is missing; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, HERE)
    import host as host_module
    import report
    import tracer
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {sorted(wl.WORKLOADS)})")
    workload = wl.get(args.workload, args.tiny)
    cpu = pin_to_one_cpu()
    inputs = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    try:
        print(run_record(args, workload, cpu), flush=True)
        host_module.write_inputs(workload, args.seed, inputs)
        verified = subprocess.run(host_command("verify", args, inputs), cwd=ROOT)
        if verified.returncode != 0:
            raise RunFailed("the verifying pass failed")
        with open(os.path.join(inputs, host_module.DIGESTS_FILE), encoding="utf-8") as digests_file:
            digests = json.load(digests_file)
        if workload.served:
            result = run_served(args, workload, inputs, digests)
        else:
            result = run_inprocess(args, workload, inputs)
        attempted, failed = attempted_failed(result)
        ok = correct(result) and not digests["mismatches"]
        for mismatch in digests["mismatches"]:
            print(f"answer check failed: {mismatch}")
        if args.trace:
            spans = tracer.load_spans(os.path.join(inputs, host_module.SPANS_FILE))
            metrics = report.per_layer(workload, result, spans)
            report.print_layers(workload, result, spans, metrics)
        else:
            metrics, extra = end_to_end(result)
            report.print_end_to_end(metrics, extra, attempted, failed, digests)
    except (RunFailed, report.TraceMismatch) as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
