"""Per-layer metrics from a traced run, and the human-readable report.

Every metric is computed over the traced half of the timed phase except
the set-up ones (spans recorded before the first request) and
``trace.overhead``, which compares the traced half's median latency with
the untraced half's.  A layer that does no work on a workload reads 0;
the printed report lists each metric only on the workloads where its
layer runs.  Shard legs that a fan-out runs on its worker pool overlap
in time, so their self times can add up to more than the request's
latency, and ``trace.coverage`` past 1.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict

from tracer import ancestors_named, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(name, unit)`` of every per-layer metric, as BENCHMARK.json lists them
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
    PER_LAYER = [(metric["name"], metric["unit"]) for metric in json.load(spec)["per_layer"]]

ALL = ("serve-hot", "edit-mix", "query-mix", "store-mix")
SERVED = ("serve-hot", "edit-mix")
MIXES = ("query-mix", "store-mix")
#: per-layer metric -> the workloads whose requests or set-up run its layer
RUNS_ON = {
    "xmlmodel.parse_s": ("serve-hot", "edit-mix", "query-mix"),
    "xmlmodel.index_build_s": ALL,
    "mediator.register_s": ALL,
    "sharding.build_s": MIXES,
    "store.open_s": ("store-mix",),
    "store.structure_ms": ("store-mix",),
    "lint.preflight_ms": MIXES,
    "mediator.simplify_ms": MIXES,
    "mediator.no_fanout_ratio": MIXES,
    "mediator.union_ms": ALL,
    "transport.call_ms": ALL,
    "transport.calls": ALL,
    "transport.retries": ALL,
    "sharding.prune_ms": MIXES,
    "sharding.pruned_ratio": MIXES,
    "sharding.gather_ms": MIXES,
    "engine.evaluate_ms": ("query-mix", "store-mix", "edit-mix"),
    "engine.fallback_ratio": MIXES,
    "engine.index_misses": ("edit-mix",),
    "store.page_rows_ms": ("store-mix",),
    "store.page_hit_ratio": ("store-mix",),
    "store.page_evictions": ("store-mix",),
    "store.hydrations": ("store-mix",),
    "matview.hit_ms": SERVED,
    "matview.delta_ms": ("edit-mix",),
    "matview.recompute_ms": ("edit-mix",),
    "matview.hit_ratio": SERVED,
    "matview.delta_ratio": ("edit-mix",),
    "matview.bytes": SERVED,
    "mediator.validate_ms": ("edit-mix",),
    "xmlmodel.serialize_ms": SERVED,
    "serve.response_bytes": SERVED,
    "serve.protocol_ms": SERVED,
    "serve.admission_wait_ms": SERVED,
    "serve.handle_ms": SERVED,
    "serve.wire_ms": SERVED,
    "trace.coverage": ALL,
    "trace.overhead": ALL,
}

#: spans that start a request; their self time is the request's glue
ROOTS = ("serve.handle", "mediator.query_view", "mediator.materialize_union")


class TraceMismatch(Exception):
    """The traced requests cannot be paired with the spans recorded."""


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Requests:
    """The traced phase's reads, each with the spans of its request."""

    def __init__(self, workload, result: dict, spans: list[list]) -> None:
        phase = result["phases"][-1]
        reads = phase["reads"]
        if workload.served:
            roots = [
                index for index, span in enumerate(spans)
                if span[0] == "serve.handle" and span[5] != "bench"
            ][-len(reads):]
            if len(roots) != len(reads):
                raise TraceMismatch("traced requests and server spans do not pair up")
            rids = [spans[index][4] for index in roots]
        else:
            rids = [read["rid"] for read in reads]
        by_request: dict = defaultdict(list)
        for index, span in enumerate(spans):
            by_request[span[4]].append(index)
        self.spans = spans
        self.selfs = self_times(spans)
        self.setup = by_request.get(None, [])
        self.items = [
            (read, by_request.get(rid, []))
            for read, rid in zip(reads, rids)
            if read["latency"] is not None
        ]
        self.counters = phase.get("counters", [{}, {}])
        self.writes = len(phase["writes"])

    def named(self, indexes, *names):
        return [index for index in indexes if self.spans[index][0] in names]

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def total(self, indexes, *names) -> float:
        return sum(self.duration(index) for index in self.named(indexes, *names))

    def every(self, *names):
        return [index for _, indexes in self.items for index in self.named(indexes, *names)]


def per_layer(workload, result: dict, spans: list[list]) -> dict:
    """Every per-layer metric, ``name -> (value, unit)``."""
    r = Requests(workload, result, spans)
    ms = 1000.0
    before, after = r.counters
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in ("fallback", "projected", "index_misses", "retries")}
    n_requests = len(r.items)
    values: dict[str, float] = {}

    # set-up
    values["xmlmodel.parse_s"] = r.total(r.setup, "xmlmodel.parse")
    values["xmlmodel.index_build_s"] = sum(
        r.duration(index) for index in r.named(r.setup, "xmlmodel.index")
        if ancestors_named(spans, index, "mediator.warm")
    )
    values["mediator.register_s"] = r.total(r.setup, "mediator.register_view", "mediator.register_union_view")
    values["sharding.build_s"] = r.total(r.setup, "shard.build")
    values["store.open_s"] = r.total(r.setup, "store.open", "store.from_store")
    values["store.structure_ms"] = r.total(range(len(spans)), "store.structure") * ms

    # mediator, lint, transport, sharding, engine
    adhoc = [indexes for read, indexes in r.items if read.get("kind", "union") != "union"]
    unions = [indexes for read, indexes in r.items if read.get("kind", "union") == "union"]
    values["lint.preflight_ms"] = _mean(r.total(i, "lint.preflight") for i in adhoc) * ms
    values["mediator.simplify_ms"] = _mean(
        r.total(i, "mediator.simplify", "mediator.compose") for i in adhoc
    ) * ms
    values["mediator.no_fanout_ratio"] = _ratio(
        sum(1 for _, i in r.items if not r.named(i, "transport.call")), n_requests
    )
    values["mediator.union_ms"] = _mean(
        sum(r.selfs[x] for x in r.named(i, "mediator.materialize_union")) for i in unions
    ) * ms
    calls = r.every("transport.call")
    values["transport.call_ms"] = _mean(r.selfs[x] for x in calls) * ms
    values["transport.calls"] = _ratio(len(calls), n_requests)
    values["transport.retries"] = delta["retries"]
    prunes = r.every("shard.prune")
    gathers = r.every("shard.gather")
    values["sharding.prune_ms"] = _ratio(sum(r.duration(x) for x in prunes), len(gathers)) * ms
    tags = [spans[x][5] for x in prunes if spans[x][5] in ("match", "pruned")]
    values["sharding.pruned_ratio"] = _ratio(tags.count("pruned"), len(tags))
    values["sharding.gather_ms"] = _mean(r.selfs[x] for x in gathers) * ms
    values["engine.evaluate_ms"] = _mean(r.selfs[x] for x in r.every("engine.evaluate")) * ms
    values["engine.fallback_ratio"] = _ratio(delta["fallback"], delta["fallback"] + delta["projected"])
    values["engine.index_misses"] = _ratio(delta["index_misses"], r.writes)

    # store
    store_before, store_after = before.get("store", {}), after.get("store", {})
    store = {key: store_after.get(key, 0) - store_before.get(key, 0) for key in store_after}
    values["store.page_rows_ms"] = _ratio(sum(r.duration(x) for x in r.every("store.page_rows")), n_requests) * ms
    values["store.page_hit_ratio"] = _ratio(
        store.get("page_hits", 0), store.get("page_hits", 0) + store.get("page_misses", 0)
    )
    values["store.page_evictions"] = _ratio(store.get("page_evictions", 0), n_requests)
    values["store.hydrations"] = _ratio(store.get("hydrations", 0), n_requests)

    # matview
    probes = r.every("matview.probe")
    by_outcome = defaultdict(list)
    for _, indexes in r.items:
        outcome = next((spans[x][5] for x in r.named(indexes, "matview.probe")), None)
        own = sum(r.selfs[x] for x in r.named(indexes, "matview.probe", "matview.store"))
        by_outcome[outcome].append(own)
    values["matview.hit_ms"] = _mean(by_outcome["hit"]) * ms
    values["matview.delta_ms"] = _mean(by_outcome["delta"]) * ms
    values["matview.recompute_ms"] = _mean(by_outcome["miss"]) * ms
    mv_before, mv_after = before.get("matview", {}), after.get("matview", {})
    mv = {key: mv_after.get(key, 0) - mv_before.get(key, 0) for key in ("hits", "deltas", "misses")}
    lookups = mv["hits"] + mv["deltas"] + mv["misses"]
    values["matview.hit_ratio"] = _ratio(mv["hits"], lookups)
    values["matview.delta_ratio"] = _ratio(mv["deltas"], lookups)
    values["matview.bytes"] = mv_after.get("bytes", 0)
    values["mediator.validate_ms"] = _ratio(
        sum(r.duration(x) for x in r.every("dtd.validate")),
        sum(1 for x in probes if spans[x][5] == "delta"),
    ) * ms

    # serialization and serve
    values["xmlmodel.serialize_ms"] = _mean(r.duration(x) for x in r.every("xmlmodel.serialize")) * ms
    served = workload.served
    values["serve.response_bytes"] = _mean(read["bytes"] for read, _ in r.items) if served else 0.0
    values["serve.protocol_ms"] = _mean(r.total(i, "serve.decode", "serve.encode") for _, i in r.items) * ms if served else 0.0
    values["serve.admission_wait_ms"] = _mean(r.duration(x) for x in r.every("serve.admission")) * ms
    values["serve.handle_ms"] = _mean(read["elapsed"] for read, _ in r.items) * ms if served else 0.0
    values["serve.wire_ms"] = _mean(
        read["latency"] - r.total(i, "serve.handle", "serve.encode") for read, i in r.items
    ) * ms if served else 0.0

    # the trace itself
    values["trace.coverage"] = _mean(
        sum(r.selfs[x] for x in i if spans[x][0] not in ROOTS) / read["latency"]
        for read, i in r.items
    )
    values["trace.overhead"] = overhead(result)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def overhead(result: dict) -> float:
    """Traced over untraced median latency, minus 1.

    Compared request by request: the median, over the distinct requests
    both halves answered, of the ratio of their median latencies.  A
    plain p50 ratio of a mix would also move with which requests each
    half happened to draw.
    """
    halves = []
    for phase in (result["phases"][0], result["phases"][-1]):
        by_item = defaultdict(list)
        for read in phase["reads"]:
            if read["latency"] is not None:
                by_item[read["item"]].append(read["latency"])
        halves.append(by_item)
    untraced, traced = halves
    ratios = [
        statistics.median(traced[item]) / statistics.median(untraced[item])
        for item in traced.keys() & untraced.keys()
    ]
    return statistics.median(ratios) - 1


def request_split(workload, result: dict, spans: list[list]) -> list[tuple[str, float, float]]:
    """Per span name: mean self time per read in ms, and calls per read.

    Served workloads add the wire: client latency minus the server's
    spans.
    """
    r = Requests(workload, result, spans)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _, indexes in r.items:
        for index in indexes:
            totals[spans[index][0]] += r.selfs[index]
            calls[spans[index][0]] += 1
    n = len(r.items)
    rows = sorted(
        ((name, total / n * 1000, calls[name] / n) for name, total in totals.items()),
        key=lambda row: -row[1],
    )
    if workload.served:
        wire = _mean(
            read["latency"] - r.total(i, "serve.handle", "serve.encode") for read, i in r.items
        )
        rows.append(("wire (client latency - server spans)", wire * 1000, 1.0))
    return rows


# -- printing ---------------------------------------------------------------------

def print_end_to_end(metrics: dict, extra: dict, attempted: int, failed: int, digests: dict) -> None:
    samples = extra["samples"]
    print("end-to-end:")
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<18} {value:12.4f} {unit}{count}")
    for name in ("write_p50_ms", "write_p90_ms"):
        if name in extra:
            value, unit, count = extra[name]
            print(f"  {name:<18} {value:12.4f} {unit}  (n={count})")
    print(f"  {'error_rate':<18} {failed / attempted:12.4f}  ({failed} of {attempted} operations)")
    if "outcomes" in digests:
        print(f"  verifying pass matview outcomes: {digests['outcomes']}")


def print_layers(workload, result: dict, spans: list[list], metrics: dict) -> None:
    print(f"per-layer ({workload.name}; traced half of the timed phase):")
    for name, (value, unit) in metrics.items():
        if workload.name in RUNS_ON[name]:
            print(f"  {name:<26} {value:14.6f} {unit}")
    reads = [read["latency"] for read in result["phases"][-1]["reads"] if read["latency"] is not None]
    latency = statistics.mean(reads) * 1000
    print(
        f"request split (mean self time per read, ms; mean latency {latency:.4f} ms; "
        "pool legs overlap, so shares can add up past 100%):"
    )
    for name, value, calls in request_split(workload, result, spans):
        print(f"  {name:<38} {value:10.4f} {value / latency:7.1%} {calls:9.1f} calls")
