"""The process that hosts the mediator in one benchmark run.

    python3 perfbench/host.py verify --workload W --seed N --inputs DIR [--tiny]
    python3 perfbench/host.py run --workload W --seed N --inputs DIR \\
        [--seconds S] [--trace] [--tiny]

``verify`` is the untimed verifying pass: it builds the federation from
the generated inputs, checks every distinct answer of the workload
against a cache-off recomputation and against the view DTD the mediator
inferred, and writes the id-free digest of each answer, by request
index, to ``DIR/digests.json``.

``run`` builds the federation and prints ``READY`` (``READY <port>``
when served) the moment it is ready; the parent times set-up from
spawning this process to reading that line.  Served workloads then
answer on the socket until a client sends ``shutdown``.  In-process
workloads answer their first ``journals`` union, print ``FIRST <ms>``,
and with ``--seconds`` run the request mix in a closed loop and print
``RESULT <json>``.  With ``--trace`` the layer wrappers are installed
before anything is imported into use, so set-up is traced too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

STORE_FILE = "corpus.db"
DIGESTS_FILE = "digests.json"
SPANS_FILE = "spans.jsonl"


def fanout_policy():
    """The program's default fan-out, capped at one worker per CPU.

    Sharded sources and ``repro serve`` both default to a pool of
    ``FanoutPolicy().max_workers`` with the cost model on; the load
    comes from one process with no more threads than CPUs.
    """
    from repro.mediator import FanoutPolicy

    return FanoutPolicy(max_workers=min(FanoutPolicy().max_workers, os.cpu_count() or 1))


_EDIT_TEXTS = ("1999", "Velikhov", "TODS", "revised", "10.1109/edit")


# -- inputs -------------------------------------------------------------------

def site_files(inputs: str, site: int) -> list[str]:
    directory = os.path.join(inputs, wl.site_name(site))
    return [os.path.join(directory, name) for name in sorted(os.listdir(directory))]


def write_inputs(workload: wl.Workload, seed: int, inputs: str) -> None:
    """Generate the workload's XML text (and store file) into ``inputs``."""
    layout = workload.layout
    sites = corpus.federation(seed, layout)
    for site, texts in enumerate(sites):
        directory = os.path.join(inputs, wl.site_name(site))
        os.makedirs(directory)
        for ordinal, text in enumerate(texts):
            with open(os.path.join(directory, f"{ordinal:03d}.xml"), "w", encoding="utf-8") as out:
                out.write(text)
    if workload.store:
        from repro.store import DocumentStore

        with DocumentStore(os.path.join(inputs, STORE_FILE)) as store:
            for site, texts in enumerate(sites):
                for shard, chunk in enumerate(corpus.shards(layout, texts)):
                    for text in chunk:
                        store.ingest_text(text, source=f"{wl.site_name(site)}/s{shard}")


# -- the federation -----------------------------------------------------------

def build(workload: wl.Workload, inputs: str, warm: bool = True):
    """The workload's mediator over the generated inputs; ``(mediator, store)``.

    Every call into the program goes through a module or class
    attribute, so wrappers a tracer installed beforehand see it.
    """
    from repro import xmlmodel
    from repro.mediator import MatViewPolicy, Mediator, Source, ShardedSource
    from repro.workloads import bibdb
    from repro.xmas import parse_query

    layout = workload.layout
    mediator = Mediator(
        "perfbench",
        cache=MatViewPolicy() if workload.cache else None,
        # a served mediator fans its unions out like ``repro serve``; the
        # in-process one keeps the library default (sequential)
        fanout=fanout_policy() if workload.served else None,
    )
    schema = bibdb.bibdb_dtd()
    fragments = {
        "journal": bibdb.journal_fragment_dtd(),
        "conference": bibdb.conference_fragment_dtd(),
    }
    store = None
    if workload.store:
        from repro.store import DocumentStore

        store = DocumentStore(os.path.join(inputs, STORE_FILE))
    for site in range(layout.sites):
        name = wl.site_name(site)
        if layout.shards == 1:
            documents = [xmlmodel.parse_document(_read(path)) for path in site_files(inputs, site)]
            mediator.add_source(Source(name, schema, documents, validate=False))
            continue
        shards = []
        files = corpus.shards(layout, site_files(inputs, site))
        for index, paths in enumerate(files):
            shard_name = f"{name}/s{index}"
            dtd = fragments[corpus.shard_kind(layout, index)]
            if store is not None:
                shards.append(Source.from_store(shard_name, dtd, store, source=shard_name))
            else:
                documents = [xmlmodel.parse_document(_read(path)) for path in paths]
                shards.append(Source(shard_name, dtd, documents, validate=False))
        mediator.add_source(
            ShardedSource(name, schema, shards, fanout=fanout_policy(), validate=False)
        )
    mediator.register_union_view(
        [parse_query(wl.UNION_BRANCH, source=wl.site_name(site)) for site in range(layout.sites)],
        wl.UNION_VIEW,
    )
    if not workload.served:
        for site in range(layout.sites):
            for text in wl.view_texts(site):
                mediator.register_view(parse_query(text, source=wl.site_name(site)))
    if warm:
        mediator.warm()
    return mediator, store


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as text:
        return text.read()


def digest(answer) -> str:
    """The id-free digest of an answer: its serialized XML (ids omitted)."""
    from repro.xmlmodel.serializer import serialize_document

    return digest_text(serialize_document(answer))


def digest_text(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def counters(mediator, store) -> dict:
    """Layer counters read from public state at a phase boundary."""
    from repro.regex.kernel import kernel_stats

    stats = kernel_stats()
    events = stats["events"]
    index = stats["caches"]["engine.doc_index"]
    transports = list(mediator.transports.values())
    for source in mediator.sources.values():
        transports += getattr(source, "transports", [])
    result = {
        "fallback": events.get("engine.fallback", 0),
        "projected": events.get("engine.projected", 0),
        "index_misses": index["misses"] + index["invalidations"],
        "retries": sum(transport.stats.retries for transport in transports),
    }
    if mediator.matview is not None:
        result["matview"] = mediator.matview.info()
    if store is not None:
        result["store"] = store.cache_info()
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- edits ----------------------------------------------------------------------

class _SetText:
    def __init__(self, leaf, text: str) -> None:
        self.leaf, self.text, self.old = leaf, text, None

    def apply(self) -> None:
        self.old = self.leaf.text
        self.leaf.set_text(self.text)

    def undo(self) -> None:
        self.leaf.set_text(self.old)


class _AppendCitation:
    def __init__(self, article, citation) -> None:
        self.article, self.citation = article, citation

    def apply(self) -> None:
        self.article.append_child(self.citation)

    def undo(self) -> None:
        self.article.remove_child(self.citation)


class _RemoveCitation:
    def __init__(self, article, citation) -> None:
        self.article, self.citation, self.index = article, citation, -1

    def apply(self) -> None:
        self.index = next(
            i for i, child in enumerate(self.article.children) if child is self.citation
        )
        self.article.remove_child(self.citation)

    def undo(self) -> None:
        self.article.insert_child(self.index, self.citation)


class EditScript:
    """The seeded source edits of edit-mix, applied one per call.

    The script holds ``EDITS_PER_PERIOD`` edits chosen on the generated
    federation.  Each period applies them in order and then undoes them
    in reverse, so every period leaves the sources as generated and the
    n-th edit of any run always meets the same source state.
    """

    def __init__(self, mediator, seed: int) -> None:
        from repro.xmlmodel import Element

        rng = random.Random(f"edits:{seed}")
        documents = [d for source in mediator.sources.values() for d in source.documents]
        untouchable: set[int] = set()
        self.edits: list = []
        while len(self.edits) < wl.EDITS_PER_PERIOD:
            root = rng.choice(documents).root
            if rng.random() < wl.STRUCTURAL_SHARE:
                article = rng.choice(root.descendants_named("article"))
                citations = [
                    child for child in article.children
                    if child.name == "citation" and id(child) not in untouchable
                ]
                if citations and rng.random() < 0.5:
                    citation = rng.choice(citations)
                    untouchable.update(id(element) for element in citation.iter())
                    self.edits.append(_RemoveCitation(article, citation))
                else:
                    citation = Element("citation", [
                        Element("refTitle", rng.choice(_EDIT_TEXTS)),
                        Element("refAuthor", rng.choice(_EDIT_TEXTS)),
                    ])
                    self.edits.append(_AppendCitation(article, citation))
            else:
                leaves = [
                    element for element in root.iter()
                    if element.is_pcdata and id(element) not in untouchable
                ]
                self.edits.append(_SetText(rng.choice(leaves), rng.choice(_EDIT_TEXTS)))
        self.applied = 0

    def apply_next(self) -> None:
        n = len(self.edits)
        step = self.applied % (2 * n)
        if step < n:
            self.edits[step].apply()
        else:
            self.edits[2 * n - 1 - step].undo()
        self.applied += 1


# -- the verifying pass -------------------------------------------------------

class CheckFailed(Exception):
    """The workload does not do what it is defined to do."""


def _same(answer, picks) -> bool:
    children = answer.root.children
    return len(children) == len(picks) and all(
        mine.structurally_equal(theirs) for mine, theirs in zip(children, picks)
    )


def verify(workload: wl.Workload, seed: int, inputs: str) -> dict:
    """Check the workload's answers; return the digests timed runs compare."""
    from repro.dtd import validate_document

    mediator, store = build(workload, inputs)
    try:
        for source in mediator.sources.values():
            for shard in getattr(source, "shards", [source]):
                for document in shard.documents:
                    if not validate_document(document, shard.dtd).ok:
                        raise CheckFailed(f"generated document invalid under {shard.name}")
        if workload.served:
            return _verify_served(workload, seed, mediator)
        return _verify_pool(workload, inputs, mediator)
    finally:
        mediator.close()
        if store is not None:
            store.close()


def _verify_served(workload, seed, mediator) -> dict:
    from repro.dtd import validate_document

    registration = mediator.union_views[wl.UNION_VIEW]
    checked: dict[int, tuple[object, str]] = {}
    outcomes: dict[str, int] = {}
    mismatches: list[str] = []

    def check(label: str) -> str:
        answer = mediator.materialize_union(wl.UNION_VIEW)
        outcome = mediator.last_cache_outcome
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if mediator.last_degradation is not None:
            mismatches.append(f"{label}: degraded answer")
        if id(answer) not in checked:
            oracle = mediator.materialize_union(wl.UNION_VIEW, cache=False)
            if not _same(answer, oracle.root.children):
                mismatches.append(f"{label}: answer differs from the cache-off recomputation")
            if not validate_document(answer, registration.dtd).ok:
                mismatches.append(f"{label}: answer violates the inferred view DTD")
            checked[id(answer)] = (answer, digest(answer))
        return checked[id(answer)][1]

    first = check("first answer")
    sequence = []
    script = EditScript(mediator, seed) if workload.edits else None
    period = 2 * wl.EDITS_PER_PERIOD * wl.UNIONS_PER_EDIT if script else 1
    for index in range(period + (wl.UNIONS_PER_EDIT if script else 0)):
        if script and index % wl.UNIONS_PER_EDIT == 0:
            script.apply_next()
        value = check(f"union {index}")
        if index < period:
            sequence.append(value)
        elif value != sequence[index - period]:
            raise CheckFailed(f"union {index}: the edit period does not repeat")
    return {"first": first, "sequence": sequence, "outcomes": outcomes, "mismatches": mismatches}


def _oracle_documents(workload, inputs):
    from repro.xmlmodel.parser import parse_document

    return {
        wl.site_name(site): [parse_document(_read(path)) for path in site_files(inputs, site)]
        for site in range(workload.layout.sites)
    }


def _verify_pool(workload, inputs, mediator) -> dict:
    """Each distinct request of a query mix against an independent oracle.

    The oracle evaluates the view definitions directly over documents
    parsed again from the inputs: no pre-flight, simplifier, composition,
    transport, sharding or store is on its path.
    """
    from repro.dtd import validate_document
    from repro.inference import infer_view_dtd
    from repro.regex.kernel import EVENTS
    from repro.xmas import evaluate_many, parse_query

    documents = _oracle_documents(workload, inputs)
    digests, mismatches = [], []
    for index, (kind, view, text) in enumerate(wl.request_pool(workload.layout)):
        label = f"request {index} ({kind}: {text or view})"
        rejections = mediator.stats.preflight_rejections
        fallbacks = EVENTS["engine.fallback"]
        query = None if text is None else parse_query(text)
        if query is None:
            answer = mediator.materialize_union(view)
        else:
            answer = mediator.query_view(query, view)
        rejected = mediator.stats.preflight_rejections > rejections
        fell_back = EVENTS["engine.fallback"] > fallbacks
        degraded = mediator.last_degradation is not None
        if query is None:
            registration = mediator.union_views[view]
            picks = []
            for branch, source in zip(registration.branches, registration.source_names):
                picks += evaluate_many(branch.query, documents[source]).root.children
            dtd = registration.dtd
        else:
            registration = mediator.views[view]
            materialized = evaluate_many(registration.query, documents[registration.source_name])
            picks = evaluate_many(query, [materialized]).root.children
            # pre-flight proves an empty query's view DTD has no such
            # names, so there is no DTD to infer: its answer must be empty
            dtd = None if kind == "empty" else infer_view_dtd(registration.dtd, query, mediator.mode).dtd
        if degraded:
            mismatches.append(f"{label}: degraded answer")
        if not _same(answer, picks):
            mismatches.append(
                f"{label}: answer differs from the oracle "
                f"({len(answer.root.children)} picks, oracle {len(picks)})"
            )
        if dtd is not None and not validate_document(answer, dtd).ok:
            mismatches.append(f"{label}: answer violates its inferred DTD")
        if kind == "empty" and (picks or not rejected):
            raise CheckFailed(f"{label}: not answered empty by pre-flight")
        if kind == "fallback" and not fell_back:
            raise CheckFailed(f"{label}: the engine did not fall back")
        if kind == "adhoc" and not picks:
            raise CheckFailed(f"{label}: satisfiable query has no answer")
        digests.append(digest(answer))
    return {"first": digests[0], "pool": digests, "mismatches": mismatches}


# -- the served launcher ------------------------------------------------------

def serve(workload, seed, inputs, tracer) -> None:
    from repro.serve import MediatorServer

    class BenchServer(MediatorServer):
        """``MediatorServer`` plus the benchmark's ``bench.*`` operations.

        ``bench.edit`` applies the next seeded source edit inside the
        server, on the request path, so edits never race a read.
        """

        lines = 0

        def _handle_line(self, line):
            self.lines += 1
            if not tracer.installed:
                return super()._handle_line(line)
            tracer.begin_request(self.lines)
            with tracer.span("serve.handle", "bench" if b'"bench.' in line else None):
                return super()._handle_line(line)

        def _dispatch(self, request):
            op = request["op"]
            if op == "bench.edit":
                started = time.perf_counter()
                script.apply_next()
                return {"ok": True, "apply_s": time.perf_counter() - started}, False
            if op == "bench.trace":
                return self._bench_trace(bool(request.get("on"))), False
            if op == "bench.report":
                if tracer.spans:
                    tracer.dump(os.path.join(inputs, SPANS_FILE))
                return {"ok": True, "peak_rss_mb": peak_rss_mb()}, False
            return super()._dispatch(request)

        def _bench_trace(self, on: bool) -> dict:
            response = {"ok": True, "counters": counters(self.mediator, store), "broken": []}
            if on:
                tracer.install()
            else:
                response["broken"] = tracer.uninstall()
            return response

    mediator, store = build(workload, inputs, warm=False)
    script = EditScript(mediator, seed) if workload.edits else None
    server = BenchServer(mediator)
    server.start()
    print(f"READY {server.address[1]}", flush=True)
    server.serve_forever()
    if store is not None:
        store.close()


# -- the in-process loop --------------------------------------------------------

def run_inprocess(workload, seed, inputs, seconds, tracer) -> None:
    mediator, store = build(workload, inputs)
    print("READY", flush=True)
    with open(os.path.join(inputs, DIGESTS_FILE), encoding="utf-8") as digests_file:
        digests = json.load(digests_file)
    pool = wl.request_pool(workload.layout)
    queries: dict[str, object] = {}
    failures: list[str] = []

    def one(request_index, item, rid):
        """Answer one request; ``(latency_s, digest ok, check_s)``."""
        kind, view, text = pool[item]
        if text is not None and text not in queries:
            from repro.xmas import parse_query

            queries[text] = parse_query(text)
        tracer.begin_request(rid)
        started = time.perf_counter()
        try:
            if kind == "union":
                answer = mediator.materialize_union(view)
            else:
                answer = mediator.query_view(queries[text], view)
            latency = time.perf_counter() - started
            if mediator.last_degradation is not None:
                raise CheckFailed("degraded answer")
        except Exception:
            failures.append(f"request {request_index}: {traceback.format_exc()}")
            return None, True, 0.0
        check_started = time.perf_counter()
        ok = digest(answer) == digests["pool"][item]
        return latency, ok, time.perf_counter() - check_started

    latency, first_ok, _ = one(-1, 0, 0)
    print(f"FIRST {latency * 1000 if latency is not None else -1} {int(first_ok)}", flush=True)
    try:
        if seconds:
            result = _timed_phases(workload, seed, inputs, seconds, tracer, mediator, store, one)
            result.update(first_ok=first_ok, failures=failures, peak_rss_mb=peak_rss_mb())
            print("RESULT " + json.dumps(result), flush=True)
    finally:
        mediator.close()
        if store is not None:
            store.close()


def _timed_phases(workload, seed, inputs, seconds, tracer, mediator, store, one) -> dict:
    """The closed loop: one phase, or an untraced and a traced half."""
    pool = wl.request_pool(workload.layout)
    traced = tracer.installed
    result = {"broken": tracer.uninstall(), "phases": []}
    sequence = wl.mix_sequence(seed, workload.layout)
    phases = ("untraced", "traced") if traced else ("timed",)
    request_index = 0
    for phase in phases:
        if phase == "traced":
            before = counters(mediator, store)
            tracer.install()
        records, checking = [], 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds / len(phases):
            item = next(sequence)
            request_index += 1
            latency, ok, check_s = one(request_index, item, request_index)
            checking += check_s
            records.append([pool[item][0], latency, ok, request_index, item])
        phase_record = {
            "name": phase,
            "records": records,
            "busy_s": time.perf_counter() - started - checking,
        }
        if phase == "traced":
            result["broken"] += tracer.uninstall()
            phase_record["counters"] = [before, counters(mediator, store)]
        result["phases"].append(phase_record)
    if traced:
        tracer.dump(os.path.join(inputs, SPANS_FILE))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("verify", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = wl.get(args.workload, args.tiny)
    if args.mode == "verify":
        try:
            result = verify(workload, args.seed, args.inputs)
        except CheckFailed as failure:
            print(f"verify: {failure}", file=sys.stderr)
            return 1
        with open(os.path.join(args.inputs, DIGESTS_FILE), "w", encoding="utf-8") as out:
            json.dump(result, out)
        return 0
    tracer = Tracer()
    if args.trace:
        tracer.install()
    if workload.served:
        serve(workload, args.seed, args.inputs, tracer)
    else:
        run_inprocess(workload, args.seed, args.inputs, args.seconds, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
