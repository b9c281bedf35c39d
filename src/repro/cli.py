"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``infer``     -- infer the view DTD of an XMAS query over a DTD
* ``classify``  -- valid / satisfiable / unsatisfiable verdict
* ``evaluate``  -- run a query over an XML document (alias: ``eval``)
* ``ask``       -- answer a query through a mediated view (register the
  view over a source, pre-flight, simplify, then evaluate)
* ``validate``  -- validate a document against a DTD
* ``structure`` -- display the browsable structure of a DTD
* ``lint``      -- static diagnostics for DTDs and queries
* ``trace``     -- run a built-in workload under the tracer and export
  a Chrome ``trace_event`` JSON file (see docs/OBSERVABILITY.md)
* ``serve``     -- keep a warm mediator behind a TCP socket speaking
  the JSON-line protocol, with admission control (docs/SERVING.md)
* ``bench-serve`` -- drive concurrent load at a ``serve`` instance and
  print a JSON throughput/latency summary

``infer``, ``evaluate``, and ``ask`` additionally accept
``--trace FILE``: the whole command runs under an installed tracer and
the trace is written to ``FILE`` on exit.

DTD files may use standard ``<!ELEMENT>`` declarations (optionally
DOCTYPE-wrapped) or the paper's ``{<name : model> ...}`` notation;
the format is auto-detected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dtd import Dtd, parse_dtd, parse_paper_dtd, serialize_dtd, validate_document
from .errors import ReproError
from .inference import InferenceMode, infer_view_dtd
from .mediator import structure_tree
from .xmas import evaluate, parse_query
from .xmlmodel import parse_document, serialize_document


def _load_dtd(path: str, root: str | None = None) -> Dtd:
    text = Path(path).read_text()
    if "<!ELEMENT" in text:
        return parse_dtd(text, root)
    return parse_paper_dtd(text, root)


def _load_query(path: str):
    return parse_query(Path(path).read_text())


def _cmd_infer(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd, args.root)
    query = _load_query(args.query)
    mode = InferenceMode(args.mode)
    result = infer_view_dtd(dtd, query, mode)
    if args.format == "report":
        print(result.describe())
    elif args.format == "xml":
        print(serialize_dtd(result.dtd))
    else:  # paper
        print(result.sdtd)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .inference import tighten

    dtd = _load_dtd(args.dtd, args.root)
    query = _load_query(args.query)
    result = tighten(dtd, query, InferenceMode(args.mode), strict=False)
    print(result.classification.value)
    return 0 if result.classification.is_satisfiable else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    document = parse_document(Path(args.document).read_text())
    answer = evaluate(query, document)
    print(serialize_document(answer), end="")
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    """Answer a client query through a mediated view (the Figure 1 path)."""
    from .mediator import (
        MatViewPolicy,
        Mediator,
        RetryPolicy,
        Source,
        TransportPolicy,
        render_health,
    )

    dtd = _load_dtd(args.dtd, args.root)
    view_query = _load_query(args.view)
    client_query = _load_query(args.query)
    documents = [
        parse_document(Path(path).read_text()) for path in args.documents
    ]
    policy = TransportPolicy(
        timeout=args.timeout,
        retry=RetryPolicy(attempts=max(1, args.retries + 1)),
    )
    cache = None if args.no_cache else MatViewPolicy()
    mediator = Mediator("cli", policy=policy, cache=cache)
    source = Source("source", dtd, documents, validate=not args.no_validate)
    mediator.add_source(source)
    source.warm_indexes()
    registration = mediator.register_view(view_query)
    answer = mediator.query_view(
        client_query,
        registration.name,
        use_simplifier=not args.no_simplifier,
        strategy=args.strategy,
        degrade=not args.no_degrade,
    )
    print(serialize_document(answer), end="")
    if mediator.last_degradation is not None:
        print(mediator.last_degradation.describe(), file=sys.stderr)
    if args.explain:
        print(
            mediator.explain(client_query, registration.name).describe(),
            file=sys.stderr,
        )
    if getattr(args, "stats", False):
        print(render_health(mediator.health()), file=sys.stderr)
        # The kernel registry holds the matview cache only weakly;
        # keep the mediator alive until main()'s kernel-stats print so
        # the cache's counters still aggregate into the report.
        args.stats_anchor = mediator
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd, args.root)
    document = parse_document(Path(args.document).read_text())
    report = validate_document(document, dtd)
    print(report)
    return 0 if report.ok else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream XML files into a persistent document store."""
    from .store import DocumentStore

    store = DocumentStore(args.store)
    dtd = None
    if args.dtd is not None:
        dtd = _load_dtd(args.dtd, args.root)
        store.set_dtd_text(Path(args.dtd).read_text(), root=dtd.root)
    ingested = 0
    elements = 0
    status = 0
    for path in args.documents:
        document = store.ingest_file(path, source=args.source)
        if args.validate and dtd is not None:
            # One full-tree hydration per document; skip --validate for
            # corpora already validated at the producing wrapper.
            report = validate_document(document, dtd)
            if not report.ok:
                store.remove_document(document.doc_id)
                print(f"{path}: rejected: {report}", file=sys.stderr)
                status = 1
                continue
        ingested += 1
        elements += document.size()
        print(
            f"{path}: document {document.doc_id} "
            f"({document.size()} elements)",
            file=sys.stderr,
        )
    print(
        f"ingested {ingested} document(s), {elements} element(s) "
        f"into {args.store} "
        f"({store.n_documents()} stored, generation {store.generation()})"
    )
    store.close()
    return status


def _cmd_structure(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd, args.root)
    print(structure_tree(dtd, max_depth=args.depth).render())
    return 0


def _cmd_xmlize(args: argparse.Namespace) -> int:
    from .dtd import RepairStatus, xmlize_dtd

    dtd = _load_dtd(args.dtd, args.root)
    repaired, report = xmlize_dtd(dtd)
    print(serialize_dtd(repaired))
    for status in RepairStatus:
        names = report.names_with(status)
        if names and status is not RepairStatus.ALREADY_DETERMINISTIC:
            print(f"# {status.value}: {', '.join(names)}")
    return 0 if report.fully_deterministic else 1


def _split_codes(raw: list[str] | None) -> list[str] | None:
    if not raw:
        return None
    codes: list[str] = []
    for chunk in raw:
        codes.extend(code.strip() for code in chunk.split(",") if code.strip())
    return codes or None


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace a built-in workload end to end (deterministic clocks)."""
    from . import obs

    if args.workload == "flaky":
        from .mediator import FakeClock, RetryPolicy, TransportPolicy
        from .workloads.flaky import build_flaky_federation

        clock = FakeClock()
        tracer = obs.install_tracer(obs.Tracer(clock=clock))
        try:
            policy = TransportPolicy(
                timeout=args.timeout,
                retry=RetryPolicy(attempts=max(1, args.retries + 1)),
            )
            mediator = build_flaky_federation(
                clock, policy=policy, n_sources=args.sources
            )
            deadline = mediator.deadline(args.budget)
            mediator.materialize_union("journals", deadline)
        finally:
            obs.uninstall_tracer()
        if mediator.last_degradation is not None:
            print(mediator.last_degradation.describe(), file=sys.stderr)
    else:  # paper
        import random

        from .dtd import generate_document
        from .mediator import Mediator, Source
        from .workloads import paper as paper_workload

        tracer = obs.install_tracer()
        try:
            dtd_obj = paper_workload.d1()
            rng = random.Random(7)
            documents = [
                generate_document(dtd_obj, rng) for _ in range(args.sources)
            ]
            mediator = Mediator("trace")
            mediator.add_source(
                Source("paper", dtd_obj, documents, validate=False)
            )
            registration = mediator.register_view(paper_workload.q3())
            client = parse_query(
                """
                journals = SELECT P
                WHERE <publist>
                        P:<publication><journal/></publication>
                      </>
                """
            )
            mediator.query_view(client, registration.name)
        finally:
            obs.uninstall_tracer()
    print(tracer.render())
    if args.out:
        tracer.dump_json(args.out)
        print(f"trace written to {args.out}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .inference import InferenceMode
    from .lint import DiagnosticReport, run_lint

    if not args.workload and not args.dtd:
        print("error: lint needs --dtd and/or --workload", file=sys.stderr)
        return 2
    if args.query and not args.dtd:
        print("error: --query needs --dtd to check against", file=sys.stderr)
        return 2
    mode = InferenceMode(args.mode)
    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    report = DiagnosticReport()

    if args.workload:
        from .workloads import bibdb
        from .workloads import paper as paper_workload

        pairs = (
            paper_workload.lint_workload()
            if args.workload == "paper"
            else bibdb.lint_workload()
        )
        audited_dtds: set = set()
        for label, source_dtd, query in pairs:
            # Audit each distinct DTD once; lint every query against it.
            signature = (source_dtd.root, source_dtd.names)
            report = report.merged_with(
                run_lint(
                    dtd=source_dtd,
                    query=query,
                    mode=mode,
                    select=select,
                    ignore=ignore,
                    scopes=(
                        {"query", "dtd"}
                        if signature not in audited_dtds
                        else {"query"}
                    ),
                    origin=label,
                )
            )
            audited_dtds.add(signature)
    if args.dtd:
        dtd_text = Path(args.dtd).read_text()
        source_dtd = _load_dtd(args.dtd, args.root)
        if args.query:
            for query_path in args.query:
                query_text = Path(query_path).read_text()
                report = report.merged_with(
                    run_lint(
                        dtd=source_dtd,
                        query=parse_query(query_text),
                        mode=mode,
                        select=select,
                        ignore=ignore,
                        dtd_text=dtd_text,
                        query_text=query_text,
                        origin=Path(query_path).name if len(args.query) > 1 else "",
                    )
                )
        else:
            report = report.merged_with(
                run_lint(
                    dtd=source_dtd,
                    select=select,
                    ignore=ignore,
                    dtd_text=dtd_text,
                )
            )

    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return report.exit_code


def _serve_fanout(args: argparse.Namespace):
    from .mediator import FanoutPolicy

    if args.workers <= 0:
        return None
    return FanoutPolicy(max_workers=args.workers)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import (
        MediatorServer,
        ServePolicy,
        build_serve_workload,
    )

    from .mediator import MatViewPolicy

    cache = (
        None
        if args.no_cache
        else MatViewPolicy(max_bytes=args.cache_bytes)
    )
    try:
        mediator = build_serve_workload(
            args.workload,
            n_sources=args.sources,
            n_docs=args.docs,
            latency=args.latency,
            fanout=_serve_fanout(args),
            cache=cache,
            shards=args.shards,
            store_path=args.store,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    policy = ServePolicy(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_budget=args.budget,
        per_source_concurrency=args.per_source_concurrency,
    )
    server = MediatorServer(
        mediator, policy, host=args.host, port=args.port
    )
    server.start()
    host, port = server.address
    print(
        f"serving workload {args.workload!r} "
        f"({args.sources} sources) on {host}:{port}",
        file=sys.stderr,
    )
    print(f"{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; stopping", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import json as json_module

    from .serve import ServeClient, run_bench

    with ServeClient(args.host, args.port) as client:
        client.ping()
        views = client.views()
        view = args.view or next(iter(sorted(views)))
        if view not in views:
            print(
                f"error: server does not serve view {view!r} "
                f"(it serves {sorted(views)})",
                file=sys.stderr,
            )
            return 2
    result = run_bench(
        args.host,
        args.port,
        view,
        requests=args.requests,
        concurrency=args.concurrency,
        budget=args.budget,
    )
    result["view"] = view
    if args.shutdown:
        with ServeClient(args.host, args.port) as client:
            result["server_stats"] = client.stats()
            client.shutdown()
    print(json_module.dumps(result, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="View DTD inference for XML mediators (ICDE 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dtd_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dtd", required=True, help="DTD file")
        p.add_argument(
            "--root", default=None, help="document type (override)"
        )

    def add_stats_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--stats",
            action="store_true",
            help=(
                "print language-kernel cache statistics (and, for ask,"
                " the source transport health table) to stderr"
            ),
        )

    def add_trace_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help=(
                "run under the repro.obs tracer and write a Chrome"
                " trace_event JSON file"
            ),
        )

    p = sub.add_parser("infer", help="infer a view DTD")
    add_dtd_options(p)
    p.add_argument("--query", required=True, help="XMAS query file")
    p.add_argument(
        "--mode",
        choices=[m.value for m in InferenceMode],
        default="exact",
        help="validity decision mode (default: exact)",
    )
    p.add_argument(
        "--format",
        choices=["report", "paper", "xml"],
        default="report",
        help="output format (default: full report)",
    )
    add_stats_option(p)
    add_trace_option(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("classify", help="classify a query against a DTD")
    add_dtd_options(p)
    p.add_argument("--query", required=True)
    p.add_argument(
        "--mode",
        choices=[m.value for m in InferenceMode],
        default="exact",
    )
    add_stats_option(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "evaluate", aliases=["eval"], help="run a query over a document"
    )
    p.add_argument("--query", required=True)
    p.add_argument("document", help="XML document file")
    add_stats_option(p)
    add_trace_option(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "ask",
        help="answer a query through a mediated view",
        description=(
            "Register a view over a source (DTD + documents), then answer"
            " a client query against it through the mediator: DTD-based"
            " pre-flight, simplification, and composition or"
            " materialization."
        ),
    )
    add_dtd_options(p)
    p.add_argument("--view", required=True, help="view definition (XMAS file)")
    p.add_argument("--query", required=True, help="client query (XMAS file)")
    p.add_argument("documents", nargs="+", help="source XML document files")
    p.add_argument(
        "--strategy",
        choices=["auto", "compose", "materialize"],
        default="auto",
        help="execution strategy (default: auto)",
    )
    p.add_argument(
        "--no-simplifier",
        action="store_true",
        help="skip the DTD-based pre-flight and simplifier",
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip source-document validation on load",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the mediator's query plan to stderr",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-source-call timeout (default: none)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries after a failed source call (default: 2)",
    )
    p.add_argument(
        "--no-degrade",
        action="store_true",
        help=(
            "raise on permanent source failure instead of returning an"
            " annotated partial answer"
        ),
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "run without the materialized-view answer cache (a single"
            " cold query never hits it, but --stats then omits its"
            " counters entirely)"
        ),
    )
    add_stats_option(p)
    add_trace_option(p)
    p.set_defaults(func=_cmd_ask)

    p = sub.add_parser("validate", help="validate a document against a DTD")
    add_dtd_options(p)
    p.add_argument("document", help="XML document file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "ingest",
        help="stream XML documents into a persistent store",
        description=(
            "Stream-parse XML files into a SQLite document store"
            " (created on first use) without materializing their"
            " trees; `repro serve --store` and Source.from_store serve"
            " straight from the stored preorder arrays.  See"
            " docs/PERSISTENCE.md."
        ),
    )
    p.add_argument(
        "--store", required=True, metavar="PATH", help="store file"
    )
    p.add_argument(
        "--source",
        default=None,
        metavar="NAME",
        help="source tag to ingest under (filters later loads)",
    )
    p.add_argument(
        "--dtd",
        default=None,
        help="DTD file to stash in the store's metadata",
    )
    p.add_argument(
        "--root", default=None, help="document type (override)"
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help=(
            "validate each document against --dtd after ingest"
            " (rejected documents are removed again; exit 1)"
        ),
    )
    p.add_argument(
        "documents", nargs="+", help="XML document files to ingest"
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("structure", help="show a DTD's element structure")
    add_dtd_options(p)
    p.add_argument("--depth", type=int, default=12, help="max display depth")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser(
        "xmlize",
        help="repair content models to XML-1.0 determinism",
    )
    add_dtd_options(p)
    p.set_defaults(func=_cmd_xmlize)

    p = sub.add_parser(
        "lint",
        help="static diagnostics for DTDs and XMAS queries",
        description=(
            "Run the rule-based static analyzer (see docs/DIAGNOSTICS.md)."
            " Exits 1 exactly when an error-severity diagnostic is present,"
            " 0 otherwise."
        ),
    )
    p.add_argument("--dtd", help="DTD file to audit / check queries against")
    p.add_argument("--root", default=None, help="document type (override)")
    p.add_argument(
        "--query",
        action="append",
        default=[],
        help="XMAS query file to check against --dtd (repeatable)",
    )
    p.add_argument(
        "--workload",
        choices=["paper", "bibdb"],
        help="lint a built-in workload's DTD/query pairs",
    )
    p.add_argument(
        "--mode",
        choices=[m.value for m in InferenceMode],
        default="exact",
        help="validity decision mode (default: exact)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--select",
        action="append",
        help="only run these codes/prefixes (comma-separated, repeatable)",
    )
    p.add_argument(
        "--ignore",
        action="append",
        help="skip these codes/prefixes (comma-separated, repeatable)",
    )
    add_stats_option(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "trace",
        help="trace a built-in workload and export Chrome trace JSON",
        description=(
            "Run a built-in workload end to end under the repro.obs"
            " tracer (the flaky federation runs on a deterministic fake"
            " clock), print the span tree, and optionally write a"
            " chrome://tracing-compatible JSON file."
        ),
    )
    p.add_argument(
        "--workload",
        choices=["flaky", "paper"],
        default="flaky",
        help="which workload to trace (default: flaky)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the Chrome trace_event JSON here",
    )
    p.add_argument(
        "--sources",
        type=int,
        default=3,
        metavar="N",
        help="federation size / paper document count (default: 3)",
    )
    p.add_argument(
        "--budget",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="fan-out deadline budget on the fake clock (default: 10)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="per-source-call timeout (default: 2)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries after a failed source call (default: 2)",
    )
    add_stats_option(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="serve a warm mediator over the JSON-line protocol",
        description=(
            "Keep a built-in federation warm (plans compiled, indexes"
            " built, fan-out pool up) behind a TCP socket speaking the"
            " JSON-line protocol of docs/SERVING.md, with admission"
            " control.  Prints host:port on stdout once listening"
            " (use --port 0 to pick a free port)."
        ),
    )
    p.add_argument(
        "--workload",
        choices=["flaky", "paper", "bibdb"],
        default="paper",
        help="which federation to serve (default: paper)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = pick a free port)",
    )
    p.add_argument("--sources", type=int, default=4, metavar="N")
    p.add_argument("--docs", type=int, default=2, metavar="N")
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "split every site into N fragment-DTD shards with"
            " fragmentation-aware pruning (bibdb workload only;"
            " default: 0 = unsharded)"
        ),
    )
    p.add_argument(
        "--latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="injected per-call source latency (flaky workload only)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "back the corpus with a persistent document store at PATH"
            " (paper workload only): the first run ingests the"
            " generated documents, later runs warm-start from the"
            " stored preorder arrays without re-parsing"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="parallel fan-out workers (0 = inline fan-out)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrently evaluating requests (default: 8)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait for a slot (default: 16)",
    )
    p.add_argument(
        "--budget",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="default per-request deadline budget (default: 2)",
    )
    p.add_argument(
        "--per-source-concurrency",
        type=int,
        default=4,
        help="per-source transport gate (0 disables; default: 4)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the shared materialized-view answer cache",
    )
    p.add_argument(
        "--cache-bytes",
        type=int,
        default=8 << 20,
        metavar="BYTES",
        help=(
            "materialized-view cache byte budget"
            " (default: 8 MiB; ignored with --no-cache)"
        ),
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "bench-serve",
        help="drive load at a running repro serve instance",
        description=(
            "Connect concurrent clients to a running `repro serve`"
            " instance, issue union requests, and print a JSON summary:"
            " throughput, latency quantiles, degradation and admission"
            "-drop counts."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--view",
        default=None,
        help="union view to request (default: the server's first view)",
    )
    p.add_argument("--requests", type=int, default=100, metavar="N")
    p.add_argument("--concurrency", type=int, default=4, metavar="N")
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline budget (default: server default)",
    )
    p.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down after the run",
    )
    p.set_defaults(func=_cmd_bench_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    tracer = None
    if trace_path:
        from . import obs

        tracer = obs.install_tracer()
    try:
        code = args.func(args)
        if getattr(args, "stats", False):
            from .regex import render_stats

            print(render_stats(), file=sys.stderr)
        return code
    except ReproError as error:
        # Runtime failures share the lint rules' code namespace
        # (docs/DIAGNOSTICS.md); print the code so output is greppable.
        print(f"error[{error.code}]: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            from . import obs

            obs.uninstall_tracer()
            tracer.dump_json(trace_path)
            print(f"trace written to {trace_path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
