#!/usr/bin/env python3
"""Matview smoke: the answer cache works end to end on user surfaces.

Drives the materialized-view cache through the two front ends:

1. **CLI** — ``repro ask --stats`` must report the matview section
   (the single cold query is a counted miss + store), and
   ``--no-cache`` must run clean without it.
2. **Serve** — a cached server session over a real socket: the first
   union misses, the repeat hits, ``cache=False`` bypasses (SRV008)
   without evicting, and an edit to a source document is served by
   provenance-guided delta maintenance.  Server stats must agree with
   the per-response cache fields.

Exit status: 0 when every check passes, 1 otherwise.  Wired into
``make matview-smoke`` / ``make check``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import main  # noqa: E402
from repro.dtd import generate_document, serialize_dtd  # noqa: E402
from repro.mediator import MatViewPolicy  # noqa: E402
from repro.obs import clear_caches  # noqa: E402
from repro.serve import (  # noqa: E402
    MediatorServer,
    ServeClient,
    ServePolicy,
    build_paper_federation,
)
from repro.workloads import paper  # noqa: E402
from repro.xmlmodel import serialize_document  # noqa: E402

VIEW_QUERY = """
publist =
  SELECT P
  WHERE <department>
          <name>CS</name>
          <professor | gradStudent>
            P:<publication><journal/></publication>
          </>
        </>
"""

CLIENT_QUERY = """
journals = SELECT P
WHERE <publist>
        P:<publication><title/></publication>
      </>
"""

failures: list[str] = []


def check(label: str, ok: bool) -> None:
    print(f"{'ok' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def run_ask(tmp: Path, *extra: str) -> tuple[int, str, str]:
    dtd_file = tmp / "d1.dtd"
    if not dtd_file.exists():
        dtd_file.write_text(serialize_dtd(paper.d1()))
        (tmp / "view.xmas").write_text(VIEW_QUERY)
        (tmp / "client.xmas").write_text(CLIENT_QUERY)
        # seed 25: the generated department has journal publications,
        # so the view answer is non-empty
        (tmp / "doc.xml").write_text(
            serialize_document(
                generate_document(paper.d1(), random.Random(25))
            )
        )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(
            [
                "ask",
                "--dtd", str(dtd_file),
                "--view", str(tmp / "view.xmas"),
                "--query", str(tmp / "client.xmas"),
                *extra,
                str(tmp / "doc.xml"),
            ]
        )
    return status, out.getvalue(), err.getvalue()


def smoke_cli(tmp: Path) -> None:
    clear_caches()
    status, out, err = run_ask(tmp, "--stats")
    check("ask --stats exit 0", status == 0)
    check("ask answers the view", "<journals>" in out and "<title>" in out)
    check("ask --stats reports the matview section", "matview cache:" in err)
    # The dead mediator's cache must not linger in the kernel stats.
    gc.collect()
    clear_caches()
    status, out, err = run_ask(tmp, "--no-cache", "--stats")
    check("ask --no-cache exit 0", status == 0)
    check("ask --no-cache answers the view", "<journals>" in out)
    check(
        "ask --no-cache omits the matview section",
        "matview cache:" not in err,
    )


def smoke_serve() -> None:
    clear_caches()
    mediator = build_paper_federation(cache=MatViewPolicy())
    server = MediatorServer(mediator, ServePolicy()).start()
    host, port = server.address
    try:
        with ServeClient(host, port) as client:
            first = client.union("journals")
            check("serve: first union misses", first["cache"] == "miss")
            second = client.union("journals")
            check("serve: repeat union hits", second["cache"] == "hit")
            check(
                "serve: hit serves the same answer",
                second["answer"] == first["answer"],
            )
            bypass = client.union("journals", cache=False)
            check("serve: cache=false bypasses", bypass["cache"] == "bypass")
            check(
                "serve: bypass carries SRV008",
                bypass.get("cache_code") == "SRV008",
            )
            check(
                "serve: bypass does not evict",
                client.union("journals")["cache"] == "hit",
            )
            # Edit one source document; the next union must be served
            # by splicing that document's fresh picks, not a recompute.
            document = mediator.sources["dept0"].documents[0]
            title = next(
                el for el in document.root.iter() if el.name == "title"
            )
            title.set_text("second edition")
            delta = client.union("journals")
            check("serve: source edit serves a delta", delta["cache"] == "delta")
            check(
                "serve: delta carries the edit",
                "second edition" in delta["answer"],
            )
            # Differential soundness: the spliced answer must equal a
            # cold recompute (cache=False evaluates fresh, stores nothing).
            oracle = client.union("journals", cache=False)
            check(
                "serve: delta equals a cold recompute",
                delta["answer"] == oracle["answer"],
            )
            stats = client.stats()
            matview = stats.get("matview", {})
            check("serve: stats count hits", matview.get("hits", 0) >= 2)
            check("serve: stats count the delta", matview.get("deltas", 0) == 1)
            check(
                "serve: stats count the bypasses",
                stats.get("cache_bypassed") == 2
                and matview.get("bypasses", 0) == 2,
            )
            check(
                "serve: no recompute after the delta",
                matview.get("recomputes", 0) == 1,
            )
            client.shutdown()
        server.serve_forever()
    finally:
        server.stop()


def run() -> int:
    with tempfile.TemporaryDirectory() as tmpdir:
        smoke_cli(Path(tmpdir))
    smoke_serve()
    if failures:
        print(f"\n{len(failures)} matview smoke failure(s)")
        return 1
    print("\nmatview smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(run())
