"""The docs link checker (scripts/check_docs_links.py) — both that it
catches breakage and that the repo's actual markdown corpus is clean."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_docs_links.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestChecker:
    def test_broken_references_are_caught(self, tmp_path, monkeypatch):
        checker = load_checker()
        monkeypatch.setattr(checker, "REPO", tmp_path)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "REAL.md").write_text("# real\n")
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[ok](docs/REAL.md) and [broken](docs/GONE.md)\n"
            "`docs/REAL.md` is fine, `docs/REAL.md:999` is past the end,\n"
            "`src/nowhere.py` is missing, `--some-flag` is not a path.\n"
        )
        problems = checker.check_file(doc)
        assert len(problems) == 3
        assert any("GONE.md" in p for p in problems)
        assert any("past end" in p for p in problems)
        assert any("src/nowhere.py" in p for p in problems)

    def test_anchors_and_urls_are_skipped(self, tmp_path, monkeypatch):
        checker = load_checker()
        monkeypatch.setattr(checker, "REPO", tmp_path)
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[web](https://example.com) [anchor](#section)\n"
            "`tests/foo.py::test_bar` selectors check only the file part\n"
        )
        problems = checker.check_file(doc)
        # the pytest selector's file is genuinely missing here
        assert len(problems) == 1 and "tests/foo.py" in problems[0]

    def test_stale_environment_variables_are_caught(
        self, tmp_path, monkeypatch
    ):
        checker = load_checker()
        monkeypatch.setattr(checker, "REPO", tmp_path)
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "config.py").write_text(
            'import os\nLIVE = os.environ.get("REPRO_LIVE")\n'
        )
        doc = tmp_path / "README.md"
        doc.write_text(
            "Set `REPRO_LIVE=1` to enable it.\n"
            "`REPRO_STALE=legacy` selects a removed backend.\n"
        )
        history = tmp_path / "CHANGES.md"
        history.write_text("PR 1 added REPRO_STALE.\n")
        problems = checker.check_environment_variables([doc, history])
        assert problems == [
            "README.md:2: environment variable REPRO_STALE is not read"
            " anywhere under src/"
        ]

    def test_uncatalogued_spans_are_caught(self, tmp_path, monkeypatch):
        checker = load_checker()
        monkeypatch.setattr(checker, "REPO", tmp_path)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
            "## Span catalogue\n\n"
            "| span | attributes | events |\n"
            "|---|---|---|\n"
            "| `known.span` | view | |\n\n"
            "## Trace format\n\n"
            "| `after.catalogue` | not a catalogue row | |\n"
        )
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "work.py").write_text(
            "from repro import obs\n"
            'with obs.span("known.span"):\n'
            "    pass\n"
            'leg = obs.start_span("uncatalogued.leg")\n'
            'with obs.span("after.catalogue"):\n'
            "    pass\n"
        )
        problems = checker.check_span_catalogue()
        assert problems == [
            "src/work.py:4: span uncatalogued.leg is not in the "
            "docs/OBSERVABILITY.md span catalogue",
            "src/work.py:5: span after.catalogue is not in the "
            "docs/OBSERVABILITY.md span catalogue",
        ]

    def test_unregistered_catalogue_codes_are_caught(
        self, tmp_path, monkeypatch
    ):
        checker = load_checker()
        monkeypatch.setattr(checker, "REPO", tmp_path)
        import repro.lint  # noqa: F401  (registers the MIX1xx rule codes)
        import repro.serve  # noqa: F401  (registers the SRVxxx codes)
        from repro.errors import DIAGNOSTIC_CODES

        (tmp_path / "docs").mkdir()
        rows = [
            f"| {code} | {summary} |"
            for code, summary in sorted(DIAGNOSTIC_CODES.items())
        ]
        (tmp_path / "docs" / "DIAGNOSTICS.md").write_text(
            "| code | meaning |\n|---|---|\n"
            + "\n".join(rows)
            + "\n| MED099 | a deleted code left behind |\n"
            "\nProse may mention MED099 freely.\n"
        )
        problems = checker.check_diagnostic_catalogue()
        assert problems == [
            f"docs/DIAGNOSTICS.md:{len(rows) + 3}: catalogued code MED099 "
            "is not registered"
        ]

    def test_uncatalogued_stats_are_caught(self, tmp_path, monkeypatch):
        checker = load_checker()
        monkeypatch.setattr(checker, "REPO", tmp_path)
        import repro.mediator  # noqa: F401  (registers engine/matview/sharding)
        import repro.store  # noqa: F401  (registers store.pages)
        from repro.obs import registry

        names = sorted(
            {*registry.registered_caches(), *registry.registered_sections()}
        )
        assert "engine.doc_index" in names and "matview" in names
        rows = [f"| `{name}` | registered |" for name in names]
        rows.remove("| `engine.doc_index` | registered |")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
            "## Stats catalogue\n\n| name | counts |\n|---|---|\n"
            + "\n".join(rows)
            + "\n| `gone.cache` | a deleted cache left behind |\n\n"
            "## Trace format\n\n"
            "| `after.catalogue` | not a catalogue row |\n"
        )
        problems = checker.check_stats_catalogue()
        assert problems == [
            "docs/OBSERVABILITY.md: registered stats name engine.doc_index "
            "is not in the stats catalogue",
            f"docs/OBSERVABILITY.md:{len(rows) + 5}: catalogued stats "
            "name gone.cache is not registered",
        ]

    def test_repo_markdown_corpus_is_clean(self):
        """README + docs must not drift from the tree (make check-docs)."""
        checker = load_checker()
        problems = []
        for doc in checker.DOC_FILES:
            problems.extend(checker.check_file(doc))
        problems.extend(checker.check_diagnostic_catalogue())
        problems.extend(checker.check_environment_variables(checker.DOC_FILES))
        problems.extend(checker.check_span_catalogue())
        problems.extend(checker.check_stats_catalogue())
        assert problems == []
