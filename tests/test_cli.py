"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.dtd import serialize_dtd
from repro.workloads import paper

DTD_PAPER_NOTATION = """
{<professor : name, (journal | conference)*>
 <name : #PCDATA> <journal : #PCDATA> <conference : #PCDATA>}
"""

QUERY = "SELECT X WHERE X:<professor><journal/></professor>"

DOC = "<professor><name>Y</name><journal>J</journal></professor>"


@pytest.fixture
def files(tmp_path):
    dtd_file = tmp_path / "source.dtd"
    dtd_file.write_text(DTD_PAPER_NOTATION)
    std_dtd_file = tmp_path / "source_std.dtd"
    std_dtd_file.write_text(serialize_dtd(paper.d9()))
    query_file = tmp_path / "query.xmas"
    query_file.write_text(QUERY)
    doc_file = tmp_path / "doc.xml"
    doc_file.write_text(DOC)
    return {
        "dtd": str(dtd_file),
        "std_dtd": str(std_dtd_file),
        "query": str(query_file),
        "doc": str(doc_file),
    }


class TestInfer:
    def test_report(self, files, capsys):
        assert main(["infer", "--dtd", files["dtd"], "--query", files["query"]]) == 0
        out = capsys.readouterr().out
        assert "satisfiable" in out
        assert "journal" in out

    def test_xml_format(self, files, capsys):
        assert (
            main(
                [
                    "infer",
                    "--dtd",
                    files["dtd"],
                    "--query",
                    files["query"],
                    "--format",
                    "xml",
                ]
            )
            == 0
        )
        assert "<!ELEMENT" in capsys.readouterr().out

    def test_paper_format(self, files, capsys):
        assert (
            main(
                [
                    "infer",
                    "--dtd",
                    files["dtd"],
                    "--query",
                    files["query"],
                    "--format",
                    "paper",
                ]
            )
            == 0
        )
        assert "answer" in capsys.readouterr().out

    def test_standard_dtd_autodetected(self, files, capsys):
        assert (
            main(
                ["infer", "--dtd", files["std_dtd"], "--query", files["query"]]
            )
            == 0
        )

    def test_paper_mode_flag(self, files, capsys):
        assert (
            main(
                [
                    "infer",
                    "--dtd",
                    files["dtd"],
                    "--query",
                    files["query"],
                    "--mode",
                    "paper",
                ]
            )
            == 0
        )


class TestClassify:
    def test_satisfiable(self, files, capsys):
        assert (
            main(["classify", "--dtd", files["dtd"], "--query", files["query"]])
            == 0
        )
        assert capsys.readouterr().out.strip() == "satisfiable"

    def test_unsatisfiable_exit_code(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xmas"
        bad.write_text(
            "SELECT X WHERE X:<name><journal/></name>"
        )
        assert (
            main(["classify", "--dtd", files["dtd"], "--query", str(bad)])
            == 1
        )
        assert capsys.readouterr().out.strip() == "unsatisfiable"


class TestEvaluateValidate:
    def test_evaluate(self, files, capsys):
        assert (
            main(["evaluate", "--query", files["query"], files["doc"]]) == 0
        )
        out = capsys.readouterr().out
        assert "<answer>" in out
        assert "<journal>J</journal>" in out

    def test_evaluate_alias_and_backends(self, files, capsys):
        assert main(["eval", "--query", files["query"], files["doc"]]) == 0
        assert "<journal>J</journal>" in capsys.readouterr().out

    def test_backend_flag_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "eval",
                    "--query",
                    files["query"],
                    "--backend",
                    "compiled",
                    files["doc"],
                ]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_evaluate_stats_reports_engine_caches(self, files, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "--query",
                    files["query"],
                    "--stats",
                    files["doc"],
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "engine.doc_index" in err
        assert "engine.plans" not in err

    def test_validate_ok(self, files, capsys):
        assert main(["validate", "--dtd", files["dtd"], files["doc"]]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_validate_failure(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<professor><journal>J</journal></professor>")
        assert main(["validate", "--dtd", files["dtd"], str(bad)]) == 1


class TestAsk:
    CLIENT = "picks = SELECT N WHERE <answer> <professor> N:<name/> </> </>"

    def _ask(self, files, tmp_path, *extra):
        client_file = tmp_path / "client.xmas"
        client_file.write_text(self.CLIENT)
        return main(
            [
                "ask",
                "--dtd",
                files["dtd"],
                "--view",
                files["query"],
                "--query",
                str(client_file),
                *extra,
                files["doc"],
            ]
        )

    def test_ask_answers_through_view(self, files, tmp_path, capsys):
        assert self._ask(files, tmp_path) == 0
        out = capsys.readouterr().out
        assert "<picks>" in out
        assert "<name>Y</name>" in out

    def test_ask_backends_agree(self, files, tmp_path, capsys):
        assert self._ask(files, tmp_path, "--strategy", "materialize") == 0
        out = capsys.readouterr().out
        assert "<picks>" in out
        assert "<name>Y</name>" in out

    def test_ask_explain(self, files, tmp_path, capsys):
        assert self._ask(files, tmp_path, "--explain") == 0
        err = capsys.readouterr().err
        assert "strategy:" in err

    def test_ask_explain_reports_the_strategy_it_ran(
        self, files, tmp_path, capsys
    ):
        assert (
            self._ask(
                files, tmp_path, "--strategy", "materialize", "--explain"
            )
            == 0
        )
        assert "strategy: materialize" in capsys.readouterr().err

    def test_ask_transport_flags_accepted(self, files, tmp_path, capsys):
        assert (
            self._ask(
                files, tmp_path, "--timeout", "5.0", "--retries", "0",
                "--no-degrade",
            )
            == 0
        )
        assert "<picks>" in capsys.readouterr().out

    def test_ask_stats_reports_breaker_health(self, files, tmp_path, capsys):
        assert self._ask(files, tmp_path, "--stats") == 0
        err = capsys.readouterr().err
        assert "breaker" in err
        assert "closed" in err


class TestStructure:
    def test_structure(self, files, capsys):
        assert main(["structure", "--dtd", files["dtd"]]) == 0
        out = capsys.readouterr().out
        assert "professor" in out
        assert "#PCDATA" in out


class TestErrors:
    def test_missing_file(self, files, capsys):
        assert (
            main(["infer", "--dtd", "/nope.dtd", "--query", files["query"]])
            == 2
        )
        assert "error" in capsys.readouterr().err

    def test_bad_query(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xmas"
        bad.write_text("THIS IS NOT XMAS")
        assert (
            main(["infer", "--dtd", files["dtd"], "--query", str(bad)]) == 2
        )


class TestXmlize:
    def test_repairs(self, tmp_path, capsys):
        dtd_file = tmp_path / "nondeterministic.dtd"
        dtd_file.write_text(
            "<!DOCTYPE r [<!ELEMENT r ((a, b) | (a, c))>"
            "<!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"
            "<!ELEMENT c (#PCDATA)>]>"
        )
        assert main(["xmlize", "--dtd", str(dtd_file)]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        assert "<!ELEMENT r" in out

    def test_impossible_flagged(self, tmp_path, capsys):
        dtd_file = tmp_path / "hopeless.dtd"
        dtd_file.write_text(
            "<!DOCTYPE r [<!ELEMENT r ((a | b)*, a, (a | b))>"
            "<!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>]>"
        )
        assert main(["xmlize", "--dtd", str(dtd_file)]) == 1
        assert "impossible" in capsys.readouterr().out


class TestTrace:
    CLIENT = "picks = SELECT N WHERE <answer> <professor> N:<name/> </> </>"

    def test_ask_trace_writes_chrome_json(self, files, tmp_path, capsys):
        import json

        client_file = tmp_path / "client.xmas"
        client_file.write_text(self.CLIENT)
        trace_file = tmp_path / "trace.json"
        assert (
            main(
                [
                    "ask",
                    "--dtd",
                    files["dtd"],
                    "--view",
                    files["query"],
                    "--query",
                    str(client_file),
                    "--trace",
                    str(trace_file),
                    files["doc"],
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "trace written to" in err
        data = json.loads(trace_file.read_text())
        assert data["displayTimeUnit"] == "ms"
        names = {event["name"] for event in data["traceEvents"]}
        assert "mediator.register_view" in names
        assert "inference.infer_view_dtd" in names
        assert "engine.evaluate" in names
        assert "mediator.query_view" in names
        assert "transport.call" in names

    def test_trace_flaky_workload(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "flaky.json"
        assert (
            main(["trace", "--workload", "flaky", "--out", str(out_file)]) == 0
        )
        out = capsys.readouterr().out
        assert "mediator.materialize_union" in out
        data = json.loads(out_file.read_text())
        events = data["traceEvents"]
        spans = {e["name"] for e in events if e["ph"] == "X"}
        assert "transport.call" in spans
        assert "engine.evaluate" in spans
        # the flaky federation retries, so attempt instants must appear
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert any(name.endswith("/attempt") for name in instants)

    def test_trace_paper_workload(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "paper.json"
        assert (
            main(["trace", "--workload", "paper", "--out", str(out_file)]) == 0
        )
        data = json.loads(out_file.read_text())
        spans = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert "inference.infer_view_dtd" in spans
        assert "mediator.query_view" in spans

    def test_trace_uninstalls_tracer_on_exit(self, tmp_path):
        from repro import obs

        assert main(["trace", "--out", str(tmp_path / "t.json")]) == 0
        assert obs.active_tracer() is None


class TestServeCli:
    """serve + bench-serve through main(), against a real socket."""

    def test_serve_and_bench_serve_round_trip(self, capsys):
        import json

        # The serve command itself blocks in serve_forever, so drive
        # the same pieces it wires together (workload + server) and
        # exercise the bench-serve command against them end to end.
        from repro.serve import (
            MediatorServer,
            ServePolicy,
            build_serve_workload,
        )

        mediator = build_serve_workload("paper", n_sources=2)
        with MediatorServer(mediator, ServePolicy()) as server:
            host, port = server.address
            code = main(
                [
                    "bench-serve",
                    "--port",
                    str(port),
                    "--requests",
                    "10",
                    "--concurrency",
                    "2",
                ]
            )
            assert code == 0
            result = json.loads(capsys.readouterr().out)
            assert result["answered"] == 10
            assert result["view"] == "journals"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--budget", "nan"],
            ["--budget", "0"],
            ["--max-inflight", "0"],
            ["--max-queue", "-1"],
            ["--per-source-concurrency", "-1"],
        ],
    )
    def test_serve_rejects_invalid_policy(self, flags, capsys, monkeypatch):
        from repro.serve import MediatorServer

        def interrupted(self):
            raise KeyboardInterrupt

        # Never block: an accepted policy would serve until interrupted.
        monkeypatch.setattr(MediatorServer, "serve_forever", interrupted)
        code = main(["serve", "--workload", "paper", "--port", "0", *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_serve_unknown_view_fails(self, capsys):
        from repro.serve import (
            MediatorServer,
            ServePolicy,
            build_serve_workload,
        )

        mediator = build_serve_workload("paper", n_sources=2)
        with MediatorServer(mediator, ServePolicy()) as server:
            _, port = server.address
            code = main(
                ["bench-serve", "--port", str(port), "--view", "nope"]
            )
            assert code == 2
            assert "does not serve" in capsys.readouterr().err
