"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data import Relation, csvio


@pytest.fixture
def csv_r(tmp_path):
    rel = Relation("R", ("A", "B"), [(1, 10), (2, 20), (3, 30)])
    path = tmp_path / "r.csv"
    csvio.write_csv(rel, str(path))
    return f"{path}:R"


class TestTranslate:
    def test_arc_to_alt(self, capsys):
        code = main(["translate", "--to", "alt", "{Q(A) | ∃r ∈ R[Q.A = r.A]}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "COLLECTION" in out and "BINDING: r ∈ R" in out

    def test_sql_to_arc(self, capsys):
        code = main(
            ["translate", "--from", "sql", "--to", "arc", "select R.A from R"]
        )
        assert code == 0
        assert "∃" in capsys.readouterr().out

    def test_arc_to_sql(self, capsys):
        code = main(["translate", "--to", "sql", "{Q(A) | ∃r ∈ R[Q.A = r.A]}"])
        assert code == 0
        assert "select" in capsys.readouterr().out

    def test_datalog_to_higraph(self, capsys):
        code = main(
            ["translate", "--from", "datalog", "--to", "higraph", "Q(x) :- R(x)."]
        )
        assert code == 0
        assert "canvas" in capsys.readouterr().out

    def test_trc_normalization(self, capsys):
        code = main(
            ["translate", "--from", "trc", "{r.A | r ∈ R}"]
        )
        assert code == 0
        assert "Q.A = r.A" in capsys.readouterr().out

    def test_svg_output(self, capsys):
        code = main(["translate", "--to", "svg", "{Q(A) | ∃r ∈ R[Q.A = r.A]}"])
        assert code == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_parse_error_exit_code(self, capsys):
        code = main(["translate", "{broken"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_valid(self, capsys):
        code = main(["validate", "{Q(A) | ∃r ∈ R[Q.A = r.A]}"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid(self, capsys):
        code = main(["validate", "{Q(sm) | ∃r ∈ R[Q.sm = sum(r.B)]}"])
        assert code == 1
        assert "grouping-required" in capsys.readouterr().out

    def test_abstract_allowed(self, capsys):
        query = "{S(l) | ¬(∃x ∈ L[x.d = S.l])}"
        assert main(["validate", query]) == 1
        assert main(["validate", "--allow-abstract", query]) == 0


class TestEval:
    def test_eval_csv(self, capsys, csv_r):
        code = main(
            ["eval", "--db", csv_r, "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 10]}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2" in out and "3" in out

    def test_eval_sql_with_conventions(self, capsys, csv_r):
        code = main(
            [
                "eval",
                "--from",
                "sql",
                "--db",
                csv_r,
                "--conventions",
                "sql",
                "select sum(R.B) sm from R",
            ]
        )
        assert code == 0
        assert "60" in capsys.readouterr().out

    def test_sentence_prints_truth(self, capsys, csv_r):
        code = main(["eval", "--db", csv_r, "∃r ∈ R[r.A = 1]"])
        assert code == 0
        assert "TRUE" in capsys.readouterr().out

    def test_repeat_prints_cold_and_warm_timings(self, capsys, csv_r):
        code = main(
            [
                "eval",
                "--db",
                csv_r,
                "--conventions",
                "sql",
                "--backend",
                "sqlite",
                "--repeat",
                "3",
                "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 10]}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run 1:" in out and "(cold)" in out
        assert "run 3:" in out
        # The result table itself still prints exactly once.
        assert out.count("A\n-") == 1

    def test_repeat_default_prints_no_timings(self, capsys, csv_r):
        code = main(["eval", "--db", csv_r, "{Q(A) | ∃r ∈ R[Q.A = r.A]}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run 1:" not in out
        assert "decorrelation:" not in out

    def test_repeat_prints_decorrelation_counters(self, capsys, csv_r):
        theta = (
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ R, γ ∅"
            "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        code = main(
            [
                "eval",
                "--db",
                csv_r,
                "--conventions",
                "sql",
                "--repeat",
                "2",
                theta,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The θ lateral band-decorrelates: the index builds once (cold run)
        # and the warm run probes it; the counters line shows both.
        assert "decorrelation:" in out
        assert "band_index_builds=1" in out
        assert "lateral_reevals=0" in out
        assert "tribucket_probes=0" in out

    def test_contradictory_engine_flags_error(self, capsys, csv_r):
        code = main(
            [
                "eval",
                "--db",
                csv_r,
                "--no-planner",
                "--backend",
                "sqlite",
                "{Q(A) | ∃r ∈ R[Q.A = r.A]}",
            ]
        )
        assert code == 2
        assert "--no-planner" in capsys.readouterr().err

    def test_no_planner_explain_labels_the_reference_engine(self, capsys, csv_r):
        code = main(
            [
                "eval",
                "--db",
                csv_r,
                "--no-planner",
                "--explain",
                "{Q(A) | ∃r ∈ R[Q.A = r.A]}",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        (query,) = [line for line in lines if line.startswith("query ")]
        assert "backend=reference" in query
        assert not any("planner" in line for line in lines), lines


class TestServeCommand:
    def test_parser_wires_serve(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(
            ["serve", "--db", "r.csv:R", "--port", "0", "--backend", "sqlite"]
        )
        assert args.func is cmd_serve
        assert args.port == 0 and args.backend == "sqlite"
        assert args.quiet  # request logging is opt-in (--log-requests)

    def test_serve_end_to_end(self, capsys, csv_r):
        """cmd_serve really binds a socket and answers; driven by swapping
        serve_forever for handle_request so the command returns."""
        import json
        import threading
        import urllib.request

        from repro.api.serve import QueryServer
        from repro.cli import main as cli_main

        answered = {}
        original = QueryServer.serve_forever

        def two_requests(self, poll_interval=0.5):
            url = self.url

            def drive():
                body = json.dumps(
                    {"query": "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 10]}"}
                ).encode()
                request = urllib.request.Request(
                    url + "/query", body, {"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(request, timeout=10) as resp:
                    answered["status"] = resp.status
                    answered["body"] = json.load(resp)

            thread = threading.Thread(target=drive)
            thread.start()
            self.handle_request()
            thread.join(timeout=10)

        QueryServer.serve_forever = two_requests
        try:
            code = cli_main(
                ["serve", "--db", csv_r, "--port", "0", "--conventions", "sql"]
            )
        finally:
            QueryServer.serve_forever = original
        assert code == 0
        assert answered["status"] == 200
        assert answered["body"]["rows"] == [[2], [3]]
        assert "serving on http://127.0.0.1:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--timeout-ms", "--hard-timeout-ms", "--shed-threshold-ms"]
    )
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_limits_are_refused_by_flag_name(
        self, capsys, csv_r, flag, value
    ):
        code = main(["serve", "--db", csv_r, "--port", "0", flag, value])
        assert code == 2
        assert f"{flag} must be positive" in capsys.readouterr().err


class TestPatterns:
    def test_patterns_report(self, capsys):
        code = main(
            [
                "patterns",
                "--from",
                "sql",
                "select R.A from R where not exists (select 1 from S where S.A = R.A)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "antijoin" in out and "fingerprint:" in out

    def test_bad_db_spec(self, capsys):
        code = main(["eval", "--db", "nocolon", "{Q(A) | ∃r ∈ R[Q.A = r.A]}"])
        assert code == 2
