"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_screen_defaults(self):
        args = build_parser().parse_args(["screen"])
        assert args.cohort == 16
        assert args.assay == "dilution"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["screen", "--policy", "magic"])

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("bha", "bha"),
            ("lookahead-2", "lookahead-2"),
            ("infogain", "infogain"),
            ("dorfman-4", "dorfman-4"),
            ("individual", "individual"),
            ("array-3x4", "array-3x4"),
            ("hybrid", "hybrid-auto"),
            ("hybrid-6", "hybrid-6"),
        ],
    )
    def test_policy_names(self, name, expected):
        args = build_parser().parse_args(["screen", "--policy", name])
        assert args.policy.name == expected

    def test_array_policy_dimensions(self):
        args = build_parser().parse_args(["screen", "--policy", "array-2x5"])
        assert args.policy.rows == 2
        assert args.policy.cols == 5

    def test_hybrid_pool_size(self):
        args = build_parser().parse_args(["screen", "--policy", "hybrid-6"])
        assert args.policy.pool_size == 6


OUT_OF_RANGE = [
    ["screen", "--prevalence", "1.5"],
    ["screen", "--prevalence", "-0.1"],
    ["screen", "--max-stages", "0"],
    ["screen", "--sensitivity", "2"],
    ["screen", "--dilution", "-1"],
    ["calculator", "--prevalences", "1.5"],
    ["calculator", "--replications", "0"],
    ["metrics", "--cohort", "0"],
    ["metrics", "--prevalence", "2"],
    ["surveillance", "--days", "0"],
    ["surveillance", "--cohort", "0"],
    ["surveillance", "--i0", "2"],
    ["surveillance", "--beta", "-1"],
    ["surveillance", "--gamma", "-1"],
    ["screen", "--profile", "unused", "--profile-hz", "0"],
]


class TestArgumentContract:
    @pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
    def test_out_of_range_is_a_usage_error(self, argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_prevalence_bounds_still_accepted(self, value):
        args = build_parser().parse_args(["screen", "--prevalence", value])
        assert args.prevalence == float(value)


class TestCommands:
    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "community" in out and "outbreak" in out and "hospital" in out

    def test_screen_runs(self, capsys):
        rc = main(
            ["screen", "--cohort", "8", "--prevalence", "0.05", "--seed", "1",
             "--assay", "perfect", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tests/individual" in out
        assert "accuracy" in out

    def test_screen_with_scenario_and_compaction(self, capsys):
        rc = main(
            ["screen", "--scenario", "outbreak", "--cohort", "8", "--seed", "2",
             "--compact", "--workers", "2"]
        )
        assert rc == 0
        assert "Screen (bha)" in capsys.readouterr().out

    def test_screen_cohort_bound(self, capsys):
        assert main(["screen", "--cohort", "40"]) == 2
        assert "must be in [1, 24]" in capsys.readouterr().err

    def test_calculator_runs(self, capsys):
        rc = main(
            ["calculator", "--prevalences", "0.01", "0.2", "--replications", "2",
             "--cohort", "8", "--assay", "binary", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "1.0%" in out

    def test_surveillance_runs(self, capsys):
        rc = main(["surveillance", "--days", "3", "--cohort", "6", "--assay",
                   "perfect", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "totals:" in out

    def test_surveillance_backend_flag(self, capsys):
        rc = main(["surveillance", "--days", "2", "--cohort", "6", "--assay",
                   "perfect", "--seed", "4", "--backend", "sparse"])
        assert rc == 0
        assert "totals:" in capsys.readouterr().out

    def test_surveil_runs(self, capsys):
        rc = main(["surveil", "--sites", "3", "--cohort", "6", "--rounds", "2",
                   "--budget", "2", "--seed", "1", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Surveil campaign (thompson allocator)" in out
        assert "site-00" in out
        assert "learned hyperprior mean" in out

    def test_surveil_json_deterministic(self, capsys):
        argv = ["surveil", "--json", "--sites", "3", "--cohort", "6",
                "--rounds", "2", "--budget", "2", "--seed", "1", "--workers", "2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_surveil_rejects_bad_allocator(self, capsys):
        assert main(["surveil", "--allocator", "ucb", "--rounds", "1"]) == 2
        assert "unknown allocator" in capsys.readouterr().err

    def test_screen_deterministic(self, capsys):
        argv = ["screen", "--cohort", "8", "--seed", "7", "--assay", "binary",
                "--workers", "2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestObservabilityCommands:
    def test_metrics_json_snapshot(self, capsys):
        import json

        rc = main(["metrics", "--cohort", "8", "--seed", "1", "--workers", "2"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert "repro_engine_jobs_total" in snap
        assert "repro_engine_task_cpu_seconds_total" in snap

    def test_metrics_prometheus_validates(self, capsys):
        from repro.obs.metrics import validate_prometheus_text

        rc = main(["metrics", "--prom", "--cohort", "8", "--seed", "1",
                   "--workers", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert validate_prometheus_text(text) > 0
        assert "# TYPE repro_engine_jobs_total counter" in text

    def test_screen_profile_writes_collapsed_and_flamegraph(
        self, capsys, tmp_path
    ):
        prefix = tmp_path / "prof"
        # A screen of ~50 ms: long enough for a 400 Hz sampler to take
        # a dozen samples, where a cohort-8 screen ends inside a tick.
        rc = main(["screen", "--cohort", "16", "--prevalence", "0.05", "--seed", "1",
                   "--workers", "2", "--profile", str(prefix), "--profile-hz", "400"])
        assert rc == 0
        collapsed = (tmp_path / "prof.collapsed").read_text()
        assert collapsed.strip(), "collapsed file must not be empty"
        for line in collapsed.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) > 0
        html = (tmp_path / "prof.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "repro screen" in html


#: Flags the server refuses in a body; the CLI ran them while it built
#: its requests without ``from_payload``.
SERVER_REFUSES = [
    (["screen", "--json", "--max-stages", "600"], "max_stages must be in [1, 500]"),
    (["screen", "--json", "--dilution", "5"], "dilution must be in [0, 1]"),
    (["screen", "--json", "--sensitivity", "0.3"], "sensitivity must be in (0.5, 1]"),
    (["screen", "--json", "--prevalence", "1"], "prevalence must be in (0, 1)"),
    (["calculator", "--json", "--replications", "300"], "replications must be in [1, 200]"),
]


class TestOneRequestPath:
    @pytest.mark.parametrize("argv,message", SERVER_REFUSES,
                             ids=[" ".join(argv) for argv, _ in SERVER_REFUSES])
    def test_cli_refuses_what_the_server_refuses(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        pytest.param(["screen", "--json", "--cohort", "8", "--seed", "2", "--policy", "hybrid",
                      "--compact", "--assay", "binary", "--workers", "2"], id="screen"),
        pytest.param(["screen", "--json", "--cohort", "8", "--scenario", "outbreak",
                      "--workers", "2"], id="screen-scenario"),
        pytest.param(["screen", "--json", "--cohort", "30", "--backend", "particle",
                      "--max-stages", "5"], id="screen-particle"),
        pytest.param(["calculator", "--json", "--cohort", "6", "--prevalences", "0.05", "0.2",
                      "--replications", "2", "--backend", "sparse"], id="calculator"),
        pytest.param(["surveil", "--json", "--sites", "3", "--cohort", "6", "--rounds", "2",
                      "--budget", "2", "--allocator", "uniform", "--workers", "2"], id="surveil"),
    ])
    def test_json_request_round_trips(self, argv, capsys):
        import json

        from repro.serve.protocol import CalculatorRequest, ScreenRequest, SurveilRequest

        kind = {"screen": ScreenRequest, "calculator": CalculatorRequest,
                "surveil": SurveilRequest}[argv[0]]
        assert main(argv) == 0
        echoed = json.loads(capsys.readouterr().out)["request"]
        assert kind.from_payload(echoed).canonical() == echoed

    def test_computing_verbs_build_their_requests_with_from_payload(self):
        """The guard of the one path from flags to payload."""
        import ast
        import pathlib

        import repro.cli

        tree = ast.parse(pathlib.Path(repro.cli.__file__).read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert imported.isdisjoint(
            {"SBGTSession", "SBGTConfig", "PriorSpec", "get_scenario", "pooling_calculator"}
        )
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for verb, request in (("screen", "ScreenRequest"), ("calculator", "CalculatorRequest"),
                              ("metrics", "ScreenRequest"), ("surveil", "SurveilRequest")):
            calls = {
                (node.func.value.id, node.func.attr)
                for node in ast.walk(functions[f"_cmd_{verb}"])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            }
            assert (request, "from_payload") in calls, verb
