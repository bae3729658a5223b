"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets import graph_from_signature_table
from repro.rdf.namespaces import EX
from repro.rdf.ntriples import dump_ntriples


@pytest.fixture
def persons_file(tmp_path, toy_persons_table):
    graph = graph_from_signature_table(toy_persons_table, EX.Person)
    path = tmp_path / "persons.nt"
    dump_ntriples(graph, path)
    return str(path)


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_build_parser_has_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        assert "evaluate" in text and "refine" in text and "experiment" in text


class TestEvaluate:
    def test_reports_cov_and_sim(self, persons_file, capsys):
        assert main(["evaluate", persons_file]) == 0
        out = capsys.readouterr().out
        assert "Cov = " in out and "Sim = " in out

    def test_sort_filter(self, persons_file, capsys):
        assert main(["evaluate", persons_file, "--sort", str(EX.Person)]) == 0
        out = capsys.readouterr().out
        assert "115 subjects" in out

    def test_custom_rule(self, persons_file, capsys):
        assert main(["evaluate", persons_file, "--rule", "c = c -> val(c) = 1"]) == 0
        assert "sigma[" in capsys.readouterr().out

    def test_figure_flag(self, persons_file, capsys):
        assert main(["evaluate", persons_file, "--figure"]) == 0
        assert "signatures" in capsys.readouterr().out


class TestRefine:
    def test_highest_theta_mode(self, persons_file, capsys):
        assert main(["refine", persons_file, "-k", "2", "--step", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "highest theta for k = 2" in out
        assert "sort 1" in out

    def test_lowest_k_mode(self, persons_file, capsys):
        assert main(["refine", persons_file, "--theta", "0.9"]) == 0
        assert "lowest k for theta = 0.9" in capsys.readouterr().out

    def test_custom_rule_refinement(self, persons_file, capsys):
        rule = "not (c1 = c2) and prop(c1) = prop(c2) and val(c1) = 1 -> val(c2) = 1"
        assert main(["refine", persons_file, "--rule", rule, "-k", "2", "--step", "0.05"]) == 0

    def test_requires_exactly_one_mode(self, persons_file):
        with pytest.raises(SystemExit):
            main(["refine", persons_file])
        with pytest.raises(SystemExit):
            main(["refine", persons_file, "-k", "2", "--theta", "0.9"])


class TestThetaParsing:
    def test_fraction_string_theta(self, persons_file, capsys):
        assert main(["refine", persons_file, "--theta", "3/4"]) == 0
        assert "lowest k for theta = 0.75" in capsys.readouterr().out

    def test_theta_above_one_rejected_with_message(self, persons_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["refine", persons_file, "--theta", "1.5"])
        assert "theta must lie in [0, 1]" in str(excinfo.value)

    def test_malformed_theta_rejected_with_message(self, persons_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["refine", persons_file, "--theta", "three quarters"])
        assert "fraction string" in str(excinfo.value)


class TestJsonOutput:
    def test_evaluate_json(self, persons_file, capsys):
        import json

        assert main(["evaluate", persons_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"]["n_subjects"] == 115
        assert {result["rule"] for result in payload["results"]} == {"Cov", "Sim"}

    def test_refine_json(self, persons_file, capsys):
        import json

        assert main(["refine", persons_file, "-k", "2", "--step", "0.1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "highest_theta"
        assert payload["k"] <= 2
        assert len(payload["sorts"]) == payload["k"]

    def test_experiment_json(self, capsys):
        import json

        assert main(["experiment", "table1", "--param", "n_subjects=2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table1"
        assert payload["rows"]


class TestSolverSelection:
    def test_refine_with_branch_and_bound(self, persons_file, capsys):
        assert main(
            ["refine", persons_file, "-k", "2", "--step", "0.25",
             "--solver", "branch-and-bound"]
        ) == 0
        assert "highest theta for k = 2" in capsys.readouterr().out

    def test_unknown_solver_rejected_by_argparse(self, persons_file):
        with pytest.raises(SystemExit):
            main(["refine", persons_file, "-k", "2", "--solver", "cplex"])


class TestExperiment:
    def test_list_experiments(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure8" in out

    def test_run_table1_with_params(self, capsys):
        assert main(["experiment", "table1", "--param", "n_subjects=2000"]) == 0
        assert "deathPlace" in capsys.readouterr().out

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table1", "--param", "oops"])


class TestBatch:
    def _write_jsonl(self, tmp_path, requests):
        import json

        path = tmp_path / "jobs.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in requests))
        return str(path)

    def test_batch_inline_to_stdout(self, tmp_path, capsys):
        import json

        path = self._write_jsonl(
            tmp_path,
            [
                {"op": "evaluate", "dataset": "dbpedia-persons", "request": {"rule": "Cov"}},
                {"op": "refine", "dataset": "dbpedia-persons",
                 "request": {"rule": "Cov", "k": 2, "step": "1/4"}},
            ],
        )
        assert main(["batch", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        envelopes = [json.loads(line) for line in lines]
        assert len(envelopes) == 2 and all(e["ok"] for e in envelopes)
        assert envelopes[0]["result"]["rule"] == "Cov"

    def test_batch_output_file_and_stats(self, tmp_path, capsys):
        import json

        path = self._write_jsonl(
            tmp_path,
            [{"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Sim"}}],
        )
        out = tmp_path / "results.jsonl"
        assert main(["batch", path, "--output", str(out), "--stats"]) == 0
        captured = capsys.readouterr()
        envelope = json.loads(out.read_text().strip())
        assert envelope["ok"] and envelope["result"]["rule"] == "Sim"
        stats = json.loads(captured.err.strip())
        assert stats["mode"] == "inline" and stats["sessions"]

    def test_batch_bad_line_fails_with_message(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "nope"}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(path)])
        assert "line 1" in str(excinfo.value)

    def test_parser_knows_batch_and_serve(self):
        text = build_parser().format_help()
        assert "batch" in text and "serve" in text


class TestServeCommand:
    """``repro serve`` argument handling, with the server itself stubbed out."""

    @pytest.fixture
    def served(self, monkeypatch):
        calls = []

        def fake_serve(**kwargs):
            calls.append(kwargs)
            return 0

        monkeypatch.setattr("repro.service.serve", fake_serve)
        return calls

    @pytest.mark.parametrize(
        "argv,workers,max_workers",
        [
            ([], 1, None),  # inline
            (["--workers", "3"], 3, None),  # a fixed pool of three
            (["--workers", "1", "--max-workers", "4"], 1, 4),  # autoscaling
        ],
    )
    def test_sizing_flags_reach_serve(self, served, argv, workers, max_workers):
        assert main(["serve", "--port", "0", *argv]) == 0
        [call] = served
        assert (call["workers"], call["max_workers"]) == (workers, max_workers)
        assert call["port"] == 0 and call["pending_limit"] == 64

    def test_pending_limit_reaches_serve(self, served):
        assert main(["serve", "--pending-limit", "9"]) == 0
        assert served[0]["pending_limit"] == 9

    @pytest.mark.parametrize("flag", [["--async"], ["--min-workers", "2"]])
    def test_removed_flags_are_rejected(self, served, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *flag])
        assert excinfo.value.code == 2  # an argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err
        assert served == []

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["--workers", "0"], "--workers must be >= 1"),
            (["--workers", "3", "--max-workers", "2"], "--max-workers (2) must be >= --workers (3)"),
            (["--pending-limit", "0"], "--pending-limit must be >= 1"),
        ],
    )
    def test_bad_sizing_exits_with_a_message(self, served, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert fragment in str(excinfo.value)
        assert served == []


class TestWatchCommand:
    def test_replay_prints_one_line_per_observation(self, persons_file, tmp_path, capsys):
        replay = tmp_path / "deltas.jsonl"
        replay.write_text(
            '{"add": [["http://example.org/sX", "http://example.org/p1", "\\"1\\""]]}\n'
        )
        assert main(["watch", persons_file, "--replay", str(replay)]) == 0
        captured = capsys.readouterr()
        baseline, live = captured.out.splitlines()
        assert baseline.startswith("gen    0 *Cov: sigma=")
        assert live.startswith("gen    1 *Cov: sigma=")
        assert "2 observations, 2 events, 0 drift alerts" in captured.err

    def test_removed_shards_flag_is_rejected(self, persons_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", persons_file, "--shards", "4", "--replay", "/dev/null"])
        assert excinfo.value.code == 2  # an argparse usage error
        assert "unrecognized arguments: --shards 4" in capsys.readouterr().err


class TestSnapshotCommand:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_build_and_inspect_round_trip(self, persons_file, tmp_path, capsys):
        snap = str(tmp_path / "snap")
        assert main(["snapshot", "build", snap, "--ntriples", persons_file]) == 0
        out = capsys.readouterr().out
        assert "wrote snapshot" in out and "graph, matrix, table" in out
        assert main(["snapshot", "inspect", snap]) == 0
        assert "verified snapshot" in capsys.readouterr().out

    def test_inspect_json_is_machine_readable(self, persons_file, tmp_path, capsys):
        import json

        snap = str(tmp_path / "snap")
        main(["snapshot", "build", snap, "--ntriples", persons_file, "--name", "toy"])
        capsys.readouterr()
        assert main(["snapshot", "inspect", snap, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "toy" and payload["format_version"] == 1

    def test_build_refuses_to_clobber_without_force(self, persons_file, tmp_path):
        snap = str(tmp_path / "snap")
        main(["snapshot", "build", snap, "--ntriples", persons_file])
        with pytest.raises(SystemExit, match="already exists"):
            main(["snapshot", "build", snap, "--ntriples", persons_file])
        assert main(["snapshot", "build", snap, "--ntriples", persons_file, "--force"]) == 0

    def test_inspect_missing_snapshot_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="snapshot inspect"):
            main(["snapshot", "inspect", str(tmp_path / "nowhere")])

    def test_no_subcommand_prints_help_and_fails(self, capsys):
        assert main(["snapshot"]) == 1
        assert "usage" in capsys.readouterr().err.lower()
