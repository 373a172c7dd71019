"""CLI smoke + behaviour tests (fast: tiny scale, coverage of every command)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_requires_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank"])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.dataset == "dblp"
        assert args.scale == 0.02


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--scale", "0.005", "--dataset", "github"]) == 0
        out = capsys.readouterr().out
        assert "GitHub" in out
        assert "mean degree" in out

    @pytest.fixture(scope="class")
    def tiny_args(self):
        return ["--dataset", "github", "--scale", "0.008", "--seed", "3", "--k", "5"]

    def test_rank(self, capsys, tiny_args):
        from repro.datasets import github_like

        skills = sorted(
            github_like(scale=0.008, seed=3).network.skill_universe()
        )
        assert main(["rank", *tiny_args, "--query", skills[0], skills[1]]) == 0
        out = capsys.readouterr().out
        assert "  1. " in out

    def test_team(self, capsys, tiny_args):
        from repro.datasets import github_like

        skills = sorted(
            github_like(scale=0.008, seed=3).network.skill_universe()
        )
        assert main(["team", *tiny_args, "--query", skills[0], skills[2]]) == 0
        assert "[seed]" in capsys.readouterr().out

    def test_explain_with_json(self, capsys, tiny_args, tmp_path):
        from repro.datasets import github_like

        net = github_like(scale=0.008, seed=3).network
        skills = sorted(net.skill_universe())
        out_file = tmp_path / "explanation.json"
        code = main(
            [
                "explain",
                *tiny_args,
                "--query",
                skills[0],
                skills[1],
                "--person",
                "0",
                "--json",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "is ranked" in out
        payload = json.loads(out_file.read_text())
        assert payload["person"] == 0
        assert payload["factual_skills"]["type"] == "factual"
        assert payload["counterfactual_skills"]["type"] == "counterfactual"

    def test_explain_resolves_person_by_name(self, capsys, tiny_args):
        from repro.datasets import github_like

        net = github_like(scale=0.008, seed=3).network
        skills = sorted(net.skill_universe())
        name = net.name(0)
        code = main(
            ["explain", *tiny_args, "--query", skills[0], "--person", name]
        )
        assert code == 0

    def test_explain_invalid_person_id(self, tiny_args):
        with pytest.raises(SystemExit):
            main(["explain", *tiny_args, "--query", "x", "--person", "99999"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--query", "x", "--person", "Nobody Here"],
            ["team", "--query", "x", "--seed-member", "Nobody Here"],
        ],
        ids=["explain-person", "team-seed-member"],
    )
    def test_unknown_person_name(self, tiny_args, argv):
        with pytest.raises(SystemExit, match="no person named 'Nobody Here'"):
            main([argv[0], *tiny_args, *argv[1:]])

    def test_workload_with_json(self, capsys, tiny_args, tmp_path):
        out_file = tmp_path / "workload.json"
        code = main(
            [
                "workload",
                *tiny_args,
                "--queries", "2",
                "--workers", "2",
                "--kinds", "query", "cf_query",
                "--json", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests over 2 queries" in out
        assert "req/s" in out
        payload = json.loads(out_file.read_text())
        assert payload["n_errors"] == 0
        assert payload["requests_per_second"] > 0
        assert {row["kind"] for row in payload["rows"]} == {"query", "cf_query"}
