"""Unit tests for the command-line interface."""

import math
import re

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.blocks == 200
        assert args.selector == "quadtree"
        assert args.store == "exact"

    def test_demo_rejects_unknown_selector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--selector", "psychic"])


class TestExecution:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "selectors" in out

    def test_demo_small_run(self, capsys):
        assert main(["demo", "--blocks", "60", "--trips", "200",
                     "--fraction", "0.4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "deployed:" in out
        assert "ingested:" in out
        assert "query @18:00" in out or "missed" in out

    def test_stream_demo_prints_write_amplification(self, capsys):
        """The layout line CI's *Streaming demo* step parses."""
        assert main(["demo", "--blocks", "60", "--trips", "200",
                     "--fraction", "0.4", "--seed", "1", "--stream",
                     "--compact-every", "256"]) == 0
        layout = re.search(
            r"stream layout: .* (\d+) compactions, .*"
            r"rewritten (\d+) / observed (\d+) = ([\d.]+),",
            capsys.readouterr().out,
        )
        compactions, rewritten, observed = map(int, layout.groups()[:3])
        assert compactions >= 2
        assert float(layout.group(4)) == round(rewritten / observed, 2)
        assert rewritten / observed <= 2 + math.log2(compactions)

    def test_demo_with_learned_store(self, capsys):
        assert main(["demo", "--blocks", "60", "--trips", "200",
                     "--fraction", "0.4", "--store", "linear",
                     "--seed", "1"]) == 0
        assert "(linear)" in capsys.readouterr().out
