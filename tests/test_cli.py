"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "table4", "table5",
                        "fig10", "fig11", "demo", "list"):
            args = parser.parse_args(
                [command] if command != "table2" else [command, "--scale", "1"]
            )
            assert args.command == command

    def test_table2_flags(self):
        args = build_parser().parse_args(["table2", "--scale", "3", "--ablation"])
        assert args.scale == 3
        assert args.ablation

    def test_demo_tool_flag(self):
        args = build_parser().parse_args(["demo", "--tool", "ASan"])
        assert args.tool == "ASan"


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig11" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Constant Propagation" in out

    def test_demo_prints_report(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "heap-buffer-overflow" in out
        assert "SUMMARY" in out

    def test_demo_other_tool(self, capsys):
        assert main(["demo", "--tool", "ASan"]) == 0
        assert "ASan" in capsys.readouterr().out


class TestServeWithoutPydantic:
    def test_exits_with_install_hint(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys; sys.modules['pydantic'] = None; "
            "from repro.cli import main; sys.exit(main(['serve']))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stderr.strip().splitlines() == [
            "repro serve needs pydantic: pip install 'repro[server]'"
        ]
