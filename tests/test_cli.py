"""The `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "report" in out
        assert "| f1 | s1" in out  # s1 runs too, so the usage names it

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_costs(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "syscall_ns = 500" in out
        assert "derived.ddio_capacity_bytes" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_single_experiment(self, capsys):
        assert main(["f1"]) == 0
        out = capsys.readouterr().out
        assert "Figure-1 arrows verified" in out

    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "kopi=4/4" in out

    def test_quick_report(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E1 (reduced)" in out
        assert "E8 (reduced)" in out
