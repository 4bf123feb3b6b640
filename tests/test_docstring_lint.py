"""Tests for tools/docstring_lint.py: a module path is scanned as one
file, and a path holding no Python file fails instead of passing with
nothing checked."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "docstring_lint.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("docstring_lint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_module_path_is_scanned_as_a_file(tmp_path, capsys):
    module = tmp_path / "mod.py"
    module.write_text('"""Module."""\n\n\ndef public():\n    pass\n')
    assert _load_tool().main(["--threshold", "90", str(module)]) == 1
    out = capsys.readouterr().out
    assert "50.0% (1/2 documented)" in out
    assert "missing: mod.py:4 public" in out


def test_a_path_without_python_files_fails(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no code here\n")
    assert _load_tool().main([str(tmp_path)]) == 1
    assert "(0/0 documented)  [FAIL]" in capsys.readouterr().out
