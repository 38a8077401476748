"""The README's library example runs against the current API, and its
command-line examples parse."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from scorerisk.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_runs_and_shows_its_results():
    block = re.search(r"## Library usage\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    code = block.group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # a comment line holding a literal shows the value of the line above it
    lines = code.splitlines()
    shown = [
        (expr, ast.literal_eval(comment[2:]))
        for expr, comment in zip(lines, lines[1:])
        if re.fullmatch(r"# \(.*\)", comment)
    ]
    assert [value for _, value in shown] == [(-2.0, 1.5, (2.0, 3.0))]
    for expr, value in shown:
        assert eval(expr, namespace) == value


def test_command_line_examples_parse():
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    parser = _build_parser()
    lines = block.group(1).splitlines()
    assert lines and all(line.startswith("scorerisk ") for line in lines)
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:  # argparse's usage error
            pytest.fail(f"the README's `{line}` does not parse")
