"""The README's library example runs against the current API."""

import ast
import re
from pathlib import Path

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
