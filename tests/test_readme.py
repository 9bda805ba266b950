"""The README's python code blocks run in order, and print what the
quickstart's comments promise."""

import contextlib
import io
import os
import re

from quiver_dt import invariants as inv

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def setup_function(_fn):
    inv.clear_cache()


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(),
                          re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, README, "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0] == "q^-1*(q^2 + 1)"
    assert lines[1] == "q^-2*(q^4 + 1/2*q^2 + 1)"
