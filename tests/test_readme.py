"""The README's python code blocks run in order, and print what the
quickstart's comments promise; its console commands print what it shows."""

import contextlib
import io
import os
import re

from quiver_dt import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")


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


def console_commands():
    """The quiver-dt commands of the console block, each as its argument
    list (paths taken from the repository root) and the lines it prints."""
    with open(README, encoding="utf-8") as fh:
        block, = re.findall(r"^```console\n(.*?)^```", fh.read(),
                            re.MULTILINE | re.DOTALL)
    out = []
    for line in block.splitlines():
        if line.startswith("$ quiver-dt "):
            argv = [os.path.join(ROOT, arg) if arg.endswith(".json") else arg
                    for arg in line.split()[2:]]
            out.append((argv, []))
        elif line:
            out[-1][1].append(line)
    return out


def test_readme_console_commands_print_what_it_shows():
    commands = console_commands()
    assert [argv[0] for argv, _ in commands] == ["dt", "series"]
    for argv, want in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines() == want, argv
