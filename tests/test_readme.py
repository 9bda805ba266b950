"""The README's python code blocks run in order, and print what the
quickstart's comments promise; its console commands print what it shows;
its Layout block names only code that the package defines."""

import ast
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


# The code names of prose: _name, module._name and Class.attribute.
CODE_NAME = re.compile(
    r"(?<![\w.])(?:[a-z]\w*\._\w+|_[a-z]\w*|[A-Z]\w*\.[a-z_]\w*)")


def layout_names():
    """The code names that the Layout block of the README mentions."""
    with open(README, encoding="utf-8") as fh:
        block, = re.findall(r"^## Layout\n\n```text\n(.*?)^```", fh.read(),
                            re.MULTILINE | re.DOTALL)
    return set(CODE_NAME.findall(block))


def package_names():
    """{module: the names it defines at module level}, and {class: the
    names its body defines}, over the modules of src/quiver_dt."""
    package = os.path.join(ROOT, "src", "quiver_dt")
    modules, classes = {}, {}

    def defined(body):
        names = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        return names
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            modules[name[:-3]] = defined(tree.body)
            classes.update((node.name, defined(node.body))
                           for node in tree.body
                           if isinstance(node, ast.ClassDef))
    return modules, classes


def test_readme_layout_names_only_code_that_exists():
    """Each _name of the Layout block is defined in a module or a class of
    the package, each module._name in that module, and each
    Class.attribute in that class."""
    modules, classes = package_names()
    everywhere = set().union(*modules.values(), *classes.values())
    names = layout_names()
    assert names
    missing = []
    for name in sorted(names):
        owner, _, attr = name.rpartition(".")
        scope = (everywhere if not owner else
                 modules.get(owner, classes.get(owner, set())))
        if attr not in scope:
            missing.append(name)
    assert missing == []
