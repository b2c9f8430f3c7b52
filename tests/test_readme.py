"""The README's Python examples run as written, its shell commands print the
values it documents, and its suite table agrees with the code."""

import contextlib
import inspect
import io
import itertools
import re
import shlex
import sys
from pathlib import Path

import pytest

from affine_schur import verify
from affine_schur.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _shell_examples():
    """{file: text} the sh blocks write with echo, and [command, pipeline
    stages, value] for each command they document with `# ->`."""
    text = "".join(re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S))
    files, examples = {}, []
    for line in re.sub(r"\\\n\s*", "", text).splitlines():
        command, _, value = (part.strip() for part in line.partition("# -> "))
        words = shlex.split(command, comments=True)
        if words[:1] == ["echo"]:
            files[words[3]] = words[1]
        elif words:
            stages = [list(g) for pipe, g in itertools.groupby(words, "|".__eq__) if not pipe]
            examples.append([command, stages, value])
        elif value:  # the value of the command above
            examples[-1][2] = value
    return files, [example for example in examples if example[2]]


_FILES, _EXAMPLES = _shell_examples()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "the README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_suite_parameters_match_the_readme_table_and_verify_docstring():
    # both lists are written by hand; each must name exactly the parameters
    # every suite function takes, in its order
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(), re.M)
    table = {name: re.findall(r"--([a-z]+)", flags) for name, flags in rows}
    listed = re.findall(r"^  ([a-z-]+) {2,}(.*)$", verify.__doc__, re.M)
    docstring = {name: params.split(", ") for name, params in listed}
    takes = {name: list(inspect.signature(suite).parameters)
             for name, suite in verify.SUITES.items()}
    assert table == takes
    assert docstring == takes


def test_readme_documents_shell_values():
    assert len(_EXAMPLES) >= 4


@pytest.mark.parametrize("command,stages,value", _EXAMPLES, ids=[e[0] for e in _EXAMPLES])
def test_readme_shell_command_prints_its_value(monkeypatch, tmp_path, command, stages, value):
    # each stage runs in-process on the previous stage's output as stdin
    monkeypatch.chdir(tmp_path)
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text + "\n")
    out = ""
    for program, *argv in stages:
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert program == "affine-schur" and main(argv) == 0
        out = stdout.getvalue()
    assert out.strip() == value
