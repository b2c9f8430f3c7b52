"""The README's Python examples run as written, and its suite table agrees
with the code."""

import inspect
import re
from pathlib import Path

from affine_schur import verify

README = Path(__file__).resolve().parent.parent / "README.md"


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
