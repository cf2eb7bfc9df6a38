"""The README's library example and CLI lines run as written against the
installed package, and its ``verify`` suite table lists ``verify.SUITES``."""

import json
import re
import shlex
from itertools import takewhile
from pathlib import Path

from ringlab.cli import main
from ringlab.verify import SUITES

README = Path(__file__).resolve().parent.parent / "README.md"

# the files that the CLI block's --input lines read, written where they run
INPUT_FILES = {
    "my.edges": "n 3\n1 2\n2 3\n",
    "ring.json": json.dumps({"vars": ["x", "y", "z"], "gens": ["x*y", "y*z"], "field": "q"}),
}


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("ringlab ")]
    assert any("--name ex45" in line for line in lines), "README has no CLI example"
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if "--input" in argv:
            assert argv[argv.index("--input") + 1] in INPUT_FILES, line
        assert main(argv) == 0, line
        capsys.readouterr()


def test_readme_suite_table_lists_verify_suites():
    # one row per suite, in the order `verify all` runs them, with its first n
    def cells(line):
        return [cell.strip() for cell in line.strip("|").split("|")]

    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| suite |"))
    first_n = cells(lines[start]).index("first n")
    rows = [cells(line) for line in takewhile(lambda line: line.startswith("|"), lines[start + 2 :])]
    want = [(f"`{name}`", "–" if first is None else str(first)) for name, (first, _) in SUITES.items()]
    assert [(row[0], row[first_n]) for row in rows] == want
