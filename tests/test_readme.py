"""The README's library example and CLI lines run as written against the installed package."""

import json
import re
import shlex
from pathlib import Path

from ringlab.cli import main

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
