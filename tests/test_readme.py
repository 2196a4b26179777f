"""The README's library tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python code block"
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
