"""The README's code stays runnable against the current API."""

import re

from tests.conftest import REPO_ROOT


def _python_api_block() -> str:
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # the block loads configs/beam.yaml
    exec(compile(_python_api_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 9  # one line per print
