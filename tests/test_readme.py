"""The README's Python examples run as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    (scenario,) = re.findall(r"```json\n(.*?)```", text, re.S)
    assert blocks
    (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # A "# 0.686..." comment after a print names the start of its output line.
    expected = re.findall(r"print\(.*\)\s+# ([0-9.]*[0-9])", text)
    assert expected
    for value in expected:
        assert any(line.startswith(value) for line in printed), value
