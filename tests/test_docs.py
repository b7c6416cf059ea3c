import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs(tmp_path, monkeypatch):
    """The README's Python API example runs as written in an empty directory."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert "event" in namespace, "the monitor observed no trace"
