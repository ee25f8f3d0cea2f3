"""The public surface: every exported name resolves, once, and the
README's library example runs as written."""

import re
from pathlib import Path

import vira

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_once():
    assert len(vira.__all__) == len(set(vira.__all__))
    missing = [name for name in vira.__all__ if not hasattr(vira, name)]
    assert missing == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["vector"] and vira.is_whittaker_vector(namespace["vector"])
    assert len(namespace["basis"]) == 1
