"""The public surface: every exported name resolves, once, and the
README's library example and CLI tour run as written."""

import re
import shlex
from pathlib import Path

import vira
from vira.cli import main

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


def _cli_tour():
    """(argv, expected stdout lines or None) for each command of the tour."""
    section = README.read_text(encoding="utf-8").split("## CLI tour", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    tour = []
    for line in block.splitlines():
        if line.startswith("vira "):
            tour.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("# ") and tour:
            tour[-1][1].append(line[2:])
    return tour


def test_readme_cli_tour_runs(capsys):
    tour = _cli_tour()
    assert len(tour) == 15
    for argv, expected in tour:
        if argv == ["verify", "all"]:  # the acceptance tests run the grids
            continue
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if expected:
            assert out == "\n".join(expected) + "\n", argv
