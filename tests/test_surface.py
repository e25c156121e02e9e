"""Names that code outside the package reads from it: README's library sketch
and the benchmark tracer's wraps. A public name removed or renamed under either
fails here, not only in a long traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402  (perfbench's own module, found through the path above)

# what `Tracer.install` reads besides WRAPS: run_round and Protocol, by their session names
TRACED = [(module, attr) for module, attr, _ in tracer.WRAPS] + [
    ("hybridkd.session", "run_round"), ("hybridkd.session", "Protocol")]


@pytest.mark.parametrize("module, attr", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def _readme_sketch() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_sketch_runs():
    names: dict = {}
    exec(compile(_readme_sketch(), "README.md", "exec"), names)
    assert round(names["crossing"], 2) == 7.64  # as its comment says
    assert names["stats"].rounds_executed == 100_000
