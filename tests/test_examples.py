"""Every example script imports cleanly.

Each example guards its run behind ``__main__``, so importing one only
resolves its names: an example that still imports a removed public
name (say, a deleted module-level helper) fails here, not in front of
a reader.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
