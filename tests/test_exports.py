"""Every exported name resolves, so a deletion cannot leave a stale export,
and README's "Library API" section names every one of them."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fibresum


def test_star_import():
    namespace: dict = {}
    exec("from fibresum import *", namespace)
    assert set(fibresum.__all__) <= set(namespace)


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(fibresum.__path__)])
def test_submodule_all(name):
    module = importlib.import_module(f"fibresum.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_readme_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library API", 1)[1].split("\n## ", 1)[0]
    # A name counts when it opens a code span: `name` or `name(...)`.
    named = set(re.findall(r"`(\w+)[`(]", section))
    assert sorted(set(fibresum.__all__) - named) == []
