"""The mutant catalogue cannot rot silently: each fragment occurs once in
``src`` and each killer names a test that exists."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
catalogue = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(catalogue)


@pytest.mark.parametrize("mutant", catalogue.MUTANTS, ids=lambda m: m.name)
def test_fragment_occurs_once_and_killers_exist(mutant):
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sum(p.read_text().count(mutant.fragment) for p in sources) == 1
    assert mutant.fragment in (ROOT / mutant.file).read_text()
    assert mutant.replacement != mutant.fragment
    assert mutant.killers
    for killer in mutant.killers:
        path, *classes, name = killer.split("::")
        text = (ROOT / path).read_text()
        assert all(f"class {c}:" in text for c in classes), killer
        assert f"def {name}(" in text, killer
