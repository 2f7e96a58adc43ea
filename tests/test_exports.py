"""Every public name is reached from outside its own unit tests, and every
field of a model spec is read."""

import ast
import dataclasses
import re
from pathlib import Path

from sdetci.models import DiniModelSpec, SingularModelSpec

ROOT = Path(__file__).resolve().parents[1]

# exported names that only the unit tests call, each kept for one reason
KEPT = {
    "estimate_P0": "pins the semigroup sampler to the path streams and a closed form",
}


def _names(source):
    """Identifiers a module refers to, including names looked up by string."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_export_is_used_or_kept():
    package = ROOT / "src" / "sdetci"
    exports = {alias.asname or alias.name
               for node in ast.parse((package / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    sources += [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests/test_acceptance.py"]
    used = set().union(*(_names(f.read_text()) for f in sources))
    quick_start = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    used |= _names(re.search(r"```python\n(.*?)```", quick_start, re.S).group(1))
    assert sorted(exports - used - set(KEPT)) == []
    assert sorted(set(KEPT) & used) == []  # a kept name now in use leaves the list
    assert set(KEPT) <= exports


def test_every_model_spec_field_is_read():
    """A field of a model spec that no code reads is a knob that does nothing."""
    read = {node.attr for f in (ROOT / "src" / "sdetci").glob("*.py")
            for node in ast.walk(ast.parse(f.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for spec in (DiniModelSpec, SingularModelSpec):
        fields = {f.name for f in dataclasses.fields(spec)}
        assert sorted(fields - read) == [], spec.__name__
