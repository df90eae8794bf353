"""Import boundaries: each CLI verb loads only the modules it runs, and the
package resolves its public names on access, from their home modules."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import GenericAlias

import pytest

import quatforms

# Modules that the root-system verbs (roots, decompose, table) never need.
ENGINE = ("subsys", "involution", "complexform", "classify", "cases")


def _loaded_by(code: str) -> list[str]:
    """Package modules in a fresh interpreter's sys.modules after ``code``.

    The list is printed as the last line of the child's stdout.
    """
    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('quatforms'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_by_verb(argv: list[str]) -> list[str]:
    return _loaded_by(
        f"from quatforms import cli\nif cli.main({argv!r}) != 0: sys.exit(3)"
    )


def test_import_package_loads_no_module():
    assert _loaded_by("import quatforms") == ["quatforms"]


@pytest.mark.parametrize("argv", [["roots", "E8"], ["decompose", "E8"], ["table"]])
def test_root_system_verbs_load_only_rootsys(argv):
    loaded = _loaded_by_verb(argv)
    assert "quatforms.rootsys" in loaded
    assert [m for m in loaded if m.split(".")[-1] in ENGINE] == []


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["analyze", "E8", "--sym", "0,0,0,0,0,0,0,1"], "quatforms.complexform"),
        (["cases"], "quatforms.cases"),
    ],
)
def test_analyze_and_cases_do_not_load_classify(argv, needs):
    loaded = _loaded_by_verb(argv)
    assert needs in loaded
    assert "quatforms.classify" not in loaded


@pytest.mark.parametrize("name", ["Subsystem", "ToralElement", "analyze"])
def test_pipeline_name_loads_the_whole_pipeline(name):
    loaded = _loaded_by(f"import quatforms\nquatforms.{name}")
    assert loaded == [
        "quatforms",
        "quatforms.complexform",
        "quatforms.involution",
        "quatforms.rootsys",
        "quatforms.subsys",
    ]


def test_public_names_are_their_home_module_objects():
    assert quatforms.__all__ == sorted(set(quatforms.__all__))
    for name in quatforms.__all__:
        home = import_module(f"quatforms.{quatforms._HOME[name]}")
        obj = getattr(quatforms, name)
        assert obj is getattr(home, name), name
        if callable(obj) and not isinstance(obj, GenericAlias):  # Root is an alias
            assert obj.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from quatforms import *", ns)
    assert {name: ns[name] for name in quatforms.__all__} == {
        name: getattr(quatforms, name) for name in quatforms.__all__
    }
    assert set(dir(quatforms)) >= set(quatforms.__all__)


def test_public_name_reads_the_current_home_binding(monkeypatch):
    """Nothing is cached on the package, so a rebinding of the home module's
    attribute (and its undoing) shows through at once."""
    original = quatforms.analyze
    sentinel = object()
    monkeypatch.setattr(import_module("quatforms.complexform"), "analyze", sentinel)
    assert quatforms.analyze is sentinel
    monkeypatch.undo()
    assert quatforms.analyze is original


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quatforms.no_such_name
    with pytest.raises(ImportError):
        exec("from quatforms import no_such_name", {})
