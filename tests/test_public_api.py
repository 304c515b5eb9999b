"""The package's public names: exactly what the scripts and the benchmark call.

The benchmark imports ``dimlab`` as ``dl`` and wraps library functions by
module and name when it traces, so a trim of the package or a deleted
function shows here, in the test suite, and not first in a benchmark run.
The benchmark's files are read as source; nothing under it is imported.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dimlab
from dimlab.embedding import EmbeddingResult
from dimlab.harness import verify_nobeling_membership
from dimlab.nerve import SimplicialComplex, export_complex

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(dimlab.__path__))
ERRORS = {"CertificateError", "DimlabError", "GeneralPositionError", "InputError"}
DELETED = [
    "open_image_certificate",
    "_resolve_ball_indices",
    "formally_included",
    "center_distance",
    "active_indices",
    "is_refinement",
    "Center",
]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _script_imports() -> set[str]:
    names = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "dimlab":
                names |= {alias.name for alias in node.names}
    return names


def _benchmark_attributes() -> set[str]:
    names = set()
    for name in ("workloads.py", "run.py"):
        for node in ast.walk(_tree(ROOT / "perfbench" / name)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "dl"):
                names.add(node.attr)
    return names


def _traced() -> list[tuple[str, str, str, str]]:
    for node in _tree(ROOT / "perfbench" / "spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED list")


def test_all_is_what_scripts_and_benchmark_use():
    want = _script_imports() | _benchmark_attributes() | ERRORS | {"__version__"}
    assert sorted(dimlab.__all__) == sorted(want)
    assert len(dimlab.__all__) == len(set(dimlab.__all__)) == 24
    for name in dimlab.__all__:
        assert hasattr(dimlab, name), name


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _traced()],
                         ids=[f"{m}.{a}" for m, a, _, _ in _traced()])
def test_traced_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module("dimlab." + module), attr))


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_gone(name):
    for module in MODULES:
        assert not hasattr(importlib.import_module("dimlab." + module), name), (module, name)
    assert not hasattr(dimlab, name)


def test_deleted_fields_and_parameters_are_gone():
    assert "realization" not in SimplicialComplex.__dataclass_fields__
    assert list(inspect.signature(export_complex).parameters) == ["complex"]
    assert list(inspect.signature(verify_nobeling_membership).parameters) == ["r"]
    assert not hasattr(dimlab.Cover, "is_covering")
    assert not hasattr(EmbeddingResult, "stage_count")
    assert not hasattr(dimlab.SampledSpace, "from_json")
    assert not hasattr(dimlab.SampledSpace, "to_json_dict")
    assert not hasattr(dimlab.nerve, "import_complex")
    assert not hasattr(SimplicialComplex, "has_face")
