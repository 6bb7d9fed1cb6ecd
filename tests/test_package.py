"""The package's top level: the library API the README documents, and no more."""

import importlib.util
from pathlib import Path

import balancegate

# the README's library use, plus the two oracles the benchmark's tests import
PUBLIC = [
    "__version__",
    "RegisterLayout",
    "parse_function",
    "analyze",
    "count_ones_truthtable",
    "minterm_expansion",
]


def test_all_holds_the_documented_names():
    assert balancegate.__all__ == PUBLIC


def test_each_name_resolves_to_its_defining_module():
    assert isinstance(balancegate.__version__, str)
    for name in PUBLIC[1:]:
        obj = getattr(balancegate, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj



def test_every_traced_function_resolves():
    # the benchmark's traced run wraps these functions by name, so a rename
    # breaks it; its table is read from the file, which imports only the
    # standard library
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) >= 14
    for module, name in tracing.TARGETS:
        obj = getattr(importlib.import_module(f"balancegate.{module}"), name)
        assert callable(obj), (module, name)
