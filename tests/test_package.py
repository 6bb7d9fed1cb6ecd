"""The package's top level: the library API the README documents, and no more."""

import importlib

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

