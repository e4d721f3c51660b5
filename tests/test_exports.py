"""The package re-exports each module's public names, which each module states once."""

import ast
from pathlib import Path

import gsptk
from gsptk import ImpulseKind, dspcompat, errors, filters, graphs, impulses, sampling, spectral


def test_each_public_name_is_stated_once_and_exported():
    for module in (graphs, spectral, impulses, filters, sampling, dspcompat):
        for name in module.__all__:
            assert getattr(gsptk, name) is getattr(module, name), f"{module.__name__}.{name}"
    # errors.py has no __all__: every public name in it is an exception class
    for name, obj in vars(errors).items():
        if not name.startswith("_"):
            assert isinstance(obj, type) and issubclass(obj, gsptk.GsptkError), name
            assert getattr(gsptk, name) is obj, name
    for kind in ImpulseKind:
        assert ImpulseKind.of(kind.domain, kind.impulsive) is kind


def test_only_numkit_names_the_real_pair_form():
    # the pair form's layout is stated in numkit alone; every basis goes through numkit._diagonalize
    hidden = {"pair_form", "_pair_form", "_pair_max", "_times_b"}
    modules = sorted(Path(gsptk.__file__).parent.glob("*.py"))
    assert "numkit.py" in [path.name for path in modules]
    for path in modules:
        if path.name == "numkit.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.keyword):
                named.add(node.arg)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(name for alias in node.names for name in (alias.name, alias.asname))
        assert not named & hidden, f"{path.name} names {sorted(named & hidden)}"
