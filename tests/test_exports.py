"""The package re-exports each module's public names, which each module states once."""

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
