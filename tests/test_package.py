"""The package namespace: every exported name resolves, and none repeats."""

import pptalgebra
from pptalgebra import generators, symphonic, tree, triple_core


def test_public_names_resolve_once():
    names = pptalgebra.__all__
    assert len(names) == len(set(names))
    for module in (triple_core, generators, tree, symphonic):
        for name in module.__all__:
            assert getattr(pptalgebra, name) is getattr(module, name)
