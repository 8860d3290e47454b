"""The traced benchmark looks up every `perfbench/layers.py` LAYERS name with
getattr: a library function it names must not be renamed or deleted, even
when nothing in the library calls it any more."""

import importlib
import types
from pathlib import Path

import pytest

from qbrolin import cli
from qbrolin.cdyn import preimage_tree
from qbrolin.poly import ComplexPoly

_LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    # read-only: no bytecode cache is written next to the benchmark
    module = types.ModuleType("perfbench_layers")
    exec(compile(_LAYERS_PY.read_text(), str(_LAYERS_PY), "exec"),
         module.__dict__)
    return module


LAYERS = _layers()


@pytest.mark.parametrize("name", sorted(LAYERS.LAYERS))
def test_every_traced_layer_name_resolves(name):
    mod, qual = name.split(".", 1)
    owner = importlib.import_module(f"qbrolin.{mod}")
    if name == "cli.write":
        targets = [getattr(cli, w) for w in LAYERS.WRITERS]
    else:
        obj = owner
        for attr in qual.split("."):
            obj = getattr(obj, attr)
        targets = [obj]
    assert all(callable(t) for t in targets)


def test_tree_counter_reads_a_preimage_tree():
    p = ComplexPoly([-2.0, 0.0, 1.0])
    tree = preimage_tree(p, 0.5, 3)
    assert LAYERS._tree_counts((p, 0.5, 3), {}, tree) == {"leaves": 8,
                                                          "nodes": 8}
