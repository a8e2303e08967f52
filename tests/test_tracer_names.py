"""The benchmark's tracer patches program names by hand: each must exist.

``perfbench/tracer.py`` wraps module and class attributes of the program
(``search.children``, ``branching.symmetry_allows``, ``Fringe.push``, ...)
while a traced benchmark runs. A renamed or deleted one makes ``traced``
raise, so entering it here fails on every Python that runs the tests.
"""

import importlib.util
from pathlib import Path

from glasscut import branching, search

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_the_tracer_patches_every_name_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(search, "children"), (branching, "symmetry_allows"),
             (branching, "apply_insertion"), (search.Fringe, "push")]
    originals = [getattr(owner, attr) for owner, attr in names]
    with tracing.traced(tracing.Tracer("names")):
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(names, originals))
    assert [getattr(owner, attr) for owner, attr in names] == originals
