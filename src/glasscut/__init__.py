"""Solver, validator and benchmark harness for the 2018 ROADEF/EURO
glass cutting problem (four-stage guillotine packing with leftovers)."""

from .model import (
    Defect,
    GlasscutError,
    GuideKind,
    Instance,
    InstanceError,
    Item,
    Node,
    Params,
    ParseError,
    SolutionError,
    root_node,
)

__version__ = "0.1.0"

__all__ = [
    "Defect",
    "GlasscutError",
    "GuideKind",
    "Instance",
    "InstanceError",
    "Item",
    "Node",
    "Params",
    "ParseError",
    "SolutionError",
    "root_node",
]
