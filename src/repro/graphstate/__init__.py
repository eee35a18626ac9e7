"""Graph states and the hardware's star resource states."""

from repro.graphstate.graph import GraphState
from repro.graphstate.resource import ResourceStateSpec

__all__ = [
    "GraphState",
    "ResourceStateSpec",
]
