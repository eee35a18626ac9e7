"""Star-like resource states, the hardware's native entanglement unit.

Practical photonic hardware periodically emits small identical graph states
(Section 2.2).  The paper evaluates with *star-like* resource states: one
root qubit connected to ``size - 1`` leaf qubits (a GHZ state up to local
Cliffords).  The main experiments use 4-qubit stars (3 leaves); the
sensitivity studies use up to 7-qubit stars (6 leaves), which natively have
enough degree for 3D lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError

#: Minimum meaningful star size: one root plus one leaf.
MIN_RESOURCE_STATE_SIZE = 2


@dataclass(frozen=True)
class ResourceStateSpec:
    """Immutable description of the hardware's resource state.

    ``size`` counts all photonic qubits, so a ``size``-qubit star has a root
    of degree ``size - 1`` and ``size - 1`` leaves of degree 1.
    """

    size: int = 4

    def __post_init__(self) -> None:
        if self.size < MIN_RESOURCE_STATE_SIZE:
            raise HardwareError(
                f"resource state needs >= {MIN_RESOURCE_STATE_SIZE} qubits, "
                f"got {self.size}"
            )

    @property
    def leaf_count(self) -> int:
        """Number of degree-1 qubits."""
        return self.size - 1

    @property
    def max_degree(self) -> int:
        """Degree of the root qubit."""
        return self.size - 1

    def sufficient_for_lattice(self, lattice_degree: int) -> bool:
        """Whether one star can occupy a ``lattice_degree``-degree lattice site.

        Forming a 2D square lattice needs degree 4; a 3D cubic lattice needs
        degree 6 (Section 4.1).  The comparison is against the *root* degree
        because the root is what survives leaf-leaf fusions as a lattice node.
        """
        return self.max_degree >= lattice_degree

    def merges_needed_for_degree(self, lattice_degree: int) -> int:
        """How many stars must be root-leaf merged to reach ``lattice_degree``.

        A successful root-leaf fusion of two ``d``-degree stars yields a
        ``2d - 1``-degree star (Section 4.1: two 4-degree states produce a
        7-degree state).  Returns the number of stars (>= 1) in the merged
        unit.
        """
        stars = 1
        degree = self.max_degree
        while degree < lattice_degree:
            # Each extra star contributes its root degree minus the leaf and
            # root consumed by the merging fusion.
            degree += self.max_degree - 1
            stars += 1
        return stars
