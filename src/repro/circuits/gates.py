"""Gate vocabulary for the circuit frontend.

The compiler's native gate set is ``{J(alpha), CZ}`` (Section 2.1): ``J``
generates all one-qubit unitaries and ``CZ`` provides entanglement, and both
have direct MBQC translations.  Everything else here exists so benchmarks can
be written naturally and then lowered by :mod:`repro.circuits.jcz`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CircuitError

#: Gates taking no parameter, with their arities.
FIXED_GATES: dict[str, int] = {
    "h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "cx": 2, "cz": 2, "swap": 2, "ccx": 3,
}

#: Gates taking one angle parameter, with their arities.
PARAM_GATES: dict[str, int] = {
    "rx": 1, "ry": 1, "rz": 1, "p": 1, "j": 1, "cp": 2,
}


@dataclass(frozen=True)
class Gate:
    """One gate application: a name, target qubits, and optional parameters."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        arity = FIXED_GATES.get(self.name, PARAM_GATES.get(self.name))
        if arity is None:
            raise CircuitError(f"unknown gate {self.name!r}")
        if len(self.qubits) != arity:
            raise CircuitError(
                f"gate {self.name!r} expects {arity} qubits, got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"gate {self.name!r} has repeated qubits {self.qubits}")
        expected_params = 1 if self.name in PARAM_GATES else 0
        if len(self.params) != expected_params:
            raise CircuitError(
                f"gate {self.name!r} expects {expected_params} parameter(s), "
                f"got {len(self.params)}"
            )

    def __str__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            return f"{self.name}({self.params[0]:.4f}) {args}"
        return f"{self.name} {args}"


# ----------------------------------------------------------------------
# Matrices (used by the dense validator, not by the compiler itself)
# ----------------------------------------------------------------------

_SQRT1_2 = 1 / math.sqrt(2)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of ``gate`` in the computational basis (little care for
    global phase — comparisons in the tests are phase-insensitive)."""
    name = gate.name
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "z":
        return np.diag([1, -1]).astype(complex)
    if name == "s":
        return np.diag([1, 1j]).astype(complex)
    if name == "sdg":
        return np.diag([1, -1j]).astype(complex)
    if name == "t":
        return np.diag([1, np.exp(1j * math.pi / 4)])
    if name == "tdg":
        return np.diag([1, np.exp(-1j * math.pi / 4)])
    if name == "rz":
        (theta,) = gate.params
        return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    if name == "rx":
        (theta,) = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        (theta,) = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "p":
        (theta,) = gate.params
        return np.diag([1, np.exp(1j * theta)])
    if name == "j":
        (alpha,) = gate.params
        return np.array(
            [[1, np.exp(1j * alpha)], [1, -np.exp(1j * alpha)]], dtype=complex
        ) * _SQRT1_2
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "cp":
        (theta,) = gate.params
        return np.diag([1, 1, 1, np.exp(1j * theta)])
    if name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name == "ccx":
        matrix = np.eye(8, dtype=complex)
        matrix[6, 6] = matrix[7, 7] = 0
        matrix[6, 7] = matrix[7, 6] = 1
        return matrix
    raise CircuitError(f"no matrix for gate {name!r}")
