"""Dense statevector simulation of circuits, and the gate matrices it applies.

Used by the test-suite to check that (a) the ``{J, CZ}`` lowering preserves
every benchmark's unitary action and (b) the MBQC execution of a measurement
pattern reproduces the circuit it was translated from.  Not used by the
compiler itself — compilation never simulates amplitudes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.errors import CircuitError

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


#: Refuse dense simulation beyond this width (2^14 amplitudes is plenty for tests).
MAX_DENSE_QUBITS = 14


def apply_gate(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Apply ``matrix`` on ``qubits`` (qubit 0 = most significant axis)."""
    k = len(qubits)
    tensor = state.reshape([2] * num_qubits)
    axes = list(qubits)
    tensor = np.moveaxis(tensor, axes, range(k))
    folded = tensor.reshape(2**k, -1)
    folded = matrix @ folded
    tensor = folded.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, range(k), axes)
    return tensor.reshape(-1)


def simulate_statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """The statevector after running ``circuit`` from ``|0...0>`` (or ``initial``)."""
    if circuit.num_qubits > MAX_DENSE_QUBITS:
        raise CircuitError(
            f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, "
            f"got {circuit.num_qubits}"
        )
    dim = 2**circuit.num_qubits
    if initial is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).copy()
        if state.shape != (dim,):
            raise CircuitError(f"initial state must have shape ({dim},)")
    for gate in circuit.gates:
        state = apply_gate(state, gate_matrix(gate), gate.qubits, circuit.num_qubits)
    return state


def simulate_unitary(circuit: Circuit) -> np.ndarray:
    """The full unitary of ``circuit`` (column ``b`` = image of basis state ``b``)."""
    if circuit.num_qubits > MAX_DENSE_QUBITS // 2:
        raise CircuitError("unitary simulation is quadratically sized; keep it small")
    dim = 2**circuit.num_qubits
    unitary = np.eye(dim, dtype=complex)
    for column in range(dim):
        unitary[:, column] = simulate_statevector(
            circuit, initial=np.eye(dim, dtype=complex)[:, column]
        )
    return unitary


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tolerance: float = 1e-8) -> bool:
    """Whether two state vectors agree up to a global phase."""
    overlap = np.vdot(a, b)
    return bool(abs(abs(overlap) - 1.0) <= tolerance * max(1.0, np.linalg.norm(a) * np.linalg.norm(b)))


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tolerance: float = 1e-8) -> bool:
    """Whether two unitaries agree up to a global phase."""
    # Align phases via the largest entry of a.
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(b[index]) < tolerance:
        return False
    phase = a[index] / b[index]
    return bool(np.allclose(a, phase * b, atol=max(tolerance, 1e-10)))
