"""Gate vocabulary for the circuit frontend.

The compiler's native gate set is ``{J(alpha), CZ}`` (Section 2.1): ``J``
generates all one-qubit unitaries and ``CZ`` provides entanglement, and both
have direct MBQC translations.  Everything else here exists so benchmarks can
be written naturally and then lowered by :mod:`repro.circuits.jcz`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
