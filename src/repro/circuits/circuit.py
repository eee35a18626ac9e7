"""A minimal, explicit quantum circuit IR.

Circuits are ordered gate lists over ``num_qubits`` wires.  This is the
front-door of the compiler: benchmarks produce circuits, the ``jcz``
transpiler lowers them to the ``{J(alpha), CZ}`` universal set, and the MBQC
translator turns that into a program graph state.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.circuits.gates import Gate
from repro.errors import CircuitError


class Circuit:
    """An ordered list of :class:`Gate` applications on ``num_qubits`` wires."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise CircuitError(f"circuit needs >= 1 qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self.name = name
        self.gates: list[Gate] = []

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index: int) -> Gate:
        return self.gates[index]

    # -- gate appenders -----------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append a pre-built gate after validating its qubit indices."""
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit"
                )
        self.gates.append(gate)
        return self

    def add(self, name: str, *qubits: int, param: float | None = None) -> "Circuit":
        """Append gate ``name`` on ``qubits`` (``param`` for rotation gates)."""
        params = () if param is None else (float(param),)
        return self.append(Gate(name, tuple(qubits), params))

    def h(self, q: int) -> "Circuit":
        return self.add("h", q)

    def x(self, q: int) -> "Circuit":
        return self.add("x", q)

    def y(self, q: int) -> "Circuit":
        return self.add("y", q)

    def z(self, q: int) -> "Circuit":
        return self.add("z", q)

    def s(self, q: int) -> "Circuit":
        return self.add("s", q)

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", q)

    def t(self, q: int) -> "Circuit":
        return self.add("t", q)

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", q)

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", q, param=theta)

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", q, param=theta)

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", q, param=theta)

    def p(self, theta: float, q: int) -> "Circuit":
        return self.add("p", q, param=theta)

    def j(self, alpha: float, q: int) -> "Circuit":
        return self.add("j", q, param=alpha)

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", control, target)

    def cz(self, a: int, b: int) -> "Circuit":
        return self.add("cz", a, b)

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("cp", control, target, param=theta)

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", a, b)

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add("ccx", c1, c2, target)

    # -- queries --------------------------------------------------------------

    def count(self, name: str) -> int:
        """Number of gates named ``name``."""
        return sum(1 for gate in self.gates if gate.name == name)

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing qubits."""
        wire_depth = [0] * self.num_qubits
        for gate in self.gates:
            level = 1 + max(wire_depth[q] for q in gate.qubits)
            for q in gate.qubits:
                wire_depth[q] = level
        return max(wire_depth, default=0)

    def is_jcz(self) -> bool:
        """Whether the circuit already uses only ``{J, CZ}``."""
        return all(gate.name in ("j", "cz") for gate in self.gates)

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append many gates."""
        for gate in gates:
            self.append(gate)
        return self

    def copy(self) -> "Circuit":
        clone = Circuit(self.num_qubits, name=self.name)
        clone.gates = list(self.gates)
        return clone

    def __str__(self) -> str:
        header = f"{self.name}: {self.num_qubits} qubits, {len(self.gates)} gates"
        body = "\n".join(f"  {gate}" for gate in self.gates)
        return f"{header}\n{body}" if body else header
