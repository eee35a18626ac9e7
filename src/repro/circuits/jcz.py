"""Lowering arbitrary circuits to the ``{J(alpha), CZ}`` universal set.

The MBQC translation (Fig. 3 of the paper) consumes circuits written with
``J(alpha) = H . P(alpha)`` and ``CZ`` only.  The identities used here:

* ``H = J(0)``
* ``P(theta) = J(0) J(theta)``   (apply ``J(theta)`` first, then ``J(0)``)
* ``Rz(theta) = P(theta)`` up to global phase
* ``Rx(theta) = J(theta) J(0)`` (``H Rz(theta) H``)
* ``CX(c, t) = (J(0) on t) CZ (J(0) on t)``
* ``CCX`` via the standard 7-T decomposition, ``SWAP`` via three ``CX``.

:data:`LOWERING` holds each gate's expansion as a tuple of op tuples in
application order, with qubits named by their slot in the gate:

* ``(J, slot, angle)``: ``J(angle)`` with a constant ``angle``;
* ``(JP, slot, scale)``: ``J(scale * theta)``, ``theta`` the gate's
  parameter;
* ``(CZ, slot_a, slot_b)``.

:func:`jcz_ops` streams a circuit's expansion with adjacent ``J``
cancellation (``J(0) J(0) = I``) applied as a peephole, mirroring how PyZX
would simplify the pattern before mapping; :func:`to_jcz` builds gates from
the stream, and ``repro.mbqc.translate`` builds the pattern from it
directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.errors import CircuitError

_PI = math.pi

#: Op codes of :data:`LOWERING`.
J = 0
JP = 1
CZ = 2

Op = tuple[int, int, float]


def _build_lowering() -> dict[str, tuple[Op, ...]]:
    table: dict[str, tuple[Op, ...]] = {
        "j": ((JP, 0, 1.0),),
        "cz": ((CZ, 0, 1),),
        "h": ((J, 0, 0.0),),
        "rz": ((JP, 0, 1.0), (J, 0, 0.0)),
        "z": ((J, 0, _PI), (J, 0, 0.0)),
        "s": ((J, 0, _PI / 2), (J, 0, 0.0)),
        "sdg": ((J, 0, -_PI / 2), (J, 0, 0.0)),
        "t": ((J, 0, _PI / 4), (J, 0, 0.0)),
        "tdg": ((J, 0, -_PI / 4), (J, 0, 0.0)),
        "x": ((J, 0, 0.0), (J, 0, _PI)),
        "rx": ((J, 0, 0.0), (JP, 0, 1.0)),
        "cx": ((J, 1, 0.0), (CZ, 0, 1), (J, 1, 0.0)),
    }
    table["p"] = table["rz"]

    def on(name: str, *slots: int, angle: float | None = None, scale: float = 1.0):
        """``name``'s ops on the given slots, its parameter a constant
        ``angle`` or ``scale`` times the composite gate's own."""
        ops = []
        for code, a, b in table[name]:
            if code == CZ:
                ops.append((CZ, slots[a], slots[b]))
            elif code == J:
                ops.append((J, slots[a], b))
            elif angle is not None:
                ops.append((J, slots[a], b * angle))
            else:
                ops.append((JP, slots[a], b * scale))
        return tuple(ops)

    # Y = i X Z: lower as Z then X (global phase dropped).
    table["y"] = on("z", 0) + on("x", 0)
    # Ry(t) = Rz(pi/2) Rx(t) Rz(-pi/2) as matrices; rightmost runs first.
    table["ry"] = on("rz", 0, angle=-_PI / 2) + on("rx", 0) + on("rz", 0, angle=_PI / 2)
    # Controlled phase via two CX and three Rz (exact up to global phase).
    table["cp"] = (
        on("rz", 0, scale=0.5)
        + on("rz", 1, scale=0.5)
        + on("cx", 0, 1)
        + on("rz", 1, scale=-0.5)
        + on("cx", 0, 1)
    )
    table["swap"] = on("cx", 0, 1) + on("cx", 1, 0) + on("cx", 0, 1)
    c1, c2, target = 0, 1, 2
    table["ccx"] = (
        on("h", target)
        + on("cx", c2, target)
        + on("tdg", target)
        + on("cx", c1, target)
        + on("t", target)
        + on("cx", c2, target)
        + on("tdg", target)
        + on("cx", c1, target)
        + on("t", c2)
        + on("t", target)
        + on("h", target)
        + on("cx", c1, c2)
        + on("t", c1)
        + on("tdg", c2)
        + on("cx", c1, c2)
    )
    return table


#: Gate name -> its ``{J, CZ}`` expansion (see the module docstring).
LOWERING: dict[str, tuple[Op, ...]] = _build_lowering()


def jcz_ops(circuit: Circuit, simplify: bool = True) -> Iterator[Op]:
    """``circuit``'s ``{J, CZ}`` ops in order, on wires: ``(J, wire, angle)``
    and ``(CZ, wire_a, wire_b)`` (global phases dropped).

    With ``simplify`` (default) adjacent ``J(0)`` pairs are cancelled: ``J(0)
    = H``, so two ``J(0)`` on one wire with nothing between them there are
    the identity.  This is the only always-safe J-merge; angle fusion
    through ``P`` is left to the measurement pattern, where it happens for
    free (adjacent ``E(0)`` measurements).  A ``J(0)`` is held until the
    next op on its wire, and those still held at the end come out in wire
    order.
    """
    pending: dict[int, float] = {}  # wire -> angle of its held J(0)
    for gate in circuit.gates:
        ops = LOWERING.get(gate.name)
        if ops is None:
            raise CircuitError(f"no {{J, CZ}} lowering for gate {gate.name!r}")
        qubits = gate.qubits
        for code, a, b in ops:
            if code == CZ:
                wire_a = qubits[a]
                wire_b = qubits[b]
                if wire_a in pending:
                    yield J, wire_a, pending.pop(wire_a)
                if wire_b in pending:
                    yield J, wire_b, pending.pop(wire_b)
                yield CZ, wire_a, wire_b
                continue
            wire = qubits[a]
            angle = b if code == J else float(b * gate.params[0])
            if simplify and angle == 0.0:
                if wire in pending:
                    del pending[wire]  # J(0) J(0) = I
                else:
                    pending[wire] = angle
                continue
            if wire in pending:
                yield J, wire, pending.pop(wire)
            yield J, wire, angle
    for wire in sorted(pending):
        yield J, wire, pending[wire]


def to_jcz(circuit: Circuit, simplify: bool = True) -> Circuit:
    """Lower ``circuit`` to a ``{J(alpha), CZ}`` circuit: :func:`jcz_ops`
    as gates."""
    lowered = Circuit(circuit.num_qubits, name=f"{circuit.name}:jcz")
    for code, a, b in jcz_ops(circuit, simplify):
        if code == CZ:
            lowered.append(Gate("cz", (a, b)))
        else:
            lowered.j(b, a)
    return lowered
