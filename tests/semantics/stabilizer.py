"""Aaronson–Gottesman stabilizer tableau simulator.

The graph rewrite rules in :mod:`semantics.graph_rules` and
:mod:`semantics.fusion` are *claims* about what measurements and
fusions do to graph states.  This module provides an independent ground truth:
a binary-symplectic CHP tableau (Aaronson & Gottesman 2004) extended with

* measurement of arbitrary Hermitian Pauli products — enough to execute a
  type-II fusion as the joint measurement of ``X (x) Z`` and ``Z (x) X``; and
* extraction of the graph underlying a stabilizer state (Van den Nest 2004),
  so tableau evolution can be compared edge-for-edge with the rewrite rules.

The test-suite uses it to verify local complementation, X/Y/Z measurement
rules, and both fusion branches on randomly generated states.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GraphStateError
from repro.graphstate.graph import GraphState


class PauliProduct:
    """A Hermitian Pauli product ``(-1)^sign_bit * prod_j P_j``.

    Stored in the binary-symplectic convention: qubit ``j`` carries
    ``X^{x[j]} Z^{z[j]}`` with an implicit ``i`` for each ``Y`` (``x = z = 1``),
    so ``+Y`` has ``sign_bit = 0``.
    """

    def __init__(self, num_qubits: int) -> None:
        self.x = np.zeros(num_qubits, dtype=np.uint8)
        self.z = np.zeros(num_qubits, dtype=np.uint8)
        self.sign_bit = 0

    @staticmethod
    def from_letters(num_qubits: int, letters: dict[int, str], sign: int = 1) -> "PauliProduct":
        """Build from ``{qubit: 'X'|'Y'|'Z'}`` and an overall sign of +/-1."""
        product = PauliProduct(num_qubits)
        for qubit, letter in letters.items():
            if not 0 <= qubit < num_qubits:
                raise GraphStateError(f"qubit {qubit} out of range for {num_qubits} qubits")
            if letter == "X":
                product.x[qubit] = 1
            elif letter == "Z":
                product.z[qubit] = 1
            elif letter == "Y":
                product.x[qubit] = 1
                product.z[qubit] = 1
            else:
                raise GraphStateError(f"unknown Pauli letter {letter!r}")
        if sign == -1:
            product.sign_bit = 1
        elif sign != 1:
            raise GraphStateError(f"sign must be +1 or -1, got {sign}")
        return product


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Aaronson–Gottesman ``g``: the power of ``i`` from multiplying two Paulis."""
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:  # Y
        return z2 - x2
    if x1 == 1:  # X
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)  # Z


class Tableau:
    """CHP tableau over ``n`` qubits: ``2n`` rows (destabilizers then stabilizers).

    The state starts as ``|0...0>``.  Use :meth:`from_graph` for graph states.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise GraphStateError("tableau needs at least one qubit")
        self.num_qubits = num_qubits
        size = 2 * num_qubits
        self.x = np.zeros((size, num_qubits), dtype=np.uint8)
        self.z = np.zeros((size, num_qubits), dtype=np.uint8)
        self.r = np.zeros(size, dtype=np.uint8)
        for qubit in range(num_qubits):
            self.x[qubit, qubit] = 1  # destabilizer X_q
            self.z[num_qubits + qubit, qubit] = 1  # stabilizer Z_q

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_graph(
        graph: GraphState,
        node_order: Sequence | None = None,
    ) -> tuple["Tableau", dict]:
        """Prepare ``|G>`` for ``graph``; returns the tableau and node->index map."""
        nodes = list(node_order) if node_order is not None else graph.nodes()
        if set(nodes) != set(graph.nodes()):
            raise GraphStateError("node_order must cover exactly the graph's nodes")
        index = {node: position for position, node in enumerate(nodes)}
        tableau = Tableau(len(nodes))
        for qubit in range(len(nodes)):
            tableau.hadamard(qubit)
        for u, v in graph.edges():
            tableau.cz(index[u], index[v])
        return tableau, index

    # ------------------------------------------------------------------
    # Clifford gates
    # ------------------------------------------------------------------

    def hadamard(self, qubit: int) -> None:
        """Apply H: swap the X and Z columns of ``qubit``."""
        self.r ^= self.x[:, qubit] & self.z[:, qubit]
        self.x[:, qubit], self.z[:, qubit] = (
            self.z[:, qubit].copy(),
            self.x[:, qubit].copy(),
        )

    def phase_gate(self, qubit: int) -> None:
        """Apply S (the ``sqrt(Z)`` gate)."""
        self.r ^= self.x[:, qubit] & self.z[:, qubit]
        self.z[:, qubit] ^= self.x[:, qubit]

    def phase_gate_dagger(self, qubit: int) -> None:
        """Apply S^dagger."""
        self.phase_gate(qubit)
        self.phase_gate(qubit)
        self.phase_gate(qubit)

    def sqrt_x(self, qubit: int) -> None:
        """Apply ``exp(-i pi/4 X)`` up to global phase (H S H)."""
        self.hadamard(qubit)
        self.phase_gate(qubit)
        self.hadamard(qubit)

    def cnot(self, control: int, target: int) -> None:
        """Apply CNOT(control, target)."""
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, qubit_a: int, qubit_b: int) -> None:
        """Apply CZ (conjugated CNOT)."""
        self.hadamard(qubit_b)
        self.cnot(qubit_a, qubit_b)
        self.hadamard(qubit_b)

    def pauli_z(self, qubit: int) -> None:
        """Apply the Pauli Z correction (flips signs of X-containing rows)."""
        self.r ^= self.x[:, qubit]

    def pauli_x(self, qubit: int) -> None:
        """Apply the Pauli X correction (flips signs of Z-containing rows)."""
        self.r ^= self.z[:, qubit]

    # ------------------------------------------------------------------
    # Row algebra
    # ------------------------------------------------------------------

    def _rowsum(self, target: int, source: int) -> None:
        """Row ``target`` *= row ``source``, with exact phase tracking.

        For stabilizer rows the product phase is always ``+1`` or ``-1``
        (generators commute); destabilizer rows may anticommute with the
        source, giving an odd power of ``i`` — their phases are bookkeeping
        junk that the algorithm never reads, so we just fold the phase bit.
        """
        phase = 2 * int(self.r[target]) + 2 * int(self.r[source])
        for qubit in range(self.num_qubits):
            phase += _phase_exponent(
                int(self.x[source, qubit]),
                int(self.z[source, qubit]),
                int(self.x[target, qubit]),
                int(self.z[target, qubit]),
            )
        phase %= 4
        if target >= self.num_qubits and phase not in (0, 2):
            raise GraphStateError("tableau corrupted: non-Hermitian stabilizer product")
        self.r[target] = 1 if phase in (2, 3) else 0
        self.x[target] ^= self.x[source]
        self.z[target] ^= self.z[source]

    def _anticommutes(self, row: int, pauli: PauliProduct) -> bool:
        """Whether tableau row ``row`` anticommutes with ``pauli``."""
        overlap = int(
            np.sum(
                (self.x[row] & pauli.z) ^ (self.z[row] & pauli.x)
            )
            % 2
        )
        return overlap == 1

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure_pauli(
        self,
        pauli: PauliProduct,
        rng=None,
        postselect: int | None = None,
    ) -> int:
        """Measure the Hermitian product ``pauli``; returns the outcome bit.

        ``postselect`` forces the outcome when it is random; forcing a
        deterministic measurement to the wrong value raises.  Outcome bit
        ``m`` means the post-measurement state is stabilized by
        ``(-1)^m * pauli``.
        """
        n = self.num_qubits
        anticommuting = [
            row for row in range(n, 2 * n) if self._anticommutes(row, pauli)
        ]
        if anticommuting:
            pivot = anticommuting[0]
            if postselect is not None:
                outcome = int(postselect)
            elif rng is not None:
                outcome = int(rng.integers(0, 2))
            else:
                outcome = 0
            for row in range(2 * n):
                if row != pivot and self._anticommutes(row, pauli):
                    self._rowsum(row, pivot)
            # The old pivot stabilizer becomes the matching destabilizer.
            self.x[pivot - n] = self.x[pivot].copy()
            self.z[pivot - n] = self.z[pivot].copy()
            self.r[pivot - n] = self.r[pivot]
            # The new stabilizer is (-1)^outcome * pauli.
            self.x[pivot] = pauli.x.copy()
            self.z[pivot] = pauli.z.copy()
            self.r[pivot] = (pauli.sign_bit + outcome) % 2
            return outcome

        # Deterministic branch: accumulate the stabilizer product matching
        # pauli using the destabilizer pairing, in a scratch row.
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        scratch_phase = 0  # power of i, with the 2*r convention folded in
        for destab_row in range(n):
            if self._anticommutes(destab_row, pauli):
                stab_row = destab_row + n
                phase = 0
                for qubit in range(n):
                    phase += _phase_exponent(
                        int(self.x[stab_row, qubit]),
                        int(self.z[stab_row, qubit]),
                        int(scratch_x[qubit]),
                        int(scratch_z[qubit]),
                    )
                scratch_phase = (scratch_phase + phase + 2 * int(self.r[stab_row])) % 4
                scratch_x ^= self.x[stab_row]
                scratch_z ^= self.z[stab_row]
        if not (np.array_equal(scratch_x, pauli.x) and np.array_equal(scratch_z, pauli.z)):
            raise GraphStateError("tableau corrupted: deterministic product mismatch")
        if scratch_phase not in (0, 2):
            raise GraphStateError("tableau corrupted: imaginary deterministic phase")
        outcome = ((scratch_phase // 2) + pauli.sign_bit) % 2
        if postselect is not None and postselect != outcome:
            raise GraphStateError(
                f"cannot postselect outcome {postselect}: measurement is "
                f"deterministic with outcome {outcome}"
            )
        return outcome

    def measure_letter(
        self,
        qubit: int,
        letter: str,
        rng=None,
        postselect: int | None = None,
    ) -> int:
        """Measure one qubit in a Pauli basis (``'X'``, ``'Y'`` or ``'Z'``)."""
        pauli = PauliProduct.from_letters(self.num_qubits, {qubit: letter})
        return self.measure_pauli(pauli, rng=rng, postselect=postselect)

    def fuse(
        self,
        qubit_a: int,
        qubit_b: int,
        rng=None,
        postselect: tuple[int, int] | None = (0, 0),
    ) -> tuple[int, int]:
        """Execute a *successful* type-II fusion: measure ``X_a Z_b`` then ``Z_a X_b``.

        Postselecting ``(0, 0)`` (default) gives the correction-free branch the
        graph rewrite rules describe; pass ``postselect=None`` with an ``rng``
        for random outcomes (byproducts are then Pauli corrections).
        """
        first = PauliProduct.from_letters(self.num_qubits, {qubit_a: "X", qubit_b: "Z"})
        second = PauliProduct.from_letters(self.num_qubits, {qubit_a: "Z", qubit_b: "X"})
        if postselect is None:
            return (
                self.measure_pauli(first, rng=rng),
                self.measure_pauli(second, rng=rng),
            )
        return (
            self.measure_pauli(first, rng=rng, postselect=postselect[0]),
            self.measure_pauli(second, rng=rng, postselect=postselect[1]),
        )

    # ------------------------------------------------------------------
    # Graph extraction
    # ------------------------------------------------------------------

    def extract_graph(
        self,
        keep: Iterable[int] | None = None,
    ) -> tuple[np.ndarray, list[tuple[str, int]]]:
        """Recover the graph underlying the stabilizer state on ``keep`` qubits.

        ``keep`` lists the qubits that still carry state (measured-out qubits
        are in product states stabilized by single-qubit Paulis and must be
        excluded).  Returns the adjacency matrix over ``keep`` (in the given
        order) and the local gates (``('H', q)`` / ``('S', q)``) the reduction
        applied — the state is that graph state up to those local Cliffords
        and Pauli signs.
        """
        keep_list = list(keep) if keep is not None else list(range(self.num_qubits))
        work = self._stabilizer_submatrix(keep_list)
        return _reduce_to_graph(work)

    def _stabilizer_submatrix(self, keep: list[int]) -> "_BinaryStabilizers":
        """Stabilizer generators restricted to ``keep``, eliminating the rest.

        Measured-out qubits are stabilized by single-qubit Paulis; Gaussian
        elimination removes their support from the remaining generators, after
        which rows acting trivially outside ``keep`` are the generators of the
        kept subsystem.
        """
        n = self.num_qubits
        rows_x = self.x[n:].copy()
        rows_z = self.z[n:].copy()
        rows_r = self.r[n:].copy()
        drop = [q for q in range(n) if q not in set(keep)]

        # Clear each dropped qubit's X then Z support down to (at most) one
        # generator each, parked at the end of the matrix.
        available = n
        for qubit in drop:
            for block_x in (True, False):
                block = rows_x if block_x else rows_z
                pivot = None
                for row in range(available):
                    if block[row, qubit]:
                        if pivot is None:
                            pivot = row
                        else:
                            _binary_rowsum(rows_x, rows_z, rows_r, row, pivot)
                if pivot is not None:
                    _swap_rows(rows_x, rows_z, rows_r, pivot, available - 1)
                    available -= 1

        keep_index = {qubit: position for position, qubit in enumerate(keep)}
        sub = _BinaryStabilizers(len(keep))
        out_row = 0
        for row in range(available):
            support = [
                q
                for q in range(n)
                if (rows_x[row, q] or rows_z[row, q])
            ]
            if any(q not in keep_index for q in support):
                raise GraphStateError(
                    "subsystem is entangled with dropped qubits; measure them first"
                )
            for q in support:
                sub.x[out_row, keep_index[q]] = rows_x[row, q]
                sub.z[out_row, keep_index[q]] = rows_z[row, q]
            sub.r[out_row] = rows_r[row]
            out_row += 1
        if out_row != len(keep):
            raise GraphStateError(
                f"expected {len(keep)} independent generators, found {out_row}"
            )
        return sub


class _BinaryStabilizers:
    """A bare ``k x 2k`` stabilizer generator matrix used during extraction."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.x = np.zeros((size, size), dtype=np.uint8)
        self.z = np.zeros((size, size), dtype=np.uint8)
        self.r = np.zeros(size, dtype=np.uint8)


def _binary_rowsum(x: np.ndarray, z: np.ndarray, r: np.ndarray, target: int, source: int) -> None:
    """Row product with phase tracking on a raw generator matrix."""
    phase = 2 * int(r[target]) + 2 * int(r[source])
    for qubit in range(x.shape[1]):
        phase += _phase_exponent(
            int(x[source, qubit]), int(z[source, qubit]),
            int(x[target, qubit]), int(z[target, qubit]),
        )
    phase %= 4
    if phase not in (0, 2):
        raise GraphStateError("generator matrix corrupted: non-Hermitian product")
    r[target] = 1 if phase == 2 else 0
    x[target] ^= x[source]
    z[target] ^= z[source]


def _swap_rows(x: np.ndarray, z: np.ndarray, r: np.ndarray, a: int, b: int) -> None:
    if a == b:
        return
    x[[a, b]] = x[[b, a]]
    z[[a, b]] = z[[b, a]]
    r[[a, b]] = r[[b, a]]


def _reduce_to_graph(sub: _BinaryStabilizers) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Van den Nest reduction: local H/S until stabilizers read ``X_i Z_{N(i)}``."""
    size = sub.size
    applied: list[tuple[str, int]] = []

    def apply_h(qubit: int) -> None:
        sub.r ^= sub.x[:, qubit] & sub.z[:, qubit]
        sub.x[:, qubit], sub.z[:, qubit] = (
            sub.z[:, qubit].copy(),
            sub.x[:, qubit].copy(),
        )
        applied.append(("H", qubit))

    def apply_s(qubit: int) -> None:
        sub.r ^= sub.x[:, qubit] & sub.z[:, qubit]
        sub.z[:, qubit] ^= sub.x[:, qubit]
        applied.append(("S", qubit))

    # Make the X block invertible, Hadamarding columns outside the rank
    # profile.  One Hadamard round always suffices: afterwards every column
    # is either an original pivot or carries the (independent) Z support of
    # the rank-deficient rows.
    while True:
        rank = 0
        pivot_columns: list[int] = []
        for column in range(size):
            pivot = None
            for row in range(rank, size):
                if sub.x[row, column]:
                    pivot = row
                    break
            if pivot is None:
                continue
            _swap_rows(sub.x, sub.z, sub.r, pivot, rank)
            for row in range(size):
                if row != rank and sub.x[row, column]:
                    _binary_rowsum(sub.x, sub.z, sub.r, row, rank)
            pivot_columns.append(column)
            rank += 1
        if rank == size:
            break
        free = [column for column in range(size) if column not in pivot_columns]
        progressed = False
        for column in free:
            if sub.z[rank:, column].any():
                apply_h(column)
                progressed = True
        if not progressed:
            raise GraphStateError("extraction failed: generators not independent")

    # Reorder rows so row i has its X pivot on column i.
    order = np.argsort(np.argmax(sub.x, axis=1))
    sub.x = sub.x[order]
    sub.z = sub.z[order]
    sub.r = sub.r[order]

    # Clear the Z diagonal with S gates.
    for qubit in range(size):
        if sub.z[qubit, qubit]:
            apply_s(qubit)

    adjacency = sub.z.copy()
    if not np.array_equal(adjacency, adjacency.T):
        raise GraphStateError("extraction failed: Z block is not symmetric")
    if adjacency.diagonal().any():
        raise GraphStateError("extraction failed: residual Z diagonal")
    return adjacency, applied


def graph_from_adjacency(adjacency: np.ndarray) -> GraphState:
    """Build a :class:`GraphState` (integer nodes) from an adjacency matrix."""
    graph = GraphState()
    size = adjacency.shape[0]
    for node in range(size):
        graph.add_node(node)
    for u in range(size):
        for v in range(u + 1, size):
            if adjacency[u, v]:
                graph.add_edge(u, v)
    return graph
