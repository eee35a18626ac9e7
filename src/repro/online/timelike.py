"""Time-like connections and the (2+1)-D reshaping driver (Section 5.2).

RSLs stream in continuously.  Each one attempts a 2D renormalization; an RSL
becomes a *logical layer* if (1) the renormalized lattice reaches the target
size and (2) it establishes every time-like connection demanded by the IR
program with prior logical layers.  Otherwise it is a *routing layer*: all of
its qubits fuse forward to the next RSL, extending the temporal percolation
until the next renormalization succeeds.

Cross-layer connections park the preceding node's qubits in delay lines until
the first RSL after the relevant logical layer, so the photon lifetime bounds
how many routing layers a connection can wait through.  The reshaper enforces
that bound from the RSL count at which each logical layer completed
(``ReshapeMetrics.logical_layer_rsl_marks``, checked by
``OnlineReshaper._check_photon_lifetimes``); it keeps no per-photon store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareError
from repro.hardware.architecture import HardwareConfig
from repro.hardware.fusion import FusionDevice
from repro.online.fusion_strategy import form_layer
from repro.online.renormalize import renormalize
from repro.utils.rng import ensure_rng

#: Physical qubits fused per requested time-like connection (the "set of
#: physical qubits around the preceding node", Section 5.2).  The connection
#: is established if at least one of them succeeds and the path search on the
#: renormalized layer confirms reachability.
TEMPORAL_FANOUT = 2


@dataclass
class LayerDemand:
    """What the IR program needs from the next logical layer.

    ``cross_gaps`` carries, for each cross-layer connection, how many logical
    layers its photons wait in the delay lines (the offline mapper reads
    these off the IR's temporal edges); the reshaper converts them to RSG
    cycles and enforces the photon lifetime.
    """

    adjacent_connections: int = 0  # temporal edges from the previous logical layer
    cross_connections: int = 0  # retrievals from the virtual memory
    cross_gaps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.cross_gaps and len(self.cross_gaps) != self.cross_connections:
            raise HardwareError(
                f"{self.cross_connections} cross connections but "
                f"{len(self.cross_gaps)} gaps supplied"
            )


@dataclass
class ReshapeMetrics:
    """Aggregate accounting of one online execution."""

    rsl_consumed: int = 0
    logical_layers: int = 0
    routing_layers: int = 0
    fusions: int = 0
    renormalization_attempts: int = 0
    renormalization_successes: int = 0
    connection_failures: int = 0
    visited_sites_per_attempt: list[int] = field(default_factory=list)
    max_storage_cycles: int = 0  # longest delay-line wait observed
    logical_layer_rsl_marks: list[int] = field(default_factory=list)

    @property
    def pl_ratio(self) -> float:
        """RSLs consumed per logical layer (Fig. 13(b)'s y-axis)."""
        if self.logical_layers == 0:
            return float("nan")
        return self.rsl_consumed / self.logical_layers


class OnlineReshaper:
    """Streams RSLs and reshapes them into the virtual hardware's layers."""

    def __init__(
        self,
        config: HardwareConfig,
        virtual_size: int,
        rng=None,
        max_rsl: int = 10**6,
    ) -> None:
        if virtual_size < 1:
            raise HardwareError(f"virtual size must be >= 1, got {virtual_size}")
        if virtual_size > config.rsl_size:
            raise HardwareError(
                f"virtual hardware {virtual_size} cannot exceed RSL size "
                f"{config.rsl_size}"
            )
        self.config = config
        self.virtual_size = virtual_size
        self.device = FusionDevice(config.effective_fusion_rate, ensure_rng(rng))
        self.max_rsl = max_rsl

    def run(self, demands: list[LayerDemand]) -> ReshapeMetrics:
        """Produce one logical layer per demand; returns the full accounting."""
        metrics = ReshapeMetrics()
        fusion_baseline = self.device.tally.attempted
        for demand_index, demand in enumerate(demands):
            self._produce_logical_layer(demand_index, len(demands), demand, metrics)
        metrics.fusions = self.device.tally.attempted - fusion_baseline
        return metrics

    # ------------------------------------------------------------------

    def _produce_logical_layer(
        self,
        demand_index: int,
        demand_count: int,
        demand: LayerDemand,
        metrics: ReshapeMetrics,
    ) -> None:
        """Consume RSLs until one qualifies as layer ``demand_index``."""
        while True:
            if metrics.rsl_consumed >= self.max_rsl:
                raise HardwareError(
                    f"online pass exceeded {self.max_rsl} RSLs at logical layer "
                    f"{demand_index} of {demand_count} ({metrics.rsl_consumed} "
                    "RSLs consumed); virtual hardware too large for this RSL size?"
                )
            formation = form_layer(self.config, self.device)
            metrics.rsl_consumed += formation.rsls_used

            metrics.renormalization_attempts += 1
            result = renormalize(formation.lattice, self.virtual_size)
            metrics.visited_sites_per_attempt.append(result.visited_sites)

            connections_ok = True
            if result.success:
                metrics.renormalization_successes += 1
                connections_ok = self._establish_connections(demand, metrics)
            if result.success and connections_ok:
                metrics.logical_layers += 1
                metrics.logical_layer_rsl_marks.append(metrics.rsl_consumed)
                self._check_photon_lifetimes(demand, metrics)
                return
            # Routing layer: every site fuses forward to the next RSL.
            metrics.routing_layers += 1
            self.device.attempt_grid(
                (self.config.rsl_size, self.config.rsl_size), "temporal"
            )

    def _establish_connections(
        self, demand: LayerDemand, metrics: ReshapeMetrics
    ) -> bool:
        """Attempt every demanded time-like connection; all must succeed.

        Each connection fuses ``TEMPORAL_FANOUT`` qubits around the preceding
        node to the candidate layer and succeeds if any of them does; the
        subsequent in-layer path search is guaranteed by the successful
        renormalization (all logical nodes are long-range connected).  All
        connections are drawn in one batch, connection by connection: the
        device RNG consumes its doubles in sequence, so the stream and the
        tally are those of one ``TEMPORAL_FANOUT`` draw per connection.
        """
        total = demand.adjacent_connections + demand.cross_connections
        if total > self.virtual_size * self.virtual_size:
            raise HardwareError(
                f"demand of {total} connections exceeds the "
                f"{self.virtual_size}x{self.virtual_size} virtual layer"
            )
        if total == 0:
            return True
        outcomes = self.device.attempt_batch(total * TEMPORAL_FANOUT, "temporal")
        ok = bool(outcomes.reshape(total, TEMPORAL_FANOUT).any(axis=1).all())
        if not ok:
            metrics.connection_failures += 1
        return ok

    def _check_photon_lifetimes(
        self, demand: LayerDemand, metrics: ReshapeMetrics
    ) -> None:
        """Enforce the delay-line lifetime on this layer's cross connections.

        A cross connection spanning ``gap`` logical layers stored its photons
        when the source logical layer completed; the wait in RSG cycles is
        the RSL count accumulated since then.  Exceeding the photon lifetime
        means the stored qubits are lost and the IR program is not executable
        on this hardware.
        """
        if not demand.cross_gaps:
            return
        marks = metrics.logical_layer_rsl_marks
        current_mark = marks[-1]
        for gap in demand.cross_gaps:
            source_index = len(marks) - 1 - gap
            source_mark = marks[source_index] if source_index >= 0 else 0
            waited = current_mark - source_mark
            metrics.max_storage_cycles = max(metrics.max_storage_cycles, waited)
            if waited > self.config.photon_lifetime:
                raise HardwareError(
                    f"a cross-layer connection waited {waited} RSG cycles in "
                    f"the delay lines, beyond the photon lifetime of "
                    f"{self.config.photon_lifetime}; the program needs a "
                    "larger RSL or a refresh-style remapping"
                )
