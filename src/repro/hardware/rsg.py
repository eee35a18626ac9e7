"""Resource state generation: RSG arrays and resource state layers.

An :class:`RSGArray` emits one :class:`ResourceStateLayer` per cycle: an
``N x N`` grid of star resource states.  For experiments that need the full
graph-state machinery (small scales), :meth:`ResourceStateLayer.build_graph`
materializes every star into a :class:`~repro.graphstate.graph.GraphState`;
the large-scale online pass instead works on the site/bond abstraction of
:mod:`repro.online.percolation`, which this module's merge simulation feeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphstate.graph import GraphState
from repro.graphstate.resource import ResourceStateInstance, ResourceStateSpec, emit_star
from repro.hardware.architecture import HardwareConfig
from repro.hardware.fusion import FusionDevice


@dataclass
class ResourceStateLayer:
    """One RSG cycle's worth of resource states, arranged on a grid."""

    index: int
    size: int
    spec: ResourceStateSpec

    def build_graph(self) -> tuple[GraphState, dict[tuple[int, int], ResourceStateInstance]]:
        """Materialize all stars of the layer into one graph state.

        Node ids are ``((layer, row, col), k)`` with ``k = 0`` the root.
        Only practical for small layers — a 240x240 layer with 7-qubit stars
        is 400k qubits.
        """
        graph = GraphState()
        stars: dict[tuple[int, int], ResourceStateInstance] = {}
        for row in range(self.size):
            for col in range(self.size):
                tag = (self.index, row, col)
                stars[(row, col)] = emit_star(graph, self.spec, tag)
        return graph, stars


@dataclass
class MergeResult:
    """Per-site outcome of merging several RSLs into one layer (Fig. 7(c))."""

    alive: np.ndarray  # bool (N, N): site has a usable root after merging
    degrees: np.ndarray  # int (N, N): leaf budget remaining per site
    merge_fusions: int  # root-leaf fusions attempted (incl. retries)


class RSGArray:
    """The generator array: emits layers and performs the per-site merging."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self._next_index = 0

    def emit_layer(self) -> ResourceStateLayer:
        """Emit the next RSL in sequence."""
        layer = ResourceStateLayer(
            index=self._next_index,
            size=self.config.rsl_size,
            spec=self.config.resource_state,
        )
        self._next_index += 1
        return layer

    def merge_layers(self, device: FusionDevice) -> MergeResult:
        """Merge ``merged_rsls_per_layer`` RSLs into one high-degree layer.

        Each site attempts ``m - 1`` root-leaf fusions to chain ``m`` stars
        into one ``site_degree``-degree star.  A failed merge burns one leaf
        on each side (the photons are destroyed; the LC cleanup of Fig. 8 is
        tracked by the ledger elsewhere) and is retried while the joining
        star still has spare leaves — the collective retry of Section 4.3.

        A site stays alive if every chain join eventually succeeded; its
        remaining ``degrees`` is the leaf budget left for lattice bonds.

        Each merge's retry rounds run on the shrinking vector of pending
        sites (flat row-major indices) with per-site ``degree`` budgets; a
        site leaves it when its join succeeds or its budget runs out, and
        only then is written back.  The joiner's budget is one scalar: in
        retry round ``r`` every pending site has burnt ``r`` of its
        joiner's leaves, so it is ``star_degree - r`` for all of them, and
        the sites still pending when it reaches 0 die.  Attempts are drawn
        in row-major order of the pending sites, round by round.
        """
        config = self.config
        n = config.rsl_size
        star_degree = config.resource_state.max_degree
        merges = config.merged_rsls_per_layer - 1

        alive = np.ones(n * n, dtype=bool)
        degrees = np.full(n * n, star_degree, dtype=np.int64)
        merge_fusions = 0
        for _ in range(merges):
            # Budget for each join: a failed root-leaf fusion costs one leaf
            # of the accumulated star and one of the joiner; retries continue
            # while both sides keep >= 1 leaf to offer (collective retry,
            # Section 4.3).  On success the joiner's remaining leaves attach
            # to the accumulated root: degree -> degree - 1 + joiner_leaves.
            sites = np.flatnonzero(alive)
            degree = degrees[sites]
            for joiner in range(star_degree, 0, -1):
                attemptable = degree >= 1
                if not attemptable.all():
                    exhausted = ~attemptable
                    alive[sites[exhausted]] = False
                    degrees[sites[exhausted]] = degree[exhausted]
                    sites = sites[attemptable]
                    degree = degree[attemptable]
                if not sites.shape[0]:
                    break
                outcomes = device.attempt_batch(sites.shape[0], "root-leaf")
                merge_fusions += sites.shape[0]
                degrees[sites[outcomes]] = degree[outcomes] + (joiner - 1)
                failed = ~outcomes
                sites = sites[failed]
                degree = degree[failed] - 1
            # The joiner has no leaf left: the still-pending sites die.
            alive[sites] = False
            degrees[sites] = degree
        return MergeResult(
            alive=alive.reshape(n, n),
            degrees=degrees.reshape(n, n),
            merge_fusions=merge_fusions,
        )
