"""Semi-static fusion strategy: resource states -> percolated layer (Section 4).

The strategy is *static* in that the fusion pattern is fixed independently of
the program: every site merges ``m`` stars into a high-degree star (root-leaf
fusions, Fig. 7(c)), then leaf-leaf fuses with its four in-layer neighbours
(Fig. 7(a)) while reserving two leaves for temporal bonds.  It is *semi*-
static in that failed connections are collectively retried with whatever
redundant degrees remain (Section 4.3), a batch mechanism with constant
pipeline overhead.

The output is the :class:`~repro.online.percolation.PercolatedLattice` the
renormalization pass consumes, plus exact fusion accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.architecture import HardwareConfig, LATTICE_DEGREE_2D
from repro.hardware.fusion import FusionDevice
from repro.hardware.rsg import RSGArray
from repro.online.percolation import PercolatedLattice

#: Leaves each site reserves for temporal (inter-layer) bonds.
TEMPORAL_RESERVE = 2


@dataclass
class LayerFormation:
    """A formed layer: the percolated lattice plus its resource accounting."""

    lattice: PercolatedLattice
    rsls_used: int
    merge_fusions: int
    spatial_fusions: int
    spatial_retries: int
    #: int (N, N): redundant leaves left after the retry rounds, 0 on dead
    #: sites.  A retry checks its endpoints' budget as it stood before the
    #: round, so two retries can share a site's last leaf and leave -1.
    redundancy: np.ndarray

    @property
    def fusions(self) -> int:
        return self.merge_fusions + self.spatial_fusions

    @property
    def temporal_budget(self) -> np.ndarray:
        """int (N, N): leaves left for temporal bonds, 0 on dead sites.

        The ``TEMPORAL_RESERVE`` plus the unspent retry budget, which stays
        usable temporally.
        """
        return np.where(self.lattice.sites, TEMPORAL_RESERVE + self.redundancy, 0)


def _attempt_bonds_with_retry(
    device: FusionDevice, red_a: np.ndarray, red_b: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """One batch of leaf-leaf bonds plus a collective retry round.

    ``red_a``/``red_b`` are views of the site-indexed redundancy array at
    the two endpoint grids of the bond array.  Failed bonds retry once where
    *both* endpoints still hold a redundant leaf, consuming one from each.
    Both rounds draw from ``device.rng``; the tally gets one ``leaf-leaf``
    record for the pair, its successes counted after the retry round (a
    retried bond's first draw failed, so its final outcome is its retry's).
    Returns (bond outcomes, attempts, retries).
    """
    rng = device.rng
    rate = device.success_rate
    outcomes = rng.random(red_a.shape) < rate
    retry = red_a > 0
    retry &= red_b > 0
    np.greater(retry, outcomes, out=retry)  # and the first attempt failed
    retries = int(np.count_nonzero(retry))
    if retries:
        red_a -= retry
        red_b -= retry
        outcomes[retry] = rng.random(retries) < rate
    attempts = outcomes.size + retries
    device.tally.record("leaf-leaf", attempts, int(np.count_nonzero(outcomes)))
    return outcomes, attempts, retries


def form_layer(config: HardwareConfig, device: FusionDevice) -> LayerFormation:
    """Form one percolated layer from ``merged_rsls_per_layer`` fresh RSLs.

    Dead sites (whose root was lost during merging) contribute no bonds; all
    surviving sites spend four leaves on spatial bonds, reserve
    ``TEMPORAL_RESERVE`` for temporal bonds, and use anything beyond that as
    the collective-retry budget.  Horizontal bonds draw and retry first, so
    vertical retries see the budget they left.
    """
    merge = RSGArray(config).merge_layers(device)

    # Redundancy per site: leaves beyond the 4 spatial + 2 temporal demand.
    redundancy = merge.degrees - (LATTICE_DEGREE_2D + TEMPORAL_RESERVE)
    redundancy *= merge.alive
    np.maximum(redundancy, 0, out=redundancy)

    horizontal, h_attempts, h_retries = _attempt_bonds_with_retry(
        device, redundancy[:, :-1], redundancy[:, 1:]
    )
    vertical, v_attempts, v_retries = _attempt_bonds_with_retry(
        device, redundancy[:-1], redundancy[1:]
    )
    return LayerFormation(
        lattice=PercolatedLattice(
            sites=merge.alive, horizontal=horizontal, vertical=vertical
        ),
        rsls_used=config.merged_rsls_per_layer,
        merge_fusions=merge.merge_fusions,
        spatial_fusions=h_attempts + v_attempts,
        spatial_retries=h_retries + v_retries,
        redundancy=redundancy,
    )


def effective_bond_probability(config: HardwareConfig) -> float:
    """Upper bound on the bond success probability after the retry round.

    With success rate ``p``, a bond that retries opens with probability
    ``1 - (1 - p)^2``; that is the rate only if *every* failed bond retries.
    :func:`form_layer` retries a bond only while both endpoints still hold a
    redundant leaf, and one site's leaves are shared by its four bonds, so
    the sampled rate stays below the bound: with one redundant leaf per site
    (4-qubit stars, 200 layers at RSL 48) the open-bond rate between alive
    sites is 0.800 at p 0.75 (bound 0.9375) and 0.951 at p 0.9 (bound 0.99).
    With no redundancy the bound is ``p`` itself.  Tests use it to bound the
    sampled grids from above.
    """
    p = config.effective_fusion_rate
    if config.redundant_degree >= 1:
        return 1.0 - (1.0 - p) ** 2
    return p
