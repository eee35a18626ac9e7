"""Resource state generation: the RSG array's per-site layer merging.

An :class:`RSGArray` emits one ``N x N`` grid of star resource states per
cycle.  The online pass never materializes those stars as a graph state: it
works on the site/bond abstraction of :mod:`repro.online.percolation`, which
this module's merge simulation (:meth:`RSGArray.merge_layers`) feeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.architecture import HardwareConfig
from repro.hardware.fusion import FusionDevice


@dataclass
class MergeResult:
    """Per-site outcome of merging several RSLs into one layer (Fig. 7(c))."""

    alive: np.ndarray  # bool (N, N): site has a usable root after merging
    degrees: np.ndarray  # int (N, N): leaf budget remaining per site
    merge_fusions: int  # root-leaf fusions attempted (incl. retries)


class RSGArray:
    """The generator array: performs the per-site merging of its layers."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config

    def merge_layers(self, device: FusionDevice) -> MergeResult:
        """Merge ``merged_rsls_per_layer`` RSLs into one high-degree layer.

        Each site attempts ``m - 1`` root-leaf fusions to chain ``m`` stars
        into one ``site_degree``-degree star.  A failed merge burns one leaf
        on each side (the photons are destroyed; the LC cleanup of Fig. 8
        is checked on real graph states by the exact-layer oracle,
        ``tests/oracles.py::build_exact_layer``) and is retried while the joining
        star still has spare leaves — the collective retry of Section 4.3.

        A site stays alive if every chain join eventually succeeded; its
        remaining ``degrees`` is the leaf budget left for lattice bonds.

        Each merge's retry rounds carry only the index vector of the sites
        still failing plus a per-site failure count ``f`` (the sites that
        fail round ``r`` get ``f = r + 1``).  A failed join burns one leaf
        of the site's own star and one of its joiner's, so a site that wins
        after ``f`` failures has degree ``start - f + (star - f - 1)``.  A
        site dies once its own leaves (``start``) or its joiner's (``star``)
        run out, i.e. after ``min(start, star)`` failures, and keeps
        ``start - f``; a site already dead is never pending, so it keeps
        ``f = 0`` and its degree.  ``alive`` and ``degrees`` are written
        once per merge.  Attempts are drawn from ``device.rng`` in row-major
        order of the pending sites, round by round; a round keeps the sites
        whose draw failed, and its wins are the sites it drops.  The tally
        gets one ``root-leaf`` record per call, when anything was attempted.
        """
        config = self.config
        n = config.rsl_size
        star = config.resource_state.max_degree
        merges = config.merged_rsls_per_layer - 1
        rng = device.rng
        rate = device.success_rate

        alive = np.ones(n * n, dtype=bool)
        degrees = np.full(n * n, star, dtype=np.int64)
        merge_fusions = wins = 0
        for merge in range(merges):
            if merge:
                pending = alive.nonzero()[0]
                limit = np.minimum(degrees, star)
            else:
                # Every site joins, starting from ``star`` leaves, so none
                # can run out of its own leaves first.
                pending = np.arange(n * n)
                limit = star
            fails = np.zeros(n * n, dtype=np.int64)
            for r in range(star):
                if merge and r:
                    # Alive sites hold >= 1 leaf, so round 0 never drops one.
                    pending = pending[degrees[pending] > r]
                count = pending.shape[0]
                if not count:
                    break
                pending = pending[rng.random(count) >= rate]
                merge_fusions += count
                wins += count - pending.shape[0]
                fails[pending] = r + 1
            joined = (fails < limit) & alive
            degrees = degrees - fails + joined * (star - 1 - fails)
            alive = joined
        if merge_fusions:
            device.tally.record("root-leaf", merge_fusions, wins)
        return MergeResult(
            alive=alive.reshape(n, n),
            degrees=degrees.reshape(n, n),
            merge_fusions=merge_fusions,
        )
