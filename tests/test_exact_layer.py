"""Tests proving the lattice abstraction faithful to real graph states."""

import numpy as np
import pytest
from oracles import MAX_EXACT_SIDE, bond_consistency, build_exact_layer

from repro.errors import HardwareError
from repro.graphstate import ResourceStateSpec
from repro.hardware import FusionDevice, HardwareConfig


def config_for(size: int, stars: int, rate: float = 0.75) -> HardwareConfig:
    return HardwareConfig(
        rsl_size=size,
        resource_state=ResourceStateSpec(stars),
        fusion_success_rate=rate,
    )


class TestExactLayer:
    def test_size_cap(self):
        with pytest.raises(HardwareError):
            build_exact_layer(config_for(MAX_EXACT_SIDE + 1, 7))

    def test_perfect_fusions_form_full_lattice(self):
        config = config_for(4, 7, rate=1.0)
        layer = build_exact_layer(config, FusionDevice(1.0, rng=0))
        assert all(layer.site_alive(c) for c in layer.sites)
        assert all(layer.bonds.values())
        # Every adjacent root pair is edge-connected in the real state.
        for key in layer.bonds:
            a, b = tuple(key)
            assert layer.roots_connected(a, b)

    def test_merged_stars_reach_full_degree(self):
        """Three perfect 4-qubit stars merge to a degree-7 site (Fig. 7(c))."""
        config = config_for(2, 4, rate=1.0)
        layer = build_exact_layer(config, FusionDevice(1.0, rng=0))
        # Degree 7 minus the spatial bonds actually used.
        site = layer.sites[(0, 0)]
        used = sum(
            1
            for key, open_ in layer.bonds.items()
            if open_ and (0, 0) in key
        )
        assert layer.graph.degree(site.root) == 7 - used + used  # = 7
        # (the root keeps degree 7: each successful bond swaps a leaf for a
        # neighbour-root edge)

    @pytest.mark.parametrize("stars", [4, 5, 7])
    def test_heralded_bonds_match_real_connectivity(self, stars):
        """The core soundness claim: bond map == root connectivity, always."""
        for seed in range(5):
            config = config_for(4, stars, rate=0.7)
            layer = build_exact_layer(config, FusionDevice(0.7, rng=seed))
            assert bond_consistency(layer) == 1.0

    def test_failed_merges_record_lc_cleanups(self):
        """At a low rate, Fig. 8 cleanups happen and land in the ledger."""
        config = config_for(6, 4, rate=0.4)
        layer = build_exact_layer(config, FusionDevice(0.4, rng=3))
        cleanups = sum(site.lc_cleanups for site in layer.sites.values())
        assert cleanups > 0
        assert len(layer.ledger) > 0

    def test_dead_sites_have_no_bonds(self):
        config = config_for(6, 4, rate=0.3)
        layer = build_exact_layer(config, FusionDevice(0.3, rng=1))
        dead = [c for c in layer.sites if not layer.site_alive(c)]
        assert dead, "a 0.3 rate should kill some sites"
        for coord in dead:
            for key, open_ in layer.bonds.items():
                if coord in key:
                    assert not open_

    def test_bond_rate_tracks_fusion_rate(self):
        """Empirical open-bond fraction ~ the device rate (7-qubit stars,
        no merging, no retries in the exact builder)."""
        config = config_for(8, 7, rate=0.75)
        opened = 0
        total = 0
        for seed in range(4):
            layer = build_exact_layer(config, FusionDevice(0.75, rng=seed))
            opened += sum(layer.bonds.values())
            total += len(layer.bonds)
        assert abs(opened / total - 0.75) < 0.08

    def test_abstraction_and_exact_agree_statistically(self):
        """The percolation abstraction's cluster structure matches the
        exact layer's root-graph clusters on the same outcomes."""
        from repro.online.percolation import PercolatedLattice

        config = config_for(6, 7, rate=0.8)
        layer = build_exact_layer(config, FusionDevice(0.8, rng=9))
        n = config.rsl_size
        sites = np.array(
            [[layer.site_alive((r, c)) for c in range(n)] for r in range(n)]
        )
        horizontal = np.zeros((n, n - 1), dtype=bool)
        vertical = np.zeros((n - 1, n), dtype=bool)
        for key, open_ in layer.bonds.items():
            a, b = sorted(key)
            if a[0] == b[0]:
                horizontal[a[0], a[1]] = open_
            else:
                vertical[a[0], a[1]] = open_
        abstract = PercolatedLattice(
            sites=sites, horizontal=horizontal, vertical=vertical
        )
        # Abstract cluster fraction equals the real root-graph's component
        # fraction over roots.
        roots = {
            site.root for site in layer.sites.values() if site.root is not None
        }
        components = layer.graph.connected_components()
        best_root_cluster = max(
            (len(component & roots) for component in components), default=0
        )
        assert abstract.largest_cluster_fraction() == pytest.approx(
            best_root_cluster / (n * n)
        )
