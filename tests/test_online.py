"""Tests for the online passes: percolation, renormalization, modularity,
fusion strategy, and the time-like reshaper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import check_reshape_metrics, establish_connections_loop, form_layer_reference

from repro.errors import HardwareError, RenormalizationError
from repro.graphstate import ResourceStateSpec
from repro.hardware import FusionDevice, HardwareConfig
from repro.online import (
    LayerDemand,
    OnlineReshaper,
    effective_bond_probability,
    form_layer,
    modular_renormalize,
    renormalize,
    sample_lattice,
    spanning_probability,
)
from repro.online.modular import ModularLayout
from repro.online.timelike import ReshapeMetrics


class TestPercolatedLattice:
    def test_sampling_shapes(self):
        lattice = sample_lattice(5, 0.5, rng=0)
        assert lattice.size == 5
        assert lattice.horizontal.shape == (5, 4)
        assert lattice.vertical.shape == (4, 5)

    def test_probability_bounds(self):
        with pytest.raises(RenormalizationError):
            sample_lattice(5, 1.5)
        with pytest.raises(RenormalizationError):
            sample_lattice(0, 0.5)

    def test_full_probability_fully_connected(self):
        lattice = sample_lattice(4, 1.0, rng=0)
        assert lattice.largest_cluster_fraction() == 1.0

    def test_zero_probability_isolated(self):
        lattice = sample_lattice(4, 0.0, rng=0)
        assert lattice.largest_cluster_fraction() == pytest.approx(1 / 16)

    def test_dead_sites_break_bonds(self):
        alive = np.ones((3, 3), dtype=bool)
        alive[1, 1] = False
        lattice = sample_lattice(3, 1.0, rng=0, site_alive=alive)
        assert not lattice.has_bond((1, 0), (1, 1))
        assert list(lattice.neighbors((1, 1))) == []

    def test_non_adjacent_bond_query_raises(self):
        lattice = sample_lattice(3, 1.0, rng=0)
        with pytest.raises(RenormalizationError):
            lattice.has_bond((0, 0), (2, 2))

    def test_remove_site(self):
        lattice = sample_lattice(3, 1.0, rng=0)
        lattice.remove_site((0, 0))
        assert not lattice.sites[0, 0]

    def test_copy_independent(self):
        lattice = sample_lattice(3, 1.0, rng=0)
        clone = lattice.copy()
        clone.remove_site((0, 0))
        assert lattice.sites[0, 0]

    @given(st.integers(2, 8), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_cluster_fraction_in_unit_interval(self, size, probability):
        lattice = sample_lattice(size, probability, rng=1)
        assert 0.0 <= lattice.largest_cluster_fraction() <= 1.0

    def test_percolation_threshold_bracketing(self):
        """Spanning probability is small below p=1/2 and large above [40]."""
        low = spanning_probability(16, 0.30, trials=40, rng=2)
        high = spanning_probability(16, 0.70, trials=40, rng=2)
        assert low < 0.25
        assert high > 0.75


class TestRenormalize:
    def test_perfect_lattice_always_succeeds(self):
        lattice = sample_lattice(12, 1.0, rng=0)
        result = renormalize(lattice, 3)
        assert result.success
        assert result.lattice_size == 3
        assert len(result.node_sites) == 9
        assert len(result.vertical_paths) == 3
        assert len(result.horizontal_paths) == 3

    def test_dead_lattice_fails(self):
        lattice = sample_lattice(12, 0.0, rng=0)
        result = renormalize(lattice, 3)
        assert not result.success

    def test_target_validation(self):
        lattice = sample_lattice(6, 1.0, rng=0)
        with pytest.raises(RenormalizationError):
            renormalize(lattice, 0)
        with pytest.raises(RenormalizationError):
            renormalize(lattice, 7)

    def test_paths_span_the_lattice(self):
        lattice = sample_lattice(16, 0.9, rng=1)
        result = renormalize(lattice, 2)
        assert result.success
        for path in result.vertical_paths:
            rows = {coord[0] for coord in path}
            assert 0 in rows and 15 in rows
        for path in result.horizontal_paths:
            cols = {coord[1] for coord in path}
            assert 0 in cols and 15 in cols

    def test_paths_use_open_bonds_only(self):
        lattice = sample_lattice(16, 0.85, rng=3)
        snapshot = lattice.copy()
        result = renormalize(lattice, 2)
        if not result.success:
            pytest.skip("unlucky sample")
        for path in result.vertical_paths + result.horizontal_paths:
            for a, b in zip(path, path[1:]):
                assert snapshot.has_bond(a, b)

    def test_intersections_lie_on_both_paths(self):
        lattice = sample_lattice(16, 0.9, rng=5)
        result = renormalize(lattice, 2)
        if not result.success:
            pytest.skip("unlucky sample")
        for (v_index, h_index), coord in result.node_sites.items():
            assert coord in result.vertical_paths[v_index]
            assert coord in result.horizontal_paths[h_index]

    def test_success_monotone_in_node_size(self):
        """Coarser nodes succeed at least as often (statistically)."""
        rng = np.random.default_rng(7)
        fine = sum(
            renormalize(sample_lattice(24, 0.72, rng), 6).success for _ in range(20)
        )
        coarse = sum(
            renormalize(sample_lattice(24, 0.72, rng), 2).success for _ in range(20)
        )
        assert coarse >= fine

    def test_work_budget_truncates(self):
        lattice = sample_lattice(24, 0.9, rng=0)
        result = renormalize(lattice, 4, work_budget=10)
        assert not result.success
        assert result.visited_sites >= 10


class TestModular:
    def test_layout_fit(self):
        layout = ModularLayout.fit(96, 4, 7.0)
        assert layout.modules_per_side == 2
        assert layout.num_modules == 4
        assert 2 * layout.module_size + layout.interval <= 96
        assert layout.module_size / max(1, layout.interval) == pytest.approx(
            7.0, rel=0.5
        )

    def test_layout_rejects_non_square(self):
        with pytest.raises(RenormalizationError):
            ModularLayout.fit(96, 5, 7.0)

    def test_layout_rejects_bad_ratio(self):
        with pytest.raises(RenormalizationError):
            ModularLayout.fit(96, 4, 0.0)

    def test_single_module_layout(self):
        layout = ModularLayout.fit(48, 1, 7.0)
        assert layout.module_size == 48
        assert layout.interval == 0

    def test_perfect_lattice_modular(self):
        lattice = sample_lattice(48, 1.0, rng=0)
        result = modular_renormalize(lattice, node_size=6, num_modules=4, mi_ratio=7.0)
        assert result.success
        assert result.surviving_rows == result.surviving_cols
        assert result.node_count == result.surviving_rows**2

    def test_modular_wall_less_than_total(self):
        lattice = sample_lattice(48, 0.8, rng=1)
        result = modular_renormalize(lattice, node_size=8, num_modules=4, mi_ratio=7.0)
        assert result.wall_visited_sites <= result.total_visited_sites

    def test_modular_yield_below_non_modular(self):
        """Interval overhead: the modular lattice is smaller on average."""
        rng = np.random.default_rng(4)
        modular_nodes = 0.0
        full_nodes = 0.0
        for _ in range(5):
            lattice = sample_lattice(60, 0.85, rng)
            full = renormalize(lattice.copy(), 60 // 10)
            full_nodes += full.lattice_size**2
            modular = modular_renormalize(lattice, 10, 4, 7.0)
            modular_nodes += modular.node_count
        assert modular_nodes < full_nodes


class TestFusionStrategy:
    def test_form_layer_accounting(self):
        config = HardwareConfig(rsl_size=8, resource_state=ResourceStateSpec(7))
        device = FusionDevice(1.0, rng=0)
        formation = form_layer(config, device)
        assert formation.rsls_used == 1
        assert formation.merge_fusions == 0
        assert formation.spatial_fusions == 2 * 8 * 7
        assert formation.lattice.largest_cluster_fraction() == 1.0
        # 7-qubit stars: 6 degrees, 4 spatial + 2 temporal, no redundancy.
        assert (formation.temporal_budget == 2).all()

    def test_form_layer_with_merging(self):
        config = HardwareConfig(rsl_size=8, resource_state=ResourceStateSpec(4))
        device = FusionDevice(1.0, rng=0)
        formation = form_layer(config, device)
        assert formation.rsls_used == 3
        assert formation.merge_fusions == 2 * 64
        # Degree 7 = 4 spatial + 2 temporal + 1 redundant.
        assert (formation.temporal_budget == 3).all()

    def test_retries_consume_redundancy(self):
        config = HardwareConfig(rsl_size=16, resource_state=ResourceStateSpec(4))
        device = FusionDevice(0.5, rng=2)
        formation = form_layer(config, device)
        assert formation.spatial_retries > 0
        assert formation.spatial_fusions > 2 * 16 * 15  # retries add attempts

    def test_effective_bond_probability(self):
        with_redundancy = HardwareConfig(resource_state=ResourceStateSpec(4))
        assert effective_bond_probability(with_redundancy) == pytest.approx(
            1 - 0.25**2
        )
        without = HardwareConfig(resource_state=ResourceStateSpec(7))
        assert effective_bond_probability(without) == pytest.approx(0.75)

    def test_retry_improves_connectivity(self):
        """Empirical bond rate with redundancy beats the raw fusion rate."""
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(5))
        device = FusionDevice(0.75, rng=5)
        formation = form_layer(config, device)
        open_bonds = formation.lattice.horizontal.sum() + formation.lattice.vertical.sum()
        total_bonds = 2 * 24 * 23
        # Seeds 0-39 average 0.823: one redundant leaf per site is shared
        # by four bonds, so the all-retry bound is out of reach.
        assert 0.8 < open_bonds / total_bonds < effective_bond_probability(config)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2 (leaf double-spend): both retries of a middle "
        "site's two failed bonds are granted from its one redundant leaf; "
        "28 of 2,304 sites end at -1 here",
    )
    def test_retries_never_overspend_a_leaf(self):
        """A leaf is a qubit: a site cannot spend more redundant leaves on
        retries than it holds, so no site's redundancy ends below 0."""
        config = HardwareConfig(
            rsl_size=48, resource_state=ResourceStateSpec(4), fusion_success_rate=0.75
        )
        formation = form_layer(config, FusionDevice(config.effective_fusion_rate, rng=0))
        assert formation.redundancy.min() >= 0


@given(
    rsl_size=st.integers(2, 40),
    star_size=st.integers(3, 7),
    rate=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_form_layer_matches_reference(rsl_size, star_size, rate, seed):
    """The lean layer formation must reproduce the masked one: the same
    sites, bonds and accounting, the same temporal budget, the same tally,
    and the device RNG left at the same point of its stream."""
    config = HardwareConfig(
        rsl_size=rsl_size, resource_state=ResourceStateSpec(star_size)
    )
    device = FusionDevice(rate, rng=seed)
    reference = FusionDevice(rate, rng=seed)
    formation = form_layer(config, device)
    expected = form_layer_reference(config, reference)
    for grid in ("sites", "horizontal", "vertical"):
        got, want = getattr(formation.lattice, grid), getattr(expected.lattice, grid)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert formation.rsls_used == expected.rsls_used
    assert formation.merge_fusions == expected.merge_fusions
    assert formation.spatial_fusions == expected.spatial_fusions
    assert formation.spatial_retries == expected.spatial_retries
    assert formation.temporal_budget.dtype == expected.temporal_budget.dtype
    assert np.array_equal(formation.temporal_budget, expected.temporal_budget)
    assert device.tally.attempted == reference.tally.attempted
    assert device.tally.succeeded == reference.tally.succeeded
    assert device.tally.by_kind == reference.tally.by_kind
    assert device.rng.random() == reference.rng.random()


class TestOnlineReshaper:
    def test_validation(self):
        config = HardwareConfig(rsl_size=8)
        with pytest.raises(HardwareError):
            OnlineReshaper(config, virtual_size=0)
        with pytest.raises(HardwareError):
            OnlineReshaper(config, virtual_size=9)

    def test_produces_requested_layers(self):
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(7))
        reshaper = OnlineReshaper(config, virtual_size=2, rng=0)
        metrics = reshaper.run([LayerDemand(1, 0)] * 4)
        assert metrics.logical_layers == 4
        assert metrics.rsl_consumed >= 4
        assert metrics.fusions > 0
        assert metrics.rsl_consumed == metrics.logical_layers + metrics.routing_layers

    def test_pl_ratio_at_least_merge_factor(self):
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(4))
        reshaper = OnlineReshaper(config, virtual_size=2, rng=1)
        metrics = reshaper.run([LayerDemand(1, 1)] * 3)
        assert metrics.pl_ratio >= config.merged_rsls_per_layer

    def test_demand_too_large_raises(self):
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(7))
        reshaper = OnlineReshaper(config, virtual_size=2, rng=0)
        with pytest.raises(HardwareError):
            reshaper.run([LayerDemand(adjacent_connections=5)])

    def test_max_rsl_cap(self):
        config = HardwareConfig(
            rsl_size=8, resource_state=ResourceStateSpec(7), fusion_success_rate=0.4
        )
        reshaper = OnlineReshaper(config, virtual_size=4, rng=0, max_rsl=20)
        with pytest.raises(HardwareError):
            reshaper.run([LayerDemand(0, 0)])

    def test_max_rsl_error_names_the_layer(self):
        """The cap's error says which logical layer hit it, out of how many,
        after how many RSLs: with the cap at the RSL count that completed
        layer 1, layer 2 is the one that cannot start."""
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(7))
        demands = [LayerDemand(1, 0)] * 4
        marks = OnlineReshaper(config, virtual_size=2, rng=0).run(demands)
        cap = marks.logical_layer_rsl_marks[1]
        reshaper = OnlineReshaper(config, virtual_size=2, rng=0, max_rsl=cap)
        with pytest.raises(
            HardwareError,
            match=rf"exceeded {cap} RSLs at logical layer 2 of 4 \({cap} RSLs consumed\)",
        ):
            reshaper.run(demands)

    def test_empty_demand_list(self):
        config = HardwareConfig(rsl_size=16)
        metrics = OnlineReshaper(config, virtual_size=2, rng=0).run([])
        assert metrics.rsl_consumed == 0
        assert metrics.pl_ratio != metrics.pl_ratio  # NaN


@st.composite
def layer_demands(draw, virtual_size):
    """Demand lists a ``virtual_size`` layer can serve, with cross gaps."""
    demands = []
    for _ in range(draw(st.integers(0, 6))):
        total = draw(st.integers(0, virtual_size * virtual_size))
        cross = draw(st.integers(0, total))
        gaps = tuple(draw(st.integers(0, 3)) for _ in range(cross))
        demands.append(LayerDemand(total - cross, cross, gaps))
    return demands


@given(
    data=st.data(),
    rsl_size=st.integers(6, 12),
    virtual_size=st.integers(1, 2),
    star_size=st.integers(4, 7),
    rate=st.floats(0.8, 1.0),
    lifetime=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_reshape_metrics_certificate(
    data, rsl_size, virtual_size, star_size, rate, lifetime, seed
):
    """Every completed online run passes the ``ReshapeMetrics`` certificate,
    and its fusion count is the device tally's.  A run whose stored photons
    outlive the (small) lifetime raises instead of returning metrics."""
    config = HardwareConfig(
        rsl_size=rsl_size,
        resource_state=ResourceStateSpec(star_size),
        fusion_success_rate=rate,
        photon_lifetime=lifetime,
    )
    demands = data.draw(layer_demands(virtual_size))
    reshaper = OnlineReshaper(config, virtual_size=virtual_size, rng=seed)
    before = reshaper.device.tally.attempted
    try:
        metrics = reshaper.run(demands)
    except HardwareError as error:
        assert "photon lifetime" in str(error)
        return
    check_reshape_metrics(metrics, config)
    assert metrics.logical_layers == len(demands)
    assert metrics.fusions == reshaper.device.tally.attempted - before


@given(
    total=st.integers(0, 9),
    cross=st.integers(0, 9),
    rate=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_connection_batch_matches_per_connection_loop(total, cross, rate, seed):
    """One draw for a layer's connections must equal one draw per
    connection: the verdict, the failure count, the tally (no
    ``"temporal"`` key when nothing was demanded) and the RNG's next draw."""
    cross = min(cross, total)
    demand = LayerDemand(adjacent_connections=total - cross, cross_connections=cross)
    config = HardwareConfig(rsl_size=8, fusion_success_rate=rate)
    batched = OnlineReshaper(config, virtual_size=3, rng=seed)
    looped = OnlineReshaper(config, virtual_size=3, rng=seed)
    batched_metrics, looped_metrics = ReshapeMetrics(), ReshapeMetrics()
    ok = batched._establish_connections(demand, batched_metrics)
    expected = establish_connections_loop(looped, demand, looped_metrics)
    assert ok is expected
    assert batched_metrics.connection_failures == looped_metrics.connection_failures
    tally, reference = batched.device.tally, looped.device.tally
    assert tally.attempted == reference.attempted
    assert tally.succeeded == reference.succeeded
    assert tally.by_kind == reference.by_kind
    if total == 0:
        assert "temporal" not in tally.by_kind
    assert batched.device.rng.random() == looped.device.rng.random()
