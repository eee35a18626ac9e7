"""Tests for the hardware model: config, fusion device, RSGs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import merge_layers_masks

from repro.errors import HardwareError
from repro.graphstate import ResourceStateSpec
from repro.hardware import (
    FusionDevice,
    FusionTally,
    HardwareConfig,
    RSGArray,
)


class TestHardwareConfig:
    def test_defaults(self):
        config = HardwareConfig()
        assert config.rsl_size == 48
        assert config.fusion_success_rate == 0.75
        assert config.photon_lifetime == 5000

    def test_validation(self):
        with pytest.raises(HardwareError):
            HardwareConfig(rsl_size=1)
        with pytest.raises(HardwareError):
            HardwareConfig(fusion_success_rate=0.0)
        with pytest.raises(HardwareError):
            HardwareConfig(photon_loss_rate=1.0)
        with pytest.raises(HardwareError):
            HardwareConfig(photon_lifetime=0)

    def test_effective_rate_with_loss(self):
        config = HardwareConfig(fusion_success_rate=0.8, photon_loss_rate=0.1)
        assert config.effective_fusion_rate == pytest.approx(0.8 * 0.81)

    def test_merging_plan_4_qubit_stars(self):
        config = HardwareConfig(resource_state=ResourceStateSpec(4))
        assert config.merged_rsls_per_layer == 3
        assert config.site_degree == 7
        assert config.redundant_degree == 1

    def test_merging_plan_7_qubit_stars(self):
        config = HardwareConfig(resource_state=ResourceStateSpec(7))
        assert config.merged_rsls_per_layer == 1
        assert config.site_degree == 6
        assert config.redundant_degree == 0

    def test_sites_per_rsl(self):
        assert HardwareConfig(rsl_size=10).sites_per_rsl == 100


class TestFusionDevice:
    def test_rate_validation(self):
        with pytest.raises(HardwareError):
            FusionDevice(0.0)

    def test_attempt_counts(self):
        device = FusionDevice(1.0, rng=0)
        assert device.attempt() is True
        assert device.tally.attempted == 1
        assert device.tally.succeeded == 1

    def test_batch_shape_and_tally(self):
        device = FusionDevice(0.5, rng=0)
        outcomes = device.attempt_batch(100, "temporal")
        assert outcomes.shape == (100,)
        assert device.tally.by_kind["temporal"] == 100

    def test_grid_sampling(self):
        device = FusionDevice(0.5, rng=0)
        outcomes = device.attempt_grid((8, 9), "leaf-leaf")
        assert outcomes.shape == (8, 9)
        assert device.tally.attempted == 72

    def test_negative_batch_rejected(self):
        with pytest.raises(HardwareError):
            FusionDevice(0.5).attempt_batch(-1)

    def test_empirical_rate(self):
        device = FusionDevice(0.75, rng=3)
        device.attempt_batch(4000)
        assert abs(device.tally.observed_rate - 0.75) < 0.03

    def test_tally_merge(self):
        a = FusionTally()
        a.record("x", 10, 7)
        b = FusionTally()
        b.record("x", 5, 5)
        b.record("y", 1, 0)
        a.merge(b)
        assert a.attempted == 16
        assert a.by_kind == {"x": 15, "y": 1}
        assert a.failed == 4

    def test_empty_tally_rate_is_nan(self):
        assert FusionTally().observed_rate != FusionTally().observed_rate


class TestRSGArray:
    def test_emit_layers_sequential(self):
        array = RSGArray(HardwareConfig(rsl_size=4))
        assert array.emit_layer().index == 0
        assert array.emit_layer().index == 1

    def test_layer_graph_build(self):
        config = HardwareConfig(rsl_size=2, resource_state=ResourceStateSpec(4))
        layer = RSGArray(config).emit_layer()
        graph, stars = layer.build_graph()
        assert len(stars) == 4
        assert graph.node_count == 16  # 4 sites x 4 qubits

    def test_merge_no_op_for_7_qubit_stars(self):
        config = HardwareConfig(rsl_size=4, resource_state=ResourceStateSpec(7))
        device = FusionDevice(0.75, rng=0)
        result = RSGArray(config).merge_layers(device)
        assert result.merge_fusions == 0
        assert result.alive.all()
        assert (result.degrees == 6).all()

    def test_merge_perfect_fusions(self):
        config = HardwareConfig(rsl_size=3, resource_state=ResourceStateSpec(4))
        device = FusionDevice(1.0, rng=0)
        result = RSGArray(config).merge_layers(device)
        assert result.alive.all()
        # 3 -> 3-1+3=5 -> 5-1+3=7, with exactly 2 fusions per site.
        assert (result.degrees == 7).all()
        assert result.merge_fusions == 2 * 9

    def test_merge_with_failures_kills_some_sites(self):
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(4))
        device = FusionDevice(0.5, rng=1)
        result = RSGArray(config).merge_layers(device)
        assert not result.alive.all()
        assert result.alive.any()
        assert (result.degrees[result.alive] >= 1).all()


@given(
    rsl_size=st.integers(2, 40),
    star_size=st.integers(3, 7),
    rate=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_merge_layers_matches_full_mask_oracle(rsl_size, star_size, rate, seed):
    """The pending-vector merge loop must reproduce the full-mask loop: the
    same sites, leaf budgets and fusion count, the same tally, and the
    device RNG left at the same point of its stream.  Star sizes 3-7 span
    four merges down to none."""
    config = HardwareConfig(
        rsl_size=rsl_size, resource_state=ResourceStateSpec(star_size)
    )
    device = FusionDevice(rate, rng=seed)
    reference = FusionDevice(rate, rng=seed)
    result = RSGArray(config).merge_layers(device)
    expected = merge_layers_masks(config, reference)
    assert result.alive.shape == result.degrees.shape == (rsl_size, rsl_size)
    assert result.alive.dtype == expected.alive.dtype
    assert result.degrees.dtype == expected.degrees.dtype
    assert np.array_equal(result.alive, expected.alive)
    assert np.array_equal(result.degrees, expected.degrees)
    assert result.merge_fusions == expected.merge_fusions
    assert device.tally.attempted == reference.tally.attempted
    assert device.tally.succeeded == reference.tally.succeeded
    assert device.tally.by_kind == reference.tally.by_kind
    assert device.rng.random() == reference.rng.random()
