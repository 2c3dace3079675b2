"""Tests for the MobiCeal core policies: config, dummy writes, GC."""

import pytest

from repro.blockdev import RAMBlockDevice, SimClock
from repro.core import (
    DummyWritePolicy,
    MobiCealConfig,
    collect_dummy_space,
    draw_reclaim_fraction,
)
from repro.crypto import Rng
from repro.dm.thin import ThinPool
from repro.errors import ConfigError
from repro.util.stats import shannon_entropy


class TestConfig:
    def test_default_is_valid(self):
        MobiCealConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_volumes": 1},
            {"dummy_trigger_x": 0},
            {"dummy_rate": 0},
            {"dummy_rate": -1},
            {"stored_rand_refresh_s": 0},
            {"allocation": "firstfit"},
            {"metadata_fraction": 0.5},
            {"metadata_fraction": 0.0001},
            {"gc_shape": 0},
            {"overcommit": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MobiCealConfig(**kwargs).validate()

    def test_frozen(self):
        with pytest.raises(Exception):
            MobiCealConfig().num_volumes = 5


def make_policy(config=None, seed=0, clock=None, noise_cost=0.0):
    clock = clock if clock is not None else SimClock()
    config = config if config is not None else MobiCealConfig()
    return (
        DummyWritePolicy(
            config, Rng(seed), clock, noise_byte_cost_s=noise_cost
        ),
        clock,
    )


class TestDummyWritePolicy:
    def test_trigger_probability_under_half(self):
        """P(fire) must always be < 50% (rand uniform in [1, 2x])."""
        policy, _ = make_policy(seed=1)
        fired = sum(policy.should_fire() for _ in range(4000))
        assert fired / 4000 < 0.55

    def test_trigger_probability_depends_on_stored_rand(self):
        """Within one period p is fixed at (stored_rand mod x) / 2x."""
        policy, _ = make_policy(seed=3)
        x = policy.config.dummy_trigger_x
        expected = (policy.stored_rand % x) / (2 * x)
        fired = sum(policy.should_fire() for _ in range(6000))
        assert fired / 6000 == pytest.approx(expected, abs=0.03)

    def test_burst_size_mean_is_one_over_lambda(self):
        """The unbiased rounding keeps E[m] = 1/lambda exactly."""
        for rate in (0.5, 1.0, 2.0):
            policy, _ = make_policy(
                MobiCealConfig(dummy_rate=rate), seed=int(rate * 10)
            )
            sizes = [policy.burst_size() for _ in range(8000)]
            assert sum(sizes) / len(sizes) == pytest.approx(1 / rate, rel=0.08)

    def test_burst_size_high_variance(self):
        policy, _ = make_policy(seed=5)
        sizes = [policy.burst_size() for _ in range(2000)]
        assert max(sizes) >= 5  # exponential tail
        assert min(sizes) == 0

    def test_stored_rand_refreshes_on_schedule(self):
        config = MobiCealConfig(stored_rand_refresh_s=100.0)
        policy, clock = make_policy(config, seed=7)
        first = policy.stored_rand
        policy.should_fire()
        assert policy.stored_rand == first  # not yet
        clock.advance(101.0, "workload.idle")
        policy.should_fire()
        assert policy.stored_rand != first

    def test_target_volume_range(self):
        config = MobiCealConfig(num_volumes=8)
        policy, clock = make_policy(config, seed=9)
        config2 = MobiCealConfig(num_volumes=8, stored_rand_refresh_s=1.0)
        policy, clock = make_policy(config2, seed=9)
        targets = set()
        for _ in range(60):
            clock.advance(2.0, "workload.idle")
            policy.should_fire()
            targets.add(policy.target_volume())
        assert targets <= set(range(2, 9))
        assert len(targets) > 2  # scatters over the dummy volumes

    def test_noise_is_random_and_costed(self):
        policy, clock = make_policy(seed=11, noise_cost=1e-9)
        noise = policy.make_noise(4096)
        assert shannon_entropy(noise) > 7.2
        assert clock.now == pytest.approx(4096e-9)

    def test_on_provision_writes_bursts(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(256)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        config = MobiCealConfig(num_volumes=4)
        policy, _ = make_policy(config, seed=13)
        pool.set_dummy_write_hook(policy.on_provision)
        for vid in range(1, 5):
            pool.create_thin(vid, 256)
        thin = pool.get_thin(1)
        for i in range(100):
            thin.write_block(i, bytes([i]) * 4096)
        assert policy.stats.decisions == 100
        assert policy.stats.fired >= 1
        assert policy.stats.blocks_written == pool.stats.dummy_blocks
        # dummy blocks live in volumes 2..4 only
        for vid in (2, 3, 4):
            assert pool.volume_record(vid).provisioned_blocks >= 0
        total_dummy = sum(
            pool.volume_record(v).provisioned_blocks for v in (2, 3, 4)
        )
        assert total_dummy == policy.stats.blocks_written

    def test_disabled_dummy_writes(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(128)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        config = MobiCealConfig(num_volumes=4, dummy_writes_enabled=False)
        policy, _ = make_policy(config, seed=13)
        pool.set_dummy_write_hook(policy.on_provision)
        for vid in range(1, 5):
            pool.create_thin(vid, 128)
        thin = pool.get_thin(1)
        for i in range(50):
            thin.write_block(i, bytes([i]) * 4096)
        assert policy.stats.blocks_written == 0

    def test_pool_exhaustion_stops_bursts_gracefully(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(16)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        config = MobiCealConfig(num_volumes=3)
        policy, _ = make_policy(config, seed=17)
        pool.set_dummy_write_hook(policy.on_provision)
        for vid in range(1, 4):
            pool.create_thin(vid, 16)
        thin = pool.get_thin(1)
        written = 0
        from repro.errors import PoolExhaustedError

        try:
            for i in range(16):
                thin.write_block(i, bytes([i]) * 4096)
                written += 1
        except PoolExhaustedError:
            pass
        assert written > 0  # real writes made progress before exhaustion

    def test_trng_source_used_when_available(self):
        from repro.crypto import FlashNoiseTRNG

        clock = SimClock()
        trng = FlashNoiseTRNG(Rng(0))
        policy = DummyWritePolicy(
            MobiCealConfig(), Rng(0), clock, trng=trng
        )
        assert policy.stored_rand >= 0


class TestGarbageCollection:
    def make_pool_with_dummies(self, seed=0):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(512)
        pool = ThinPool.format(md, dd, rng=Rng(seed))
        for vid in (1, 2, 3):
            pool.create_thin(vid, 512)
        rng = Rng(seed + 1)
        for vid in (2, 3):
            for _ in range(50):
                pool.append_noise(vid, rng.random_bytes(4096), rng)
        return pool

    def test_reclaim_fraction_distribution(self):
        rng = Rng(0)
        fractions = [draw_reclaim_fraction(rng, 5.0) for _ in range(3000)]
        mean = sum(fractions) / len(fractions)
        assert mean == pytest.approx(5 / 6, abs=0.03)  # Beta(5,1) mean
        assert all(0 < f <= 1 for f in fractions)
        # never exactly reclaims everything in expectation terms
        assert sum(1 for f in fractions if f > 0.99) < len(fractions) * 0.2

    def test_reclaim_fraction_shape_validation(self):
        with pytest.raises(ValueError):
            draw_reclaim_fraction(Rng(0), 0)

    def test_gc_reclaims_partially(self):
        pool = self.make_pool_with_dummies()
        before = pool.free_data_blocks
        result = collect_dummy_space(pool, [2, 3], Rng(5))
        assert result.blocks_examined == 100
        assert 0 < result.blocks_reclaimed <= 100
        assert pool.free_data_blocks == before + result.blocks_reclaimed

    def test_gc_never_touches_other_volumes(self):
        pool = self.make_pool_with_dummies()
        thin = pool.get_thin(1)
        for i in range(20):
            thin.write_block(i, bytes([i]) * 4096)
        collect_dummy_space(pool, [2, 3], Rng(6))
        for i in range(20):
            assert thin.read_block(i) == bytes([i]) * 4096

    def test_gc_keeps_some_dummies_with_high_probability(self):
        """Reclaiming everything would deanonymize the hidden data."""
        survivors = 0
        for seed in range(20):
            pool = self.make_pool_with_dummies(seed)
            collect_dummy_space(pool, [2, 3], Rng(seed + 100))
            remaining = sum(
                pool.volume_record(v).provisioned_blocks for v in (2, 3)
            )
            if remaining > 0:
                survivors += 1
        assert survivors >= 15
