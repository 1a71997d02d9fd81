"""Load-generator key distributions and argument checks (no sockets)."""

import asyncio
import math
import random

import pytest

from repro.live import ClusterConfig, ZipfSampler, make_key_sampler, run_open_loop


class TestZipfSampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, s=0.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, s=-1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, s=math.nan)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(200, s=1.1)
        total = sum(sampler.probability(r) for r in range(200))
        assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_deterministic_under_seed(self):
        a = [ZipfSampler(64, s=1.3).sample(random.Random(9)) for _ in range(50)]
        b = [ZipfSampler(64, s=1.3).sample(random.Random(9)) for _ in range(50)]
        assert a == b

    def test_samples_stay_in_range(self):
        sampler = ZipfSampler(32, s=2.0)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(2000)]
        assert min(draws) >= 0 and max(draws) < 32

    def test_empirical_distribution_matches_theory(self):
        # 30k draws over 100 ranks: every rank with non-trivial mass must
        # land within a few standard errors of its exact probability.
        n, s, draws = 100, 1.1, 30_000
        sampler = ZipfSampler(n, s)
        rng = random.Random(1234)
        counts = [0] * n
        for _ in range(draws):
            counts[sampler.sample(rng)] += 1
        for rank in range(n):
            p = sampler.probability(rank)
            if p < 1e-3:
                continue
            se = math.sqrt(p * (1 - p) / draws)
            observed = counts[rank] / draws
            assert abs(observed - p) < 5 * se, (rank, observed, p)

    def test_skew_orders_the_head(self):
        # Rank 0 is drawn more often than rank 9, which beats rank 49;
        # higher s sharpens the head.
        rng = random.Random(7)
        mild, steep = ZipfSampler(64, s=1.01), ZipfSampler(64, s=1.8)
        mild_counts, steep_counts = [0] * 64, [0] * 64
        for _ in range(20_000):
            mild_counts[mild.sample(rng)] += 1
            steep_counts[steep.sample(rng)] += 1
        assert mild_counts[0] > mild_counts[9] > mild_counts[49]
        assert steep_counts[0] > mild_counts[0]


class TestMakeKeySampler:
    def test_uniform_covers_the_keyspace(self):
        sample = make_key_sampler("uniform", 8)
        rng = random.Random(3)
        seen = {sample(rng) for _ in range(500)}
        assert seen == {f"k{i}" for i in range(8)}

    def test_zipf_prefers_low_ranks(self):
        sample = make_key_sampler("zipf", 1000, zipf_s=1.5)
        rng = random.Random(3)
        draws = [sample(rng) for _ in range(2000)]
        assert all(d.startswith("k") for d in draws)
        head = sum(1 for d in draws if int(d[1:]) < 10)
        assert head > len(draws) * 0.5  # the head dominates under skew

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="unknown key distribution"):
            make_key_sampler("pareto", 10)

    def test_empty_keyspace_rejected(self):
        for dist in ("uniform", "zipf"):
            with pytest.raises(ValueError, match="key_space"):
                make_key_sampler(dist, 0)


class TestOpenLoopArguments:
    """Bad numbers are refused before any connection is opened."""

    @pytest.mark.parametrize(
        "rate, duration",
        [(0.0, 1.0), (-5.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
         (10.0, 0.0), (10.0, math.nan), (10.0, math.inf)],
    )
    def test_rate_and_duration_must_be_finite_and_positive(self, rate, duration):
        cluster = ClusterConfig.localhost(3)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            asyncio.run(
                run_open_loop(cluster, rate=rate, duration=duration, shards=1)
            )

    def test_read_ratio_outside_unit_interval_rejected(self):
        cluster = ClusterConfig.localhost(3)
        with pytest.raises(ValueError, match="read_ratio"):
            asyncio.run(run_open_loop(cluster, read_ratio=math.nan, shards=1))
