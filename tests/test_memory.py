"""Unit and property tests for caches, DRAM and the hierarchy."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    Cache,
    CacheConfig,
    DRAM,
    DRAMConfig,
    HierarchyConfig,
    MemoryHierarchy,
)


def small_cache(ways=2, sets=4, line=64):
    return Cache(
        CacheConfig(
            name="t", size_bytes=ways * sets * line, line_bytes=line, ways=ways
        )
    )


class TestCacheConfig:
    def test_sets_derivation(self):
        config = CacheConfig(name="t", size_bytes=32 * 1024, line_bytes=64, ways=4)
        assert config.sets == 128

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheConfig(name="t", size_bytes=1024, line_bytes=48)

    def test_rejects_cache_smaller_than_set(self):
        with pytest.raises(ValueError):
            CacheConfig(name="t", size_bytes=64, line_bytes=64, ways=2)


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.probe(0x1000)
        assert cache.probe(0x1000)
        assert cache.probe(0x1038)  # same 64B line

    def test_distinct_lines_miss_independently(self):
        cache = small_cache()
        cache.probe(0x0)
        assert not cache.probe(0x40)

    def test_lru_within_set(self):
        cache = small_cache(ways=2, sets=1)
        cache.probe(0x000)
        cache.probe(0x040)
        cache.probe(0x000)  # refresh
        cache.probe(0x080)  # evicts 0x040
        assert cache.contains(0x000)
        assert not cache.contains(0x040)

    def test_dirty_eviction_counts_writeback(self):
        cache = small_cache(ways=1, sets=1)
        cache.probe(0x0, is_write=True)
        cache.probe(0x40)  # evicts dirty line
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = small_cache(ways=1, sets=1)
        cache.probe(0x0)
        cache.probe(0x40)
        assert cache.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = small_cache(ways=1, sets=1)
        cache.probe(0x0)
        cache.probe(0x8, is_write=True)
        cache.probe(0x40)
        assert cache.stats.writebacks == 1

    def test_flush_invalidates_but_keeps_stats(self):
        cache = small_cache()
        cache.probe(0x0)
        cache.flush()
        assert not cache.contains(0x0)
        assert cache.stats.accesses == 1

    def test_reset_stats_keeps_contents(self):
        cache = small_cache()
        cache.probe(0x0)
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.contains(0x0)

    def test_capacity_honored(self):
        cache = small_cache(ways=2, sets=4)
        for i in range(100):
            cache.probe(i * 64)
        resident = sum(1 for i in range(100) if cache.contains(i * 64))
        assert resident <= 8

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_matches_reference_lru_model(self, line_ids):
        """The cache must agree with a straightforward LRU reference."""
        ways, sets = 2, 4
        cache = small_cache(ways=ways, sets=sets)
        reference = {index: [] for index in range(sets)}
        for line_id in line_ids:
            addr = line_id * 64
            index = line_id % sets
            expected_hit = line_id in reference[index]
            assert cache.probe(addr) == expected_hit
            if expected_hit:
                reference[index].remove(line_id)
            reference[index].insert(0, line_id)
            del reference[index][ways:]


class TestDRAM:
    def test_unloaded_latency(self):
        dram = DRAM(DRAMConfig(latency=100, gap=4))
        assert dram.access(now=10) == 100

    def test_bandwidth_queueing(self):
        dram = DRAM(DRAMConfig(latency=100, gap=10))
        assert dram.access(now=0) == 100
        # second request at the same instant waits one gap
        assert dram.access(now=0) == 110
        assert dram.access(now=0) == 120

    def test_idle_gap_resets_queue(self):
        dram = DRAM(DRAMConfig(latency=100, gap=10))
        dram.access(now=0)
        assert dram.access(now=50) == 100

    def test_queue_stats(self):
        dram = DRAM(DRAMConfig(latency=100, gap=10))
        dram.access(0)
        dram.access(0)
        assert dram.mean_queue_delay == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(latency=0)
        with pytest.raises(ValueError):
            DRAMConfig(gap=-1)


class TestHierarchy:
    def test_l1_hit_is_cheap(self):
        hier = MemoryHierarchy()
        hier.load(0x1000, 0)
        assert hier.load(0x1008, 1) == hier.l1d.config.hit_latency

    def test_miss_costs_accumulate(self):
        hier = MemoryHierarchy()
        cold = hier.load(0x5000, 0)
        expected_min = (
            hier.l1d.config.hit_latency
            + hier.l2.config.hit_latency
            + hier.dram.config.latency
        )
        assert cold >= expected_min

    def test_l2_hit_after_l1_eviction(self):
        config = HierarchyConfig()
        hier = MemoryHierarchy(config)
        hier.load(0x0, 0)
        # Blow the L1 set: same L1 set index, distinct lines.
        l1 = hier.l1d.config
        stride = l1.sets * l1.line_bytes
        for i in range(1, l1.ways + 1):
            hier.load(i * stride, 0)
        latency = hier.load(0x0, 0)
        assert latency == l1.hit_latency + hier.l2.config.hit_latency

    def test_fetch_uses_icache(self):
        hier = MemoryHierarchy()
        hier.fetch(0x100, 0)
        assert hier.l1i.stats.accesses == 1
        assert hier.l1d.stats.accesses == 0

    def test_reset_stats_cascades(self):
        hier = MemoryHierarchy()
        hier.load(0x100, 0)
        hier.fetch(0x100, 0)
        hier.reset_stats()
        assert hier.l1d.stats.accesses == 0
        assert hier.l1i.stats.accesses == 0
        assert hier.dram.requests == 0


def _small_hierarchy():
    """Tiny caches, so short sequences evict, write back and queue."""
    return MemoryHierarchy(
        HierarchyConfig(
            l1i=CacheConfig(name="L1I", size_bytes=512, line_bytes=64, ways=2),
            l1d=CacheConfig(name="L1D", size_bytes=512, line_bytes=64, ways=2),
            l2=CacheConfig(
                name="L2", size_bytes=2048, line_bytes=128, ways=4, hit_latency=6
            ),
            dram=DRAMConfig(latency=40, gap=6),
        )
    )


def _accesses(seed, count=400):
    rng = random.Random(seed)
    return [
        (rng.choice("fls"), rng.randrange(0, 1 << 13, 8), step)
        for step in range(count)
    ]


def _drive(hier, accesses):
    ops = {"f": hier.fetch, "l": hier.load, "s": hier.store}
    return [ops[kind](addr, now) for kind, addr, now in accesses]


def _hier_stats(hier):
    return (
        hier.l1i.stats,
        hier.l1d.stats,
        hier.l2.stats,
        hier.dram.requests,
        hier.dram.total_queue_cycles,
    )


class TestHierarchyCopy:
    def test_copy_answers_like_original(self):
        original, twin = _small_hierarchy(), _small_hierarchy()
        _drive(original, _accesses(1))
        _drive(twin, _accesses(1))
        clone = original.copy()
        assert _hier_stats(clone) == _hier_stats(original)
        latencies = _drive(original, _accesses(2))
        assert _drive(clone, _accesses(2)) == latencies
        assert _drive(twin, _accesses(2)) == latencies
        assert _hier_stats(clone) == _hier_stats(original) == _hier_stats(twin)

    def test_driving_copy_leaves_original_untouched(self):
        original, twin = _small_hierarchy(), _small_hierarchy()
        _drive(original, _accesses(3))
        _drive(twin, _accesses(3))
        clone = original.copy()
        _drive(clone, _accesses(4))
        clone.reset_stats()
        clone.l1d.flush()
        assert _drive(original, _accesses(5)) == _drive(twin, _accesses(5))
        assert _hier_stats(original) == _hier_stats(twin)
