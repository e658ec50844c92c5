"""Cache simulator tests, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import (
    CacheHierarchy,
    CacheStats,
    SetAssociativeCache,
)
from repro.hw.spec import A100_80GB, CacheSpec


def small_cache(capacity=4096, line=64, ways=2) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheSpec(
            capacity_bytes=capacity,
            line_bytes=line,
            associativity=ways,
            bandwidth_bytes_per_s=1e12,
        )
    )


class TestBasics:
    def test_first_access_misses(self):
        cache = small_cache()
        assert cache.access(0) is False

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0)
        assert cache.access(0) is True

    def test_same_line_hits(self):
        cache = small_cache(line=64)
        cache.access(0)
        assert cache.access(63) is True

    def test_adjacent_line_misses(self):
        cache = small_cache(line=64)
        cache.access(0)
        assert cache.access(64) is False

    def test_stats_count_accesses_and_hits(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(128)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_stats_merge(self):
        merged = CacheStats(10, 4).merge(CacheStats(6, 2))
        assert merged.accesses == 16 and merged.hits == 6

    def test_rejects_negative_addresses(self):
        # A negative line would alias the -1 that marks an empty way.
        cache = small_cache()
        for addresses in ([-128], [0, 64, -1]):
            with pytest.raises(ValueError, match="addresses"):
                cache.replay(addresses)
        assert cache.stats.accesses == 0
        assert cache.access(0) is False


class TestEviction:
    def test_lru_eviction_within_set(self):
        # 2-way cache: three lines mapping to the same set evict the LRU.
        cache = small_cache(capacity=4096, line=64, ways=2)
        sets = cache.spec.num_sets
        stride = sets * 64  # same set index every time
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts line 0
        assert cache.access(0) is False

    def test_lru_refresh_on_hit(self):
        cache = small_cache(capacity=4096, line=64, ways=2)
        stride = cache.spec.num_sets * 64
        cache.access(0)
        cache.access(stride)
        cache.access(0)  # refresh line 0 to MRU
        cache.access(2 * stride)  # evicts line `stride`, not 0
        assert cache.access(0) is True
        assert cache.access(stride) is False

    def test_working_set_within_capacity_all_hits_second_pass(self):
        cache = small_cache(capacity=4096, line=64, ways=2)
        lines = [i * 64 for i in range(4096 // 64)]
        for address in lines:
            cache.access(address)
        assert cache.replay(lines).all()

    def test_working_set_beyond_capacity_thrashes(self):
        cache = small_cache(capacity=4096, line=64, ways=2)
        lines = [i * 64 for i in range(2 * 4096 // 64)]
        cache.replay(lines)
        assert not cache.replay(lines).any()  # LRU + sequential = thrash

    def test_reset_clears_contents(self):
        cache = small_cache()
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.access(0) is False

    def test_clear_stats_keeps_contents(self):
        cache = small_cache()
        cache.access(0)
        cache.clear_stats()
        assert cache.stats.accesses == 0
        assert cache.access(0) is True


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self):
        hierarchy = CacheHierarchy(
            A100_80GB.l1_per_sm, A100_80GB.l2
        )
        stats = hierarchy.replay([0, 0, 128])
        assert stats.l1.accesses == 3
        assert stats.l1.hits == 1
        assert stats.l2.accesses == 2  # the two L1 misses

    def test_l2_hit_after_l1_eviction(self):
        l1 = CacheSpec(256, 64, 2, 1e12)  # tiny: 2 sets x 2 ways
        l2 = CacheSpec(65536, 64, 16, 1e12)
        hierarchy = CacheHierarchy(l1, l2)
        lines = [i * 64 for i in range(16)]  # overflow L1, fit L2
        hierarchy.replay(lines)
        stats = hierarchy.replay(lines)
        assert stats.l1.hits < len(lines)
        assert stats.l2.hit_rate == 1.0

    def test_replay_returns_delta_not_cumulative(self):
        hierarchy = CacheHierarchy(A100_80GB.l1_per_sm, A100_80GB.l2)
        hierarchy.replay([0, 64, 128])
        stats = hierarchy.replay([0])
        assert stats.l1.accesses == 1

    def test_each_sm_has_its_own_l1(self):
        hierarchy = CacheHierarchy(
            A100_80GB.l1_per_sm, A100_80GB.l2, num_sms=2
        )
        stats = hierarchy.replay([0, 0, 0], sms=[0, 1, 0])
        assert (stats.l1.accesses, stats.l1.hits) == (3, 1)
        assert (stats.l2.accesses, stats.l2.hits) == (2, 1)

    def test_rejects_sm_outside_range(self):
        hierarchy = CacheHierarchy(
            A100_80GB.l1_per_sm, A100_80GB.l2, num_sms=2
        )
        for sms in ([0, 2], [-1, 0], [0]):
            with pytest.raises(ValueError, match="SM ids"):
                hierarchy.replay([0, 64], sms=sms)
        with pytest.raises(ValueError, match="num_sms"):
            CacheHierarchy(A100_80GB.l1_per_sm, A100_80GB.l2, num_sms=0)

    def test_rejects_negative_addresses_before_replaying(self):
        hierarchy = CacheHierarchy(
            A100_80GB.l1_per_sm, A100_80GB.l2, num_sms=2
        )
        with pytest.raises(ValueError, match="addresses"):
            hierarchy.replay([0, 128, -128], sms=[0, 1, 1])
        # No level saw any of the stream.
        stats = hierarchy.replay([0, 128], sms=[0, 1])
        assert (stats.l1.hits, stats.l2.hits) == (0, 0)
        assert hierarchy.l1s[0].stats.accesses == 1


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=1 << 20), min_size=1,
        max_size=200,
    )
)
def test_hit_rate_always_in_unit_interval(addresses):
    cache = small_cache()
    hits = cache.replay(addresses)
    assert hits.dtype == bool and len(hits) == len(addresses)
    assert cache.stats.accesses == len(addresses)
    assert cache.stats.hits == hits.sum()
    assert 0.0 <= cache.stats.hit_rate <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=1 << 14), min_size=1,
        max_size=64,
    )
)
def test_immediate_repeat_always_hits(addresses):
    cache = small_cache()
    for address in addresses:
        cache.access(address)
        assert cache.access(address) is True


@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(
        st.integers(min_value=0, max_value=63), min_size=1, max_size=63
    )
)
def test_working_set_within_capacity_never_self_evicts(lines):
    # 64-line fully... 2-way cache: unique lines up to capacity with
    # distinct sets won't evict; use sequential lines (<= num_lines).
    cache = small_cache(capacity=4096, line=64, ways=2)
    unique = sorted(set(lines))
    for line in unique:
        cache.access(line * 64)
    assert cache.replay([line * 64 for line in unique]).all()


class _ListLRU:
    """Access-by-access LRU over plain lists, most recent last."""

    def __init__(self, spec: CacheSpec):
        self.spec = spec
        self.sets = [[] for _ in range(spec.num_sets)]
        self.accesses = self.hits = 0

    def access(self, address: int) -> bool:
        line = address // self.spec.line_bytes
        ways = self.sets[line % self.spec.num_sets]
        self.accesses += 1
        hit = line in ways
        if hit:
            ways.remove(line)
            self.hits += 1
        elif len(ways) == self.spec.associativity:
            ways.pop(0)
        ways.append(line)
        return hit


tiny_geometries = st.builds(
    lambda sets, ways, line: CacheSpec(sets * ways * line, line, ways, 1e12),
    st.integers(1, 8), st.integers(1, 8), st.sampled_from((32, 64, 128)),
)


@st.composite
def sm_streams(draw):
    num_sms = draw(st.integers(1, 4))
    stream = draw(st.lists(
        st.tuples(st.integers(0, 1 << 13), st.integers(0, num_sms - 1)),
        max_size=300,
    ))
    warm = draw(st.none() | st.lists(st.integers(0, 1 << 13), max_size=100))
    return num_sms, stream, warm


@settings(max_examples=200, deadline=None)
@given(l1=tiny_geometries, l2=tiny_geometries, case=sm_streams())
def test_two_pass_replay_matches_interleaved_reference(l1, l2, case):
    """Each L1 over its SM's accesses, then L2 over the L1 misses, counts
    exactly what interleaving the two levels access by access does."""
    num_sms, stream, warm = case
    hierarchy = CacheHierarchy(l1, l2, num_sms=num_sms)
    ref_l1s = [_ListLRU(l1) for _ in range(num_sms)]
    ref_l2 = _ListLRU(l2)
    if warm is not None:
        hierarchy.l2.replay(warm)
        for address in warm:
            ref_l2.access(address)
        ref_l2.accesses = ref_l2.hits = 0
    for address, sm in stream:
        if not ref_l1s[sm].access(address):
            ref_l2.access(address)
    stats = hierarchy.replay(
        [address for address, _ in stream], [sm for _, sm in stream]
    )
    assert (stats.l1.accesses, stats.l1.hits) == (
        sum(c.accesses for c in ref_l1s), sum(c.hits for c in ref_l1s)
    )
    assert (stats.l2.accesses, stats.l2.hits) == (
        ref_l2.accesses, ref_l2.hits
    )


def _resident_lines(cache: SetAssociativeCache) -> list[list[int]]:
    """Each set's resident lines, least recently used first."""
    num_sets = cache.spec.num_sets
    return [
        [tag * num_sets + index for tag in tags if tag >= 0]
        for index, tags in enumerate(cache._tags.tolist())
    ]


@st.composite
def replay_plans(draw):
    """A tiny geometry and up to four streams for one cache, each after
    an optional ``reset()`` or ``clear_stats()``."""
    spec = draw(tiny_geometries)
    sets, ways = spec.num_sets, spec.associativity
    lines = st.integers(0, 3 * sets * ways)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from((None, None, "reset", "clear_stats")))
        kind = draw(st.sampled_from(("random", "hot", "sweep")))
        if kind == "random":
            stream = draw(st.lists(lines, max_size=120))
        elif kind == "hot":
            hot = draw(st.lists(lines, min_size=1, max_size=3))
            stream = draw(
                st.lists(st.sampled_from(hot) | lines, max_size=120)
            )
        else:
            # ways + 1 lines of one set, cycled: LRU misses every access.
            first = draw(st.integers(0, sets - 1))
            cycle = [first + k * sets for k in range(ways + 1)]
            stream = cycle * draw(st.integers(1, 4))
        offset = draw(st.integers(0, spec.line_bytes - 1))
        steps.append(
            (action, [line * spec.line_bytes + offset for line in stream])
        )
    return spec, steps


@settings(max_examples=300, deadline=None)
@given(plan=replay_plans())
def test_replays_match_list_lru_flags_and_resident_lines(plan):
    """Replays on one cache, state carried between them, give the list
    LRU's flag for every access and leave its lines, LRU first."""
    spec, steps = plan
    cache, reference = SetAssociativeCache(spec), _ListLRU(spec)
    for action, addresses in steps:
        if action == "reset":
            cache.reset()
            reference = _ListLRU(spec)
        elif action == "clear_stats":
            cache.clear_stats()
            reference.accesses = reference.hits = 0
        flags = cache.replay(addresses)
        assert flags.tolist() == [reference.access(a) for a in addresses]
        assert _resident_lines(cache) == reference.sets
        assert (cache.stats.accesses, cache.stats.hits) == (
            reference.accesses, reference.hits
        )
