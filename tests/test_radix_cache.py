"""Radix-tree prefix index: matching, splitting, refcounts, LRU."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.radix import RadixTree
from repro.errors import SchedulingError


def ids(*runs):
    """Build a token-id tuple from (base, length) runs."""
    out = []
    for base, length in runs:
        out.extend(base * 1000 + i for i in range(length))
    return tuple(out)


class TestInsertAndMatch:
    def test_empty_tree_misses(self):
        tree = RadixTree()
        entry, matched = tree.match_prefix(ids((1, 8)))
        assert entry is None and matched == 0
        assert tree.stats.misses == 1

    def test_exact_match(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        entry, matched = tree.match_prefix(ids((1, 8)))
        assert entry is not None
        assert matched == 8
        assert tree.stats.hits == 1
        assert tree.stats.hit_tokens == 8

    def test_query_longer_than_entry(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        _, matched = tree.match_prefix(ids((1, 8), (2, 4)))
        assert matched == 8

    def test_query_shorter_than_entry(self):
        tree = RadixTree()
        tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        _, matched = tree.match_prefix(ids((1, 8)))
        assert matched == 8

    def test_partial_overlap_mid_edge(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        _, matched = tree.match_prefix(ids((1, 5), (9, 5)))
        assert matched == 5

    def test_divergence_at_split_node(self):
        # Two entries sharing a prefix force an edge split; a third
        # query diverging exactly at the split node must still match.
        tree = RadixTree()
        tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        tree.insert(ids((1, 8), (3, 4)), slot=1, group="g", live=False)
        entry, matched = tree.match_prefix(ids((1, 8), (4, 4)))
        assert entry is not None
        assert matched == 8

    def test_unusable_match_counts_as_miss(self):
        # A 1-token prompt can never reuse a prefix (the prefill must
        # still compute its one token): with limit=0 the lookup is a
        # miss and must not disturb hit stats or LRU order.
        tree = RadixTree()
        entry = tree.insert(ids((1, 4)), slot=0, group="g", live=False,
                            now=1.0)
        found, matched = tree.match_prefix(ids((1, 4)), now=9.0, limit=0)
        assert found is None and matched == 0
        assert tree.stats.hits == 0 and tree.stats.misses == 1
        assert entry.last_access == 1.0  # LRU untouched
        _, matched = tree.match_prefix(ids((1, 4)), limit=2)
        assert matched == 2

    def test_disjoint_groups_do_not_match(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="a", live=False)
        entry, matched = tree.match_prefix(ids((2, 8)))
        assert entry is None and matched == 0

    def test_longest_entry_wins(self):
        tree = RadixTree()
        short = tree.insert(ids((1, 4)), slot=0, group="g", live=False)
        long = tree.insert(ids((1, 4), (2, 4)), slot=1, group="g", live=False)
        entry, matched = tree.match_prefix(ids((1, 4), (2, 4), (3, 2)))
        assert entry is long
        assert matched == 8
        entry, matched = tree.match_prefix(ids((1, 4), (9, 2)))
        assert entry is short
        assert matched == 4

    def test_duplicate_insert_declined(self):
        tree = RadixTree()
        assert tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        assert tree.insert(ids((1, 8)), slot=1, group="g", live=False) is None
        # A strict prefix of an existing entry is also already covered.
        assert tree.insert(ids((1, 4)), slot=2, group="g", live=False) is None
        assert tree.stats.duplicate_insertions == 2
        assert tree.entry_count == 1

    def test_longer_prompt_is_not_a_duplicate(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        assert tree.insert(ids((1, 8), (2, 4)), slot=1, group="g", live=False)
        assert tree.entry_count == 2

    def test_empty_ids_declined(self):
        tree = RadixTree()
        assert tree.insert((), slot=0, group="g", live=False) is None


class TestRemoveAndPrune:
    def test_remove_then_miss(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.remove(entry)
        found, matched = tree.match_prefix(ids((1, 8)))
        assert found is None and matched == 0
        assert tree.entry_count == 0

    def test_remove_keeps_siblings(self):
        tree = RadixTree()
        a = tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        b = tree.insert(ids((1, 8), (3, 4)), slot=1, group="g", live=False)
        tree.remove(a)
        found, matched = tree.match_prefix(ids((1, 8), (3, 4)))
        assert found is b and matched == 12

    def test_double_remove_rejected(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.remove(entry)
        with pytest.raises(SchedulingError):
            tree.remove(entry)


class TestEviction:
    def test_lru_order(self):
        tree = RadixTree()
        old = tree.insert(ids((1, 4)), slot=0, group="g", live=False, now=1.0)
        new = tree.insert(ids((2, 4)), slot=1, group="g", live=False, now=2.0)
        assert tree.evict_lru() is old
        assert tree.evict_lru() is new
        assert tree.evict_lru() is None
        assert tree.stats.evictions == 2

    def test_hit_refreshes_lru(self):
        tree = RadixTree()
        a = tree.insert(ids((1, 4)), slot=0, group="g", live=False, now=1.0)
        b = tree.insert(ids((2, 4)), slot=1, group="g", live=False, now=2.0)
        tree.match_prefix(ids((1, 4)), now=3.0)  # touch a
        assert tree.evict_lru() is b

    def test_referenced_entry_protected(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 4)), slot=0, group="g", live=False)
        entry.ref_count = 1
        assert tree.evict_lru() is None
        entry.ref_count = 0
        assert tree.evict_lru() is entry

    def test_live_entry_protected(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 4)), slot=0, group="g", live=True)
        assert tree.evict_lru() is None
        entry.live = False
        assert tree.evict_lru() is entry


class TestProbe:
    def test_probe_matches_like_match_prefix(self):
        tree = RadixTree()
        tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        entry, matched = tree.probe(ids((1, 8)))
        assert entry is not None
        assert matched == 8
        entry, matched = tree.probe(ids((1, 8), (2, 4), (3, 2)))
        assert matched == 12
        assert tree.probe(ids((9, 4))) == (None, 0)

    def test_probe_respects_limit(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        _, matched = tree.probe(ids((1, 8)), limit=3)
        assert matched == 3
        assert tree.probe(ids((1, 8)), limit=0) == (None, 0)

    def test_probe_leaves_state_untouched(self):
        # The cluster router probes every replica per routing decision;
        # probes must not skew hit statistics or refresh LRU order.
        tree = RadixTree()
        entry = tree.insert(
            ids((1, 8)), slot=0, group="g", live=False, now=5.0
        )
        for _ in range(3):
            tree.probe(ids((1, 8)))
            tree.probe(ids((9, 8)))
        assert tree.stats.lookups == 0
        assert tree.stats.hits == 0
        assert tree.stats.misses == 0
        assert tree.stats.hit_tokens == 0
        assert entry.hits == 0
        assert entry.last_access == 5.0


class TestStats:
    def test_hit_rate(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.match_prefix(ids((1, 8)))
        tree.match_prefix(ids((9, 8)))
        assert tree.stats.hit_rate == pytest.approx(0.5)

    def test_cached_tokens_counts_cache_owned_only(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.insert(ids((2, 6)), slot=1, group="g", live=True)
        assert tree.cached_tokens == 8


def walked_entries(tree):
    """Every entry reachable from the root: the tree-walk reference the
    entry index must agree with."""
    return {entry.entry_id: entry for entry in tree._root.subtree_entries()}


#: Short token runs over a three-letter alphabet, so inserts keep
#: splitting edges and matches diverge mid-edge.
TOKENS = st.lists(st.integers(0, 2), min_size=1, max_size=8)
#: Few distinct timestamps, so LRU ties are common.
NOW = st.integers(0, 3).map(float)
OPS = st.one_of(
    st.tuples(st.just("insert"), TOKENS, st.booleans(), NOW),
    st.tuples(st.just("match"), TOKENS, NOW),
    st.tuples(st.just("live"), st.integers(0, 63)),
    st.tuples(st.just("ref"), st.integers(0, 63), st.integers(-1, 1)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("evict"),),
)


class TestEntryIndex:
    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=200,
    )
    @given(ops=st.lists(OPS, max_size=60))
    def test_index_agrees_with_tree_walk(self, ops):
        tree = RadixTree()
        for op in ops:
            walked = walked_entries(tree)
            chosen = (
                walked[sorted(walked)[op[1] % len(walked)]]
                if walked and op[0] in ("live", "ref", "remove")
                else None
            )
            if op[0] == "insert":
                tree.insert(op[1], slot=0, group="g", live=op[2], now=op[3])
            elif op[0] == "match":
                tree.match_prefix(op[1], now=op[2])
            elif op[0] == "live" and chosen is not None:
                chosen.live = not chosen.live
            elif op[0] == "ref" and chosen is not None:
                chosen.ref_count = max(0, chosen.ref_count + op[2])
            elif op[0] == "remove" and chosen is not None:
                tree.remove(chosen)
            elif op[0] == "evict":
                tree.evict_lru()

            walked = walked_entries(tree)
            assert {e.entry_id for e in tree.entries} == set(walked)
            assert tree.entry_count == len(walked)
            assert tree.cached_tokens == sum(
                e.tokens for e in walked.values() if not e.live
            )
            for entry_id, entry in walked.items():
                assert tree.get(entry_id) is entry
            evictable = [e for e in walked.values() if e.evictable]
            expected = min(
                evictable,
                key=lambda e: (e.last_access, e.entry_id),
                default=None,
            )
            assert tree.lru_victim() is expected
        walked = walked_entries(tree)
        for entry_id in range(tree._next_entry_id):
            if entry_id not in walked:
                with pytest.raises(SchedulingError):
                    tree.get(entry_id)
