"""Differential tests: the compiled cache and data generator vs their oracles.

Hypothesis drives random operation sequences through ``SetAssocCache`` (the
object oracle) and ``SetAssocCacheC`` (the C kernels over SoA arrays) side
by side.  After every step the return values, the eviction-hook victims,
``occupancy`` and the packed checkpoint bytes must agree.  Mid-sequence both
caches are replaced by fresh caches of the *other* layout restored through
``load_packed``, so a snapshot from either layout must restore into either
and keep behaving identically (LRU order included).

The data-address generators get the same treatment for their per-PC
occurrence counters.  Skipped when the kernels cannot be built.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import cc
from repro.common.config import CacheConfig
from repro.memory.cache import SetAssocCache, SetAssocCacheC
from repro.workloads.data import DataAddressGenerator, DataAddressGeneratorC
from repro.workloads.profiles import DataProfile

pytestmark = pytest.mark.skipif(
    cc.kernels() is None, reason="compiled kernels unavailable"
)

_LINE = 64
_GEOMETRIES = [(512, 2), (1024, 4), (256, 1)]  # (size_bytes, assoc)

_ops = st.one_of(
    st.tuples(st.just("lookup"), st.integers(0, 31), st.booleans(), st.booleans()),
    st.tuples(st.just("contains"), st.integers(0, 31)),
    st.tuples(st.just("install"), st.integers(0, 31), st.integers(0, 15)),
    st.tuples(st.just("invalidate"), st.integers(0, 31)),
)


def _line_view(line):
    """A resident line's identity and flags (None for a miss)."""
    if line is None:
        return None
    return (
        line.line_addr,
        line.prefetch_bit,
        line.prefetch_off_path,
        line.prefetch_udp_candidate,
        line.dirty,
    )


class _Side:
    """One cache plus the victims its eviction hook has seen."""

    def __init__(self, cache):
        self.cache = cache
        self.victims = []
        cache.eviction_hook = lambda victim: self.victims.append(_line_view(victim))

    def apply(self, op):
        kind, n = op[0], op[1] * _LINE
        cache = self.cache
        if kind == "lookup":
            touch, clear_prefetch = op[2], op[3]
            line = cache.lookup(n, touch=touch)
            view = _line_view(line)
            # The demand-hit path flips the prefetch bit through the
            # returned line; the compiled proxy must write through.
            if line is not None and clear_prefetch:
                line.prefetch_bit = False
            return view
        if kind == "contains":
            return cache.contains(n)
        if kind == "install":
            flags = op[2]
            return _line_view(
                cache.install(
                    n,
                    prefetch=bool(flags & 1),
                    prefetch_off_path=bool(flags & 2),
                    prefetch_udp_candidate=bool(flags & 4),
                    dirty=bool(flags & 8),
                )
            )
        return cache.invalidate(n)


def _assert_same(obj: _Side, comp: _Side) -> None:
    assert obj.victims == comp.victims
    assert obj.cache.occupancy == comp.cache.occupancy
    assert obj.cache.state_packed() == comp.cache.state_packed()


@settings(max_examples=150, deadline=None)
@given(
    geometry=st.sampled_from(_GEOMETRIES),
    ops=st.lists(_ops, min_size=20, max_size=120),
    swap_at=st.integers(0, 120),
)
def test_cache_layouts_agree_step_by_step(geometry, ops, swap_at):
    config = CacheConfig("t", *geometry, line_bytes=_LINE)
    obj = _Side(SetAssocCache(config))
    comp = _Side(SetAssocCacheC(config))
    for i, op in enumerate(ops):
        if i == swap_at % len(ops):
            # Cross-layout round trip: each side continues on a fresh cache
            # of the other layout restored from its own snapshot.
            obj_state = obj.cache.state_packed()
            comp_state = comp.cache.state_packed()
            fresh_comp = SetAssocCacheC(config)
            fresh_comp.load_packed(obj_state)
            fresh_obj = SetAssocCache(config)
            fresh_obj.load_packed(comp_state)
            obj, comp = _Side(fresh_obj), _Side(fresh_comp)
            _assert_same(obj, comp)
        assert obj.apply(op) == comp.apply(op)
        _assert_same(obj, comp)


@pytest.mark.parametrize("layout", [SetAssocCache, SetAssocCacheC])
def test_load_packed_rejects_foreign_geometry(layout):
    small = SetAssocCache(CacheConfig("t", 512, 2))
    small.install(0)
    with pytest.raises(ValueError, match="geometry"):
        layout(CacheConfig("t", 1024, 2)).load_packed(small.state_packed())


_CODE_END = 4096


@settings(max_examples=50, deadline=None)
@given(
    pcs=st.lists(st.integers(0, _CODE_END // 4 - 1), min_size=0, max_size=200),
    more=st.lists(st.integers(0, _CODE_END // 4 - 1), min_size=0, max_size=50),
    seed=st.integers(0, 2**32),
)
def test_data_generator_occurrences_round_trip_across_layouts(pcs, more, seed):
    profile = DataProfile()
    obj = DataAddressGenerator(profile, seed)
    comp = DataAddressGeneratorC(profile, seed, _CODE_END)
    for index in pcs:
        assert obj.next_address(index * 4) == comp.next_address(index * 4)
    state = obj.occurrences_state()
    assert state == comp.occurrences_state()

    # Each snapshot restores into a fresh generator of the other layout,
    # and the restored pair keeps producing identical addresses.
    restored_comp = DataAddressGeneratorC(profile, seed, _CODE_END)
    restored_comp.load_occurrences_state(state)
    restored_obj = DataAddressGenerator(profile, seed)
    restored_obj.load_occurrences_state(comp.occurrences_state())
    assert restored_obj.occurrences_state() == restored_comp.occurrences_state()
    assert restored_obj.occurrences_state() == state
    for index in more:
        address = obj.next_address(index * 4)
        assert restored_obj.next_address(index * 4) == address
        assert restored_comp.next_address(index * 4) == address
    assert restored_obj.occurrences_state() == restored_comp.occurrences_state()
