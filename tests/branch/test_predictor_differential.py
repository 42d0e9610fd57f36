"""Differential tests: the compiled BTB, iBTB and TAGE vs their oracles.

Hypothesis drives random operation sequences through each object predictor
and its compiled twin (C kernels over SoA arrays) side by side.  After every
step the return values and the packed checkpoint bytes (``state_packed``)
must agree.  Mid-sequence both sides are replaced by fresh structures of
the *other* layout restored through ``load_packed``, so a snapshot from
either layout must restore into either and keep behaving identically
(replacement order, usefulness and history folds included).

Same shape as ``tests/memory/test_cache_differential.py``.  Skipped when the
kernels cannot be built.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.btb import (
    BranchTargetBuffer,
    BranchTargetBufferC,
    IndirectTargetBuffer,
    IndirectTargetBufferC,
)
from repro.branch.history import GlobalHistory, GlobalHistoryC
from repro.branch.tage import TagePredictor, TagePredictorC
from repro.branch.two_level_btb import TwoLevelBTB
from repro.common import cc
from repro.common.config import BranchConfig
from repro.workloads.program import BranchKind

pytestmark = pytest.mark.skipif(
    cc.kernels() is None, reason="compiled kernels unavailable"
)

_KINDS = list(BranchKind)

# ---------------------------------------------------------------------------
# BTB (one level and two levels)
# ---------------------------------------------------------------------------


def _btb(entries, assoc):
    """A factory of the object (False) or compiled (True) BTB layout."""
    return lambda compiled: (
        BranchTargetBufferC if compiled else BranchTargetBuffer
    )(entries, assoc)


_BTBS = {
    "4x4": _btb(16, 4),
    "8x1": _btb(8, 1),
    "2x8": _btb(16, 8),
    "two-level": lambda compiled: TwoLevelBTB(4, 2, 16, 4, compiled=compiled),
}

_btb_ops = st.one_of(
    st.tuples(st.just("probe"), st.integers(0, 31)),
    st.tuples(st.just("contains"), st.integers(0, 31)),
    st.tuples(
        st.just("fill"),
        st.integers(0, 31),
        st.sampled_from(_KINDS),
        st.integers(0, 1 << 40),
    ),
)


def _btb_apply(btb, op):
    kind, pc = op[0], op[1] * 4
    if kind == "probe":
        entry = btb.probe(pc)
        return None if entry is None else (entry.pc, entry.kind, entry.target)
    if kind == "contains":
        return btb.contains(pc)
    return btb.fill(pc, op[2], op[3])


def _btb_view(btb):
    return btb.state_packed(), btb.occupancy, btb.hits, btb.misses


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(sorted(_BTBS)),
    ops=st.lists(_btb_ops, min_size=20, max_size=120),
    swap_at=st.integers(0, 120),
)
def test_btb_layouts_agree_step_by_step(shape, ops, swap_at):
    make = _BTBS[shape]
    obj, comp = make(False), make(True)
    for i, op in enumerate(ops):
        if i == swap_at % len(ops):
            # Cross-layout round trip: each side continues on a fresh BTB
            # of the other layout restored from its own snapshot.
            fresh_comp, fresh_obj = make(True), make(False)
            fresh_comp.load_packed(obj.state_packed())
            fresh_obj.load_packed(comp.state_packed())
            obj, comp = fresh_obj, fresh_comp
            assert _btb_view(obj) == _btb_view(comp)
        assert _btb_apply(obj, op) == _btb_apply(comp, op)
        assert _btb_view(obj) == _btb_view(comp)


# ---------------------------------------------------------------------------
# iBTB
# ---------------------------------------------------------------------------

_IBTB_GEOMETRIES = [(16, 4), (8, 1), (16, 8)]  # (entries, assoc)

_ibtb_ops = st.one_of(
    st.tuples(st.just("predict"), st.integers(0, 7), st.integers(0, 3)),
    st.tuples(
        st.just("train"),
        st.integers(0, 7),
        st.integers(0, 3),
        st.integers(0, 1 << 40),
    ),
)


def _ibtb_apply(ibtb, op):
    kind, pc, history = op[0], op[1] * 4, op[2] * 0x1234
    if kind == "predict":
        return ibtb.predict(pc, history)
    return ibtb.train(pc, history, op[3])


def _ibtb_view(ibtb):
    return ibtb.state_packed(), ibtb.hits, ibtb.misses


@settings(max_examples=150, deadline=None)
@given(
    geometry=st.sampled_from(_IBTB_GEOMETRIES),
    ops=st.lists(_ibtb_ops, min_size=20, max_size=120),
    swap_at=st.integers(0, 120),
)
def test_ibtb_layouts_agree_step_by_step(geometry, ops, swap_at):
    obj = IndirectTargetBuffer(*geometry)
    comp = IndirectTargetBufferC(*geometry)
    for i, op in enumerate(ops):
        if i == swap_at % len(ops):
            fresh_comp = IndirectTargetBufferC(*geometry)
            fresh_comp.load_packed(obj.state_packed())
            fresh_obj = IndirectTargetBuffer(*geometry)
            fresh_obj.load_packed(comp.state_packed())
            obj, comp = fresh_obj, fresh_comp
            assert _ibtb_view(obj) == _ibtb_view(comp)
        assert _ibtb_apply(obj, op) == _ibtb_apply(comp, op)
        assert _ibtb_view(obj) == _ibtb_view(comp)


# ---------------------------------------------------------------------------
# TAGE
# ---------------------------------------------------------------------------

# Tiny tables so random sequences collide, allocate and evict often.
_TAGE_CONFIG = BranchConfig(
    tage_tables=4, tage_min_hist=2, tage_max_hist=16,
    tage_table_bits=3, tage_tag_bits=4,
)


def _tage(compiled: bool, config: BranchConfig = _TAGE_CONFIG):
    history_cls = GlobalHistoryC if compiled else GlobalHistory
    history = history_cls(
        config.tage_max_hist, TagePredictor.expected_foldings(config)
    )
    return (TagePredictorC if compiled else TagePredictor)(config, history)


_tage_ops = st.one_of(
    # predict the branch at pc, train it with the outcome, push the outcome
    st.tuples(st.just("branch"), st.integers(0, 7), st.booleans()),
    # a history bit from a branch this predictor does not train
    st.tuples(st.just("push"), st.booleans()),
)


def _tage_apply(tage, op):
    if op[0] == "branch":
        prediction = tage.predict(op[1] * 4)
        tage.update(prediction, op[2])
        tage.history.push(op[2])
        return prediction
    tage.history.push(op[1])
    return None


def _tage_view(tage):
    return tage.state_packed(), tage.history.checkpoint()


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(_tage_ops, min_size=20, max_size=150),
    swap_at=st.integers(0, 150),
    # Close to the aging period, so usefulness aging runs mid-sequence.
    tick=st.sampled_from([0, (1 << 14) - 5]),
)
def test_tage_layouts_agree_step_by_step(ops, swap_at, tick):
    obj, comp = _tage(False), _tage(True)
    obj._tick = comp._tick = tick
    for i, op in enumerate(ops):
        if i == swap_at % len(ops):
            fresh_comp, fresh_obj = _tage(True), _tage(False)
            fresh_comp.history.restore(obj.history.checkpoint())
            fresh_comp.load_packed(obj.state_packed())
            fresh_obj.history.restore(comp.history.checkpoint())
            fresh_obj.load_packed(comp.state_packed())
            obj, comp = fresh_obj, fresh_comp
            assert _tage_view(obj) == _tage_view(comp)
        assert _tage_apply(obj, op) == _tage_apply(comp, op)
        assert _tage_view(obj) == _tage_view(comp)


# ---------------------------------------------------------------------------
# Geometry rejection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("compiled", [False, True])
def test_load_packed_rejects_foreign_geometry(compiled):
    btb = BranchTargetBuffer(16, 4)
    for i in range(4):
        btb.fill(i * 16, BranchKind.COND, 64)  # one full set
    with pytest.raises(ValueError, match="BTB geometry"):
        _btb(16, 8)(compiled).load_packed(btb.state_packed())  # 2 sets, not 4
    with pytest.raises(ValueError, match="BTB geometry"):
        _btb(4, 1)(compiled).load_packed(btb.state_packed())  # 1 way, not 4

    ibtb = IndirectTargetBuffer(16, 4)
    ibtb.train(0, 0, 64)
    ibtb_cls = IndirectTargetBufferC if compiled else IndirectTargetBuffer
    with pytest.raises(ValueError, match="iBTB geometry"):
        ibtb_cls(32, 4).load_packed(ibtb.state_packed())

    bigger = dataclasses.replace(_TAGE_CONFIG, tage_table_bits=4)
    with pytest.raises(ValueError, match="TAGE geometry"):
        _tage(compiled, bigger).load_packed(_tage(False).state_packed())
