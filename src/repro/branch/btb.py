"""Branch target buffers: the main BTB and the indirect target buffer.

The BTB is the frontend's *branch discovery* structure: a fetch block is
scanned by probing the BTB for each contained instruction address, and a
branch the BTB does not know about is simply invisible — the decoupled
frontend walks straight past it, which is how wrong-path prefetching after
BTB misses arises (Section II of the paper).

The indirect target buffer (iBTB) predicts targets of indirect jumps/calls
using a path-history-hashed index, falling back to the BTB's last-seen
target on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.cc import resolve_compiled
from repro.common.config import BranchConfig
from repro.common.packed import lru_slots, restore_ways, unpack_sets
from repro.workloads.program import BranchKind


# Entry fields of the packed checkpoint form, in wire order.
_BTB_FIELDS = {"pcs": "i8", "kinds": "u1", "targets": "i8"}
_IBTB_FIELDS = {"tags": "i8", "targets": "i8"}


@dataclass
class BTBEntry:
    """One BTB entry: full-tag branch descriptor."""

    pc: int
    kind: BranchKind
    target: int
    lru: int = 0


class BranchTargetBuffer:
    """Set-associative BTB with true-LRU replacement and full tags."""

    def __init__(self, entries: int, assoc: int) -> None:
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets: list[dict[int, BTBEntry]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_of(self, pc: int) -> dict[int, BTBEntry]:
        return self._sets[(pc >> 2) % self.num_sets]

    def probe(self, pc: int) -> BTBEntry | None:
        """Look up the branch at ``pc``; update LRU on hit."""
        entry = self._set_of(pc).get(pc)
        self._stamp += 1
        if entry is None:
            self.misses += 1
            return None
        entry.lru = self._stamp
        self.hits += 1
        return entry

    def contains(self, pc: int) -> bool:
        """Tag check without touching LRU or statistics."""
        return pc in self._set_of(pc)

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Insert or refresh the entry for the branch at ``pc``."""
        way_set = self._set_of(pc)
        self._stamp += 1
        entry = way_set.get(pc)
        if entry is not None:
            entry.kind = kind
            entry.target = target
            entry.lru = self._stamp
            return
        if len(way_set) >= self.assoc:
            victim = min(way_set.values(), key=lambda e: e.lru)
            del way_set[victim.pc]
        way_set[pc] = BTBEntry(pc, kind, target, self._stamp)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- checkpoint state ------------------------------------------------------

    def state_packed(self) -> dict:
        """Contents as packed per-set arrays (the checkpoint wire form).

        A ``uint16`` entry count per set, then ``int64`` pcs, ``uint8`` kinds
        and ``int64`` targets in set-major LRU->MRU order (see
        :mod:`repro.common.packed`), plus the hit/miss counts.  Only the
        *relative* recency within a set affects future behaviour (eviction
        takes the min stamp), so ordering replaces raw stamps and both
        layouts emit identical bytes.
        """
        import numpy as np

        entries = [
            e
            for way_set in self._sets
            for e in sorted(way_set.values(), key=lambda e: e.lru)
        ]
        return {
            "counts": np.array(
                [len(way_set) for way_set in self._sets], dtype=np.uint16
            ).tobytes(),
            "pcs": np.array([e.pc for e in entries], dtype=np.int64).tobytes(),
            "kinds": np.array([e.kind for e in entries], dtype=np.uint8).tobytes(),
            "targets": np.array(
                [e.target for e in entries], dtype=np.int64
            ).tobytes(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (geometry must match)."""
        counts, (pcs, kinds, targets) = unpack_sets(
            state, self.num_sets, self.assoc, _BTB_FIELDS, "BTB"
        )
        pcs, kinds, targets = pcs.tolist(), kinds.tolist(), targets.tolist()
        pos = 0
        for way_set, n in zip(self._sets, counts.tolist()):
            way_set.clear()
            for i in range(pos, pos + n):
                self._stamp += 1
                way_set[pcs[i]] = BTBEntry(
                    pcs[i], BranchKind(kinds[i]), targets[i], self._stamp
                )
            pos += n
        self.hits = state["hits"]
        self.misses = state["misses"]


class BranchTargetBufferC(BranchTargetBuffer):
    """Compiled-kernel BTB: probe/fill run as single C calls over SoA ways.

    Way payloads (tag pc, kind, target) live in preallocated
    ``(num_sets, assoc)`` int64 ndarrays with a parallel stamp array; the
    victim is the minimum stamp, exactly as in the object oracle.  The
    packed checkpoint form (LRU→MRU per set) is byte-identical to
    :class:`BranchTargetBuffer`'s.
    """

    def __init__(self, entries: int, assoc: int) -> None:
        import numpy as np

        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._kinds = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._targets = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._pcs = np.full((self.num_sets, assoc), -1, dtype=np.int64)
        self._stamps = np.zeros(self.num_sets * assoc, dtype=np.int64)
        self._kinds_f = memoryview(self._kinds.reshape(-1))
        self._targets_f = memoryview(self._targets.reshape(-1))
        di = np.zeros(10, dtype=np.int64)
        di[0] = self._pcs.ctypes.data
        di[1] = self._kinds.ctypes.data
        di[2] = self._targets.ctypes.data
        di[3] = self._stamps.ctypes.data
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._dmv = memoryview(di)
        self._desc = int(di.ctypes.data)
        self._k_probe = kernels.btb_probe
        self._k_contains = kernels.btb_contains
        self._k_fill = kernels.btb_fill

    def probe(self, pc: int) -> BTBEntry | None:
        """Look up the branch at ``pc``; update recency on hit."""
        g = self._k_probe(self._desc, pc)
        if g < 0:
            return None
        return BTBEntry(pc, BranchKind(self._kinds_f[g]), self._targets_f[g])

    def contains(self, pc: int) -> bool:
        """Tag check without touching recency or statistics."""
        return bool(self._k_contains(self._desc, pc))

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Insert or refresh the entry for the branch at ``pc``."""
        self._k_fill(self._desc, pc, int(kind), target)

    @property
    def hits(self) -> int:
        return int(self._dmv[7])

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return int(self._dmv[8])

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    @property
    def occupancy(self) -> int:
        return int(self._dmv[9])

    def state_packed(self) -> dict:
        """Same bytes as :meth:`BranchTargetBuffer.state_packed`."""
        import numpy as np

        counts, ways = lru_slots(self._pcs != -1, self._stamps)
        return {
            "counts": counts.astype(np.uint16).tobytes(),
            "pcs": self._pcs.reshape(-1)[ways].tobytes(),
            "kinds": self._kinds.reshape(-1)[ways].astype(np.uint8).tobytes(),
            "targets": self._targets.reshape(-1)[ways].tobytes(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (geometry must match)."""
        counts, (pcs, kinds, targets) = unpack_sets(
            state, self.num_sets, self.assoc, _BTB_FIELDS, "BTB"
        )
        planes = ((self._pcs, -1, pcs), (self._kinds, 0, kinds), (self._targets, 0, targets))
        di = self._di  # di[6]: running stamp, di[9]: occupancy
        di[6] = restore_ways(counts, self.assoc, self._stamps, int(di[6]), planes)
        di[9] = len(pcs)
        self.hits = state["hits"]
        self.misses = state["misses"]


class IndirectTargetBuffer:
    """Path-history-hashed predictor for indirect branch targets."""

    def __init__(self, entries: int, assoc: int, history_bits: int = 12) -> None:
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.history_bits = history_bits
        self._sets: list[dict[int, tuple[int, int]]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _key(self, pc: int, history: int) -> tuple[int, int]:
        mixed = (pc >> 2) ^ ((history & ((1 << self.history_bits) - 1)) * 0x9E37)
        return mixed % self.num_sets, mixed

    def predict(self, pc: int, history: int) -> int | None:
        """Predicted target for the indirect branch at ``pc``, or None."""
        set_index, tag = self._key(pc, history)
        entry = self._sets[set_index].get(tag)
        self._stamp += 1
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        target, _ = entry
        self._sets[set_index][tag] = (target, self._stamp)
        return target

    def train(self, pc: int, history: int, target: int) -> None:
        """Record the resolved target under the current path history."""
        set_index, tag = self._key(pc, history)
        way_set = self._sets[set_index]
        self._stamp += 1
        if tag not in way_set and len(way_set) >= self.assoc:
            victim = min(way_set.items(), key=lambda kv: kv[1][1])[0]
            del way_set[victim]
        way_set[tag] = (target, self._stamp)

    # -- checkpoint state ------------------------------------------------------

    def state_packed(self) -> dict:
        """Per-set ``int64`` tags and targets in LRU->MRU order, packed as in
        :meth:`BranchTargetBuffer.state_packed`."""
        import numpy as np

        entries = [
            kv
            for way_set in self._sets
            for kv in sorted(way_set.items(), key=lambda kv: kv[1][1])
        ]
        return {
            "counts": np.array(
                [len(way_set) for way_set in self._sets], dtype=np.uint16
            ).tobytes(),
            "tags": np.array([tag for tag, _ in entries], dtype=np.int64).tobytes(),
            "targets": np.array(
                [entry[0] for _, entry in entries], dtype=np.int64
            ).tobytes(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (geometry must match)."""
        counts, (tags, targets) = unpack_sets(
            state, self.num_sets, self.assoc, _IBTB_FIELDS, "iBTB"
        )
        tags, targets = tags.tolist(), targets.tolist()
        pos = 0
        for way_set, n in zip(self._sets, counts.tolist()):
            way_set.clear()
            for i in range(pos, pos + n):
                self._stamp += 1
                way_set[tags[i]] = (targets[i], self._stamp)
            pos += n
        self.hits = state["hits"]
        self.misses = state["misses"]


class IndirectTargetBufferC(IndirectTargetBuffer):
    """Compiled-kernel iBTB: predict/train as single C calls per branch.

    Same stamp-array replacement as :class:`BranchTargetBufferC`.  The
    set/tag hash stays in Python (a handful of integer ops on values the
    caller already holds); the descriptor shares the BTB kernel's layout with
    tags stored in the ``pcs`` array and the ``kinds`` plane unused.
    """

    def __init__(self, entries: int, assoc: int, history_bits: int = 12) -> None:
        import numpy as np

        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.history_bits = history_bits
        self._tags = np.full((self.num_sets, assoc), -1, dtype=np.int64)
        self._targets = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._stamps = np.zeros(self.num_sets * assoc, dtype=np.int64)
        di = np.zeros(10, dtype=np.int64)
        di[0] = self._tags.ctypes.data
        di[1] = self._targets.ctypes.data  # kinds plane: never touched for iBTB
        di[2] = self._targets.ctypes.data
        di[3] = self._stamps.ctypes.data
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._dmv = memoryview(di)
        self._desc = int(di.ctypes.data)
        self._k_predict = kernels.ibtb_predict
        self._k_train = kernels.ibtb_train

    def predict(self, pc: int, history: int) -> int | None:
        """Predicted target for the indirect branch at ``pc``, or None."""
        set_index, tag = self._key(pc, history)
        target = self._k_predict(self._desc, set_index, tag)
        return None if target < 0 else target

    def train(self, pc: int, history: int, target: int) -> None:
        """Record the resolved target under the current path history."""
        set_index, tag = self._key(pc, history)
        self._k_train(self._desc, set_index, tag, target)

    @property
    def hits(self) -> int:
        return int(self._dmv[7])

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return int(self._dmv[8])

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    def state_packed(self) -> dict:
        """Same bytes as :meth:`IndirectTargetBuffer.state_packed`."""
        import numpy as np

        counts, ways = lru_slots(self._tags != -1, self._stamps)
        return {
            "counts": counts.astype(np.uint16).tobytes(),
            "tags": self._tags.reshape(-1)[ways].tobytes(),
            "targets": self._targets.reshape(-1)[ways].tobytes(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (geometry must match)."""
        counts, (tags, targets) = unpack_sets(
            state, self.num_sets, self.assoc, _IBTB_FIELDS, "iBTB"
        )
        planes = ((self._tags, -1, tags), (self._targets, 0, targets))
        di = self._di  # di[6]: running stamp, di[9]: occupancy
        di[6] = restore_ways(counts, self.assoc, self._stamps, int(di[6]), planes)
        di[9] = len(tags)
        self.hits = state["hits"]
        self.misses = state["misses"]


def btb_class(compiled: bool | None = None) -> type[BranchTargetBuffer]:
    """The compiled BTB when the kernels are available, else the object oracle."""
    return BranchTargetBufferC if resolve_compiled(compiled) else BranchTargetBuffer


def btb_from_config(config: BranchConfig, compiled: bool | None = None):
    """Construct the branch-discovery BTB.

    ``btb_levels == 1`` gives Table II's monolithic BTB; ``2`` gives the
    related-work hierarchical organization (see
    :mod:`repro.branch.two_level_btb`), whose levels come from the same
    :func:`btb_class` selection.
    """
    if config.btb_levels == 2:
        from repro.branch.two_level_btb import TwoLevelBTB

        return TwoLevelBTB(
            l1_entries=config.l1_btb_entries,
            l1_assoc=config.l1_btb_assoc,
            l2_entries=config.btb_entries,
            l2_assoc=config.btb_assoc,
            compiled=compiled,
        )
    return btb_class(compiled)(config.btb_entries, config.btb_assoc)


def ibtb_from_config(config: BranchConfig, compiled: bool | None = None):
    """Construct the indirect target buffer per Table II."""
    cls = IndirectTargetBufferC if resolve_compiled(compiled) else IndirectTargetBuffer
    return cls(config.ibtb_entries, config.ibtb_assoc)
