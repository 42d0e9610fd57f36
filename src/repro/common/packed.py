"""The packed per-set checkpoint form shared by the set-associative structures.

Caches, the BTB and the iBTB serialize their contents the same way: a
``uint16`` resident count per set, then one flat array per entry field in
set-major LRU->MRU order.  Replacement order is part of the state; the
physical layout (insertion-ordered dicts in the object oracle, stamped ndarray
ways in the compiled layout) is not, so both layouts emit identical bytes and
either restores the other's snapshot.  Pickling the buffers is a memcpy, and
interval sampling serializes every structure once per interval.

numpy is imported lazily, as in the structures themselves: importing the
package must not pay for it.
"""

from __future__ import annotations


def lru_slots(occupied, stamps):
    """``(counts, flat way indices)`` of the occupied ways, packed order.

    ``occupied`` is a ``(num_sets, assoc)`` bool array and ``stamps`` the
    flat recency stamps of the same ways.  One stable argsort orders every
    set at once: empty ways sort last, and stamp ties break by way index.
    """
    import numpy as np

    num_sets, assoc = occupied.shape
    counts = occupied.sum(axis=1)
    key = np.where(
        occupied, stamps.reshape(num_sets, assoc), np.iinfo(np.int64).max
    )
    order = np.argsort(key, axis=1, kind="stable")
    ways = order + np.arange(num_sets, dtype=np.int64)[:, None] * assoc
    return counts, ways[np.arange(assoc)[None, :] < counts[:, None]]


def restore_ways(counts, assoc: int, stamps, stamp: int, planes) -> int:
    """Load a packed snapshot into a stamped ``(num_sets, assoc)`` layout.

    Entry ``i`` of a set goes to way ``i``; the other ways are emptied.
    ``planes`` holds ``(ndarray, empty value, packed values)`` per entry
    field.  Stamps count up from ``stamp + 1`` in set-major LRU->MRU order,
    so the next :func:`lru_slots` emits the entries in the order they
    arrived.  Returns the last stamp used.
    """
    import numpy as np

    total = int(counts.sum())
    sets = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    ways = sets * assoc + np.arange(total, dtype=np.int64) - starts
    for plane, empty, values in planes:
        flat = plane.reshape(-1)
        flat[:] = empty
        flat[ways] = values
    stamps[:] = 0
    stamps[ways] = stamp + 1 + np.arange(total, dtype=np.int64)
    return stamp + total


def unpack_sets(state: dict, num_sets: int, assoc: int, fields: dict, what: str):
    """Decode and validate a packed per-set snapshot.

    ``fields`` maps each entry field's name to its dtype.  Returns
    ``(counts, arrays)`` with ``arrays`` in ``fields`` order; raises
    ValueError naming ``what`` when the snapshot does not fit a
    ``num_sets`` x ``assoc`` structure.
    """
    import numpy as np

    counts = np.frombuffer(state["counts"], dtype=np.uint16).astype(np.int64)
    arrays = [np.frombuffer(state[name], dtype=dtype) for name, dtype in fields.items()]
    total = int(counts.sum())
    if (
        len(counts) != num_sets
        or int(counts.max(initial=0)) > assoc
        or any(len(a) != total for a in arrays)
    ):
        raise ValueError(f"{what} geometry mismatch")
    return counts, arrays
