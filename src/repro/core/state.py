"""Server-side state containers for CausalEC (Fig. 3 of the paper).

Each server holds:

* ``vc`` -- a vector clock (kept directly on the server),
* ``InQueue`` -- pending ``app`` tuples awaiting causal application,
* ``L``       -- per-object *history lists* of (tag, value) pairs,
* ``DelL``    -- per-object *deletion lists* of (tag, sender) pairs,
* ``M``       -- the codeword symbol plus its per-object tag vector,
* ``ReadL``   -- pending reads (external and ``localhost`` internal),
* ``tmax``    -- per-object garbage-collection watermark.

These containers implement the exact semantics the pseudocode relies on,
plus two bounded-metadata optimisations documented in DESIGN.md (deletion
lists are pruned below the watermark; both preserve every observable
behaviour because tags are totally ordered and watermarks are monotone).

The four mutable containers (history list, deletion list, InQueue, ReadL)
carry a mutation counter ``rev``: every method that changes their content
bumps it, so the write-ahead log (:mod:`repro.core.wal`) finds what changed
since its last commit by comparing counters, without copying or encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .tags import Tag

__all__ = ["HistoryList", "DeletionList", "InQueue", "ReadEntry", "ReadList", "Codeword"]


class _Counted:
    """Base of the mutable containers: ``rev`` counts content changes.

    ``__init__`` starts it at 0, and an unset ``rev`` also reads as 0, so
    the construction paths that bypass ``__init__`` -- the wire decoder
    (``cls.__new__`` + setattr), ``copy.deepcopy`` -- have it too.  It is
    bookkeeping, not state: the wire encoding leaves it out.
    """

    __slots__ = ("rev",)

    def __getattr__(self, name):
        # only reached when normal lookup fails, i.e. for an unset slot
        if name == "rev":
            return 0
        raise AttributeError(name)


class HistoryList(_Counted):
    """History list L[X]: a set of (tag, value) pairs for one object.

    ``highest_tag`` follows the paper's convention: the zero tag when the
    list is empty.
    """

    __slots__ = ("_items", "_zero")

    def __init__(self, zero: Tag):
        self._zero = zero
        self._items: dict[Tag, np.ndarray] = {}
        self.rev = 0

    def add(self, tag: Tag, value: np.ndarray) -> None:
        self._items[tag] = value
        self.rev += 1

    def get(self, tag: Tag) -> np.ndarray | None:
        return self._items.get(tag)

    def remove(self, tag: Tag) -> None:
        if self._items.pop(tag, None) is not None:
            self.rev += 1

    def __contains__(self, tag: Tag) -> bool:
        return tag in self._items

    def __len__(self) -> int:
        return len(self._items)

    def tags(self) -> list[Tag]:
        return list(self._items)

    def items(self) -> list[tuple[Tag, np.ndarray]]:
        return list(self._items.items())

    @property
    def highest_tag(self) -> Tag:
        """L[X].HighestTagged.tag; the zero tag for an empty list."""
        if not self._items:
            return self._zero
        return max(self._items)

    def highest_value(self) -> np.ndarray | None:
        if not self._items:
            return None
        return self._items[self.highest_tag]


class DeletionList(_Counted):
    """Deletion list DelL[X]: per-sender sets of acknowledged tags.

    Supports the three aggregate queries Algorithm 3 needs:

    * ``max_common(nodes)``  -- max(S): the largest tag t such that every
      node in ``nodes`` contributed some tag >= t.  With totally ordered
      tags this is min over nodes of (that node's max contributed tag), or
      None when some node has contributed nothing.
    * ``has_exact_from_all(tag, nodes)`` -- membership of ``tag`` in S-bar:
      every node contributed *exactly* ``tag``.
    * ``max_from(node)`` -- that node's largest contributed tag.
    """

    __slots__ = ("_tags", "_max")

    def __init__(self) -> None:
        self._tags: dict[int, set[Tag]] = {}
        self._max: dict[int, Tag] = {}
        self.rev = 0

    def add(self, tag: Tag, node: int) -> None:
        tags = self._tags.setdefault(node, set())
        if tag in tags:
            return
        tags.add(tag)
        self.rev += 1
        cur = self._max.get(node)
        if cur is None or tag > cur:
            self._max[node] = tag

    def max_from(self, node: int) -> Tag | None:
        return self._max.get(node)

    def max_common(self, nodes) -> Tag | None:
        best: Tag | None = None
        for n in nodes:
            m = self._max.get(n)
            if m is None:
                return None
            if best is None or m < best:
                best = m
        return best

    def has_exact_from_all(self, tag: Tag, nodes) -> bool:
        return all(tag in self._tags.get(n, ()) for n in nodes)

    def max_by_node(self) -> dict[int, Tag]:
        """Per-node maxima: enough for a peer to replay lost ``del``s.

        Aggregate queries compare against maxima (``max_common``,
        ``max_from``) or exact membership of those maxima
        (``has_exact_from_all`` after every node converges on one tag), so
        shipping the maxima reconstructs everything anti-entropy needs.
        """
        return dict(self._max)

    def prune_below(self, watermark: Tag) -> None:
        """Drop tags strictly below ``watermark`` (keeping per-node maxima).

        Safe because every aggregate query compares against maxima or the
        current (monotone) watermark; see DESIGN.md "DelL pruning".
        """
        for n, tags in self._tags.items():
            keep = {t for t in tags if not t < watermark}
            keep.add(self._max[n])
            if len(keep) != len(tags):
                self._tags[n] = keep
                self.rev += 1

    def total_entries(self) -> int:
        return sum(len(v) for v in self._tags.values())


@dataclass
class InQueueEntry:
    """One queued ``app`` tuple: (sender, object, value, tag)."""

    sender: int
    obj: int
    value: np.ndarray
    tag: Tag


class InQueue(_Counted):
    """Pending ``app`` tuples, scanned in tag order for applicability.

    The paper keeps a priority queue and checks only the head; we scan in
    (Lamport, arrival) order and apply the first entry whose causality
    predicate holds, which generalises head-checking (see DESIGN.md).
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[InQueueEntry] = []
        self.rev = 0

    def add(self, entry: InQueueEntry) -> None:
        self._entries.append(entry)
        self._entries.sort(key=lambda e: (e.tag.ts.lamport, e.tag.client_id))
        self.rev += 1

    def __len__(self) -> int:
        return len(self._entries)

    def pop_applicable(self, vc) -> InQueueEntry | None:
        """Remove and return the first entry applicable at vector clock vc.

        Applicability (Algorithm 3 line 4): ``t.ts[p] <= vc[p]`` for every
        ``p != sender`` and ``t.ts[sender] == vc[sender] + 1``.
        """
        for i, e in enumerate(self._entries):
            ts = e.tag.ts
            j = e.sender
            if ts[j] != vc[j] + 1:
                continue
            if all(ts[p] <= vc[p] for p in range(len(vc)) if p != j):
                del self._entries[i]
                self.rev += 1
                return e
        return None

    def purge_covered(self, vc) -> int:
        """Drop entries already covered by ``vc``; returns how many.

        An entry with ``t.ts[sender] <= vc[sender]`` can never again satisfy
        the applicability predicate (``vc`` components are monotone), so
        after a repair merges a peer's clock -- whose causally-closed state
        subsumes these writes, with per-object tags at least as high --
        the entries are dead weight that would hold transient state above
        zero forever.
        """
        before = len(self._entries)
        self._entries = [
            e for e in self._entries if e.tag.ts[e.sender] > vc[e.sender]
        ]
        purged = before - len(self._entries)
        if purged:
            self.rev += 1
        return purged


@dataclass
class ReadEntry:
    """A pending read: (clientid, opid, X, tag-vector, partial symbol vector).

    ``symbols`` is the paper's w-bar: per-server codeword symbols collected
    so far (absent server = the null symbol).
    """

    client_id: int
    opid: Any
    obj: int
    tagvec: dict[int, Tag]
    symbols: dict[int, np.ndarray] = field(default_factory=dict)
    registered_at: float = 0.0


class ReadList(_Counted):
    """Pending-read list ReadL, indexed by operation id."""

    __slots__ = ("_by_opid",)

    def __init__(self) -> None:
        self._by_opid: dict[Any, ReadEntry] = {}
        self.rev = 0

    def add(self, entry: ReadEntry) -> None:
        if entry.opid in self._by_opid:
            raise ValueError(f"duplicate pending read opid {entry.opid!r}")
        self._by_opid[entry.opid] = entry
        self.rev += 1

    def get(self, opid: Any) -> ReadEntry | None:
        return self._by_opid.get(opid)

    def add_symbol(self, entry: ReadEntry, src: int, symbol: np.ndarray) -> None:
        """Record server ``src``'s codeword symbol for a pending read."""
        entry.symbols[src] = symbol
        self.rev += 1

    def remove(self, opid: Any) -> None:
        if self._by_opid.pop(opid, None) is not None:
            self.rev += 1

    def __len__(self) -> int:
        return len(self._by_opid)

    def entries(self) -> list[ReadEntry]:
        return list(self._by_opid.values())

    def for_object(self, obj: int) -> list[ReadEntry]:
        return [e for e in self._by_opid.values() if e.obj == obj]

    def localhost_entry_for(self, obj: int, tag: Tag, localhost: int) -> bool:
        """Is there an internal read for object ``obj`` wanting ``tag``?"""
        return any(
            e.client_id == localhost and e.obj == obj and e.tagvec[obj] == tag
            for e in self._by_opid.values()
        )


@dataclass
class Codeword:
    """M: the stored codeword symbol value and its per-object tag vector."""

    value: np.ndarray
    tagvec: dict[int, Tag]
