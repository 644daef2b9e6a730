"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` installs wrappers around the public entry points of each
layer (class attributes for methods, module attributes for functions)
only while a traced chunk runs, and removes them afterwards, so the
untraced chunks execute the program unmodified.  Each call becomes a
span — name, start, end, parent span, and the id of the top-level
operation (query, update, tick or sync round) that caused it — kept in
memory and written out once at the end.

A layer's self time is its spans' duration minus the part covered by
their direct child spans; the benchmark's own top-level spans
(``bench.*``) collect whatever no wrapped entry point covers.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.core.filter_replica as filter_replica_module
import repro.ldap.ber as ber_module
from repro.core.amq import AdaptiveQuotientFilter
from repro.core.filter_replica import FilterReplica
from repro.core.query_cache import RecentQueryCache
from repro.core.routing import ContainmentIndex
from repro.ldap import Entry
from repro.server import DirectoryServer, SimulatedNetwork
from repro.server.backend import EntryStore
from repro.server.scheduler import DeterministicScheduler
from repro.sync import ResyncProvider, SyncedContent
from repro.sync.delivery import DeliveryQueue
from repro.sync.router import SessionRouter
from repro.sync.session import Session, SessionStore

_clock = time.perf_counter_ns


def _count_len(tally: Dict[str, int], key: str):
    def observe(result) -> None:
        tally[key] += len(result)

    return observe


def _count_hit(tally: Dict[str, int], key: str):
    def observe(result) -> None:
        if result is not None:
            tally[key] += 1

    return observe


def _sum(tally: Dict[str, int], key: str):
    def observe(result) -> None:
        tally[key] += result

    return observe


#: (layer, [(owner, attribute, result observer key or None)]).  The
#: observer keys name tallies the layer ratios are computed from.
LAYERS: Sequence[Tuple[str, Sequence[Tuple[object, str, Optional[str]]]]] = (
    ("core.filter_replica", ((FilterReplica, "answer", None),)),
    (
        "core.routing",
        (
            (ContainmentIndex, "candidates", "routing.candidates"),
            (ContainmentIndex, "memo_get", "routing.memo_hits"),
        ),
    ),
    # Looked up by name in core.filter_replica, so patching the module
    # global times exactly the stored-filter QC checks.
    ("core.containment", ((filter_replica_module, "query_contained_in", None),)),
    (
        "core.query_cache",
        ((RecentQueryCache, "lookup", None), (RecentQueryCache, "insert", None)),
    ),
    (
        "core.amq",
        (
            (AdaptiveQuotientFilter, "contains", None),
            # ``in`` looks the special method up on the type, where it is
            # bound to the original ``contains``.
            (AdaptiveQuotientFilter, "__contains__", None),
            (AdaptiveQuotientFilter, "screen", None),
        ),
    ),
    (
        "sync.consumer",
        (
            (SyncedContent, "evaluate", None),
            (SyncedContent, "apply", None),
            (SyncedContent, "apply_notification", None),
        ),
    ),
    ("ldap.entry", ((Entry, "copy", None),)),
    (
        "server.directory",
        tuple(
            (DirectoryServer, name, None)
            for name in ("search", "add", "modify", "delete", "modify_dn")
        ),
    ),
    (
        "server.backend",
        (
            (EntryStore, "put", None),
            (EntryStore, "delete", None),
            (EntryStore, "plan_for", None),
        ),
    ),
    ("sync.resync", ((ResyncProvider, "on_update", None), (ResyncProvider, "handle", None))),
    ("sync.router", ((SessionRouter, "route_verdicts", None),)),
    ("sync.session", ((Session, "enqueue", None), (SessionStore, "service_poll", None))),
    (
        "sync.delivery",
        ((DeliveryQueue, "offer_many", None), (DeliveryQueue, "flush", None)),
    ),
    ("ldap.ber", ((ber_module, "encoded_sync_batch_size", "ber.bytes"),)),
    (
        "server.network",
        (
            (SimulatedNetwork, "deliver_batch", None),
            (SimulatedNetwork, "charge_sync_batch", None),
            (SimulatedNetwork, "sync_exchange", None),
        ),
    ),
    ("server.scheduler", ((DeterministicScheduler, "run_until_idle", None),)),
)

LAYER_NAMES = [name for name, _entries in LAYERS]

_OBSERVERS: Dict[str, Callable] = {
    "routing.candidates": _count_len,
    "routing.memo_hits": _count_hit,
    "ber.bytes": _sum,
}


class Tracer:
    """Span recorder plus the wrappers it installs per traced chunk."""

    def __init__(self):
        #: (span id, parent id, root id, name index, start ns, end ns,
        #: ns covered by direct children)
        self.spans: List[Tuple[int, int, int, int, int, int, int]] = []
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.tally: Dict[str, int] = {key: 0 for key in _OBSERVERS}
        self._stack: List[list] = []
        self._next_id = 1
        self._root = 0
        self._roots: Dict[str, int] = {}
        self._installed: List[Tuple[object, str, object]] = []
        self._wrappers: List[Tuple[object, str, object]] = []
        for layer, entries in LAYERS:
            for owner, attr, key in entries:
                original = vars(owner)[attr]
                observe = _OBSERVERS[key](self.tally, key) if key else None
                wrapper = self._wrap(layer, f"{layer}:{attr}", original, observe)
                self._wrappers.append((owner, attr, wrapper))

    # ------------------------------------------------------------------
    def _name_index(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer: str, name: str, fn, observe):
        index = self._name_index(layer, name)
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                # Called outside any top-level operation (a callback
                # captured during a traced chunk and run later).
                return fn(*args, **kwargs)
            frame = [0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1][1]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                stack[-1][0] += end - start
                spans.append((frame[1], parent, tracer._root, index, start, end, frame[0]))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for owner, attr, wrapper in self._wrappers:
            self._installed.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def begin(self, kind: str) -> None:
        """Open one top-level operation span (``bench.<kind>``)."""
        index = self._roots.get(kind)
        if index is None:
            index = self._roots[kind] = self._name_index("bench", f"bench.{kind}")
        self._root = self._next_id
        self._next_id += 1
        self._stack.append([0, self._root, index, _clock()])

    def end(self) -> None:
        end = _clock()
        frame = self._stack.pop()
        child, span_id, index, start = frame
        self.spans.append((span_id, 0, span_id, index, start, end, child))

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, int]]:
        """(calls, self ns) per layer, ``bench`` included."""
        totals: Dict[str, List[int]] = {name: [0, 0] for name in LAYER_NAMES}
        totals["bench"] = [0, 0]
        layer_of = self.layer_of
        for _sid, _parent, _root, index, start, end, child in self.spans:
            slot = totals[layer_of[index]]
            slot[0] += 1
            slot[1] += end - start - child
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def calls_of(self, name: str) -> int:
        """Spans recorded for one entry point (``<layer>:<attribute>``)."""
        index = self.names.index(name)
        return sum(1 for span in self.spans if span[3] == index)

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "root", "name", "start_ns", "end_ns"]}) + "\n")
            names = self.names
            for sid, parent, root, index, start, end, _child in self.spans:
                fh.write(f'[{sid},{parent},{root},"{names[index]}",{start},{end}]\n')
        return len(self.spans)
