"""The three replica-site workloads: set-up, closed loop, correctness gate.

Each workload drives the public API of a master plus one replica site
with a single closed-loop client in this process: the next operation is
issued only when the previous one has completed.  A *step* is one
top-level client action — a query with its due updates and sync round
(``read_hot``, ``poll_churn``) or one tick of updates ended by
``net.settle()`` (``persist_fanout``).  Timed steps call only
``DirectoryServer.add/modify/delete/modify_dn/search``,
``FilterReplica.answer/observe_miss/sync`` and ``net.settle``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence

from repro.core import FilterReplica
from repro.core.containment import containment_cache_metrics
from repro.core.replica import AnswerStatus
from repro.ldap import Entry
from repro.server import DirectoryServer, LdapError, SimulatedNetwork
from repro.sync import BatchConfig, ResyncProvider, SyncedContent

import inputs

_clock = time.perf_counter
_HIT = AnswerStatus.HIT

# --- read_hot / poll_churn --------------------------------------------
#: Stored day-1 hot serialNumber blocks (§7.2(a)'s generalized filters).
HOT_BLOCKS = 80
#: Recent-user-query window (§7.4).
CACHE_CAPACITY = 500
#: Day-1 and day-2 trace length; day 2 is replayed from the start when a
#: run gets through all of it.
QUERIES_PER_DAY = 50_000
#: Trace positions re-answered by the correctness gate.
GATE_SAMPLE = 300

# --- persist_fanout ---------------------------------------------------
PERSIST_SESSIONS = 2000
#: Updates per tick.  Each tick's modifies mostly hit a fresh Zipf-hot
#: subset of DNs, so a hot DN changes several times per tick, which is
#: what per-DN coalescing needs.
TICK_UPDATES = 32
HOT_DNS = 8
#: E19's batch window (benchmarks/bench_persist_fanout.py): flush at
#: once, then coalesce per DN while the consumer applies the last batch.
BATCH = BatchConfig(max_batch=1, max_age_ms=1.0, high_water=1)
CONSUMER_DELAY_MS = 0.05


def _same(held: Dict, truth: Sequence[Entry]) -> bool:
    """DN-by-DN semantic equality of *held* (DN -> entry) and *truth*."""
    if len(held) != len(truth):
        return False
    for entry in truth:
        mine = held.get(entry.dn)
        if mine is None or not mine.semantically_equal(entry):
            return False
    return True


def _numbers(prefixes: Sequence[str], mapping: Dict[str, object]) -> Dict[str, float]:
    return {
        name: value
        for name, value in mapping.items()
        if name.startswith(tuple(prefixes)) and isinstance(value, (int, float))
    }


def _load_master(directory) -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    return master


class Workload:
    """Shared loop state: latency samples, counters, tracer hooks."""

    name = ""
    step_kind = ""
    #: Timed steps per second of ``--seconds``: the workload's rate at
    #: reference host speed (``hostspeed``) at the commit that set it, so
    #: a run makes the same steps whatever the host's speed and lasts
    #: about ``--seconds`` on the reference host.
    steps_per_s = 0

    def __init__(self, seed: int, steps: int):
        """*steps*: the most steps the loop will call, warm-up included."""
        self.seed = seed
        self.steps = steps
        self.tracer = None
        self.query_us: List[float] = []
        self.update_us: List[float] = []
        self.sync_us: List[float] = []
        self.queries = 0
        self.hits = 0
        self.committed = 0
        self.update_failures = 0
        self.sync_rounds = 0
        self.exhausted = False

    # hooks the tracer binds into while a traced chunk runs
    def _begin(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.begin(kind)

    def _end(self) -> None:
        if self.tracer is not None:
            self.tracer.end()

    def drop_site(self) -> None:
        """Forget the built site, so that a rebuild does not stack on it."""
        for name in ("master", "provider", "net", "replica", "contents"):
            self.__dict__.pop(name, None)

    def counts(self) -> Dict[str, float]:
        """Loop tallies plus the program's own counters (no timings)."""
        out = {"updates.committed": self.committed, "updates.failed": self.update_failures}
        out.update(_numbers(("server.plan.", "sync.route."), self.master.metrics.to_dict()))
        out.update(_numbers(("net.traffic.", "sync.batch.", "net.sched.events"), self.net.registry.to_dict()))
        out.update(_numbers(("core.qc.cache.hits", "core.qc.cache.misses"), containment_cache_metrics()))
        return out

    def staleness_ms(self) -> List[float]:
        """Virtual offer-to-delivery latencies of persist notifications."""
        return []

    def _apply(self, op) -> None:
        kind, args = op
        try:
            getattr(self.master, kind)(*args)
        except LdapError:
            self.update_failures += 1
        else:
            self.committed += 1


class ReplicaWorkload(Workload):
    """A branch FilterReplica answering day 2 of the Table 1 trace.

    It stores the day-1 hot serialNumber blocks plus a recent-query
    cache; misses go to ``master.search`` and feed ``observe_miss``.
    Updates are replayed at *updates_per_query* and the replica polls
    every *sync_every* queries (poll-mode ReSync).
    """

    step_kind = "query"
    updates_per_query = 0.0
    sync_every = 1

    def prepare(self) -> None:
        self.directory = inputs.make_directory()
        day1, self.day2 = inputs.make_trace(self.directory, self.seed, QUERIES_PER_DAY)
        self.filters = inputs.hot_block_filters(day1, HOT_BLOCKS)
        capacity = math.ceil(self.steps * self.updates_per_query) + 1
        self.ops = inputs.UpdateSchedule(self.directory, self.seed + 2).take(capacity)

    def build(self) -> None:
        self.master = _load_master(self.directory)
        self.provider = ResyncProvider(self.master)
        self.net = SimulatedNetwork()
        self.replica = FilterReplica(
            "branch", network=self.net, cache_capacity=CACHE_CAPACITY
        )
        for request in self.filters:
            self.replica.add_filter(request, self.provider)
        self._qi = 0
        self._ui = 0
        self._debt = 0.0

    # ------------------------------------------------------------------
    def step(self) -> None:
        day2 = self.day2
        request = day2[self._qi % len(day2)]
        self._qi += 1
        self._begin("query")
        start = _clock()
        answer = self.replica.answer(request)
        if answer.status is _HIT:
            self.hits += 1
        else:
            result = self.master.search(request)
            self.replica.observe_miss(request, result.entries)
        elapsed = _clock() - start
        self._end()
        self.queries += 1
        self.query_us.append(elapsed * 1e6)
        self._debt += self.updates_per_query
        while self._debt >= 1.0:
            self._debt -= 1.0
            if self._ui == len(self.ops):
                self.exhausted = True
                return
            op = self.ops[self._ui]
            self._ui += 1
            self._begin("update")
            start = _clock()
            self._apply(op)
            elapsed = _clock() - start
            self._end()
            self.update_us.append(elapsed * 1e6)
        if self._qi % self.sync_every == 0:
            self._begin("sync")
            start = _clock()
            self.replica.sync(self.provider)
            elapsed = _clock() - start
            self._end()
            self.sync_rounds += 1
            self.sync_us.append(elapsed * 1e6)

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, float]:
        replica = self.replica
        replica.sync_amq_metrics()
        out = super().counts()
        out.update(
            {
                "queries": self.queries,
                "hits": self.hits,
                "sync.rounds": self.sync_rounds,
                "core.query_cache.lookups": replica.cache.lookups,
                "core.query_cache.hits": replica.cache.hits,
                "core.query_cache.checks": replica.cache.containment_checks,
                "core.replica.containment_checks": replica.containment_checks,
            }
        )
        out.update(_numbers(("core.",), replica.metrics.to_dict()))
        return out

    def gate(self) -> Dict[str, int]:
        """Final sync, then stored contents and a sample of re-answered
        queries against the master, DN by DN."""
        self.replica.sync(self.provider)
        checked = failed = 0
        for stored in self.replica.stored_filters():
            checked += 1
            truth = self.master.search(stored.request).entries
            failed += not _same(stored.content.entries, truth)
        skipped = 0
        for index in inputs.sample_indices(self.seed, len(self.day2), GATE_SAMPLE):
            request = self.day2[index]
            answer = self.replica.answer(request)
            if answer.status is not _HIT or answer.answered_by.startswith("cache:"):
                # Misses are the master's own answer; the recent-query
                # window is "cached, never updated" by design (§7.4).
                skipped += 1
                continue
            checked += 1
            truth = self.master.search(request).entries
            failed += not _same({e.dn: e for e in answer.entries}, truth)
        return {"checked": checked, "failed": failed, "skipped": skipped}


class ReadHot(ReplicaWorkload):
    """§7's branch site under a light write trickle."""

    name = "read_hot"
    updates_per_query = 0.02
    sync_every = 1000
    steps_per_s = 4000


class PollChurn(ReplicaWorkload):
    """The same replica with reads beside heavy writes, polled often."""

    name = "poll_churn"
    updates_per_query = 0.3
    sync_every = 50
    steps_per_s = 1300


class PersistFanout(Workload):
    """2000 persist sessions on serialNumber block filters, fed in ticks."""

    name = "persist_fanout"
    step_kind = "tick"
    steps_per_s = 9

    def prepare(self) -> None:
        self.directory = inputs.make_directory()
        self.filters = inputs.all_block_filters(self.directory)
        capacity = self.steps * TICK_UPDATES
        schedule = inputs.UpdateSchedule(self.directory, self.seed + 2, hot=HOT_DNS, burst=TICK_UPDATES)
        self.ops = schedule.take(capacity)

    def build(self) -> None:
        self.master = _load_master(self.directory)
        self.provider = ResyncProvider(self.master)
        self.net = SimulatedNetwork(pipelined=True, batch=BATCH, seed=self.seed)
        self.net.register(self.master)
        self.contents: List[SyncedContent] = []
        for i in range(PERSIST_SESSIONS):
            request = self.filters[i % len(self.filters)]
            content = SyncedContent(request, network=self.net)
            # Late-bound, so a traced chunk sees SyncedContent's wrapper.
            deliveries, handle = self.net.persist_exchange(
                self.provider, request, lambda update, c=content: c.apply_notification(update)
            )
            content.apply(deliveries[-1].response)
            handle.delivery_queue.consumer_delay_ms = CONSUMER_DELAY_MS
            self.contents.append(content)
        self._ui = 0

    # ------------------------------------------------------------------
    def step(self) -> None:
        if self._ui + TICK_UPDATES > len(self.ops):
            self.exhausted = True
            return
        tick = self.ops[self._ui : self._ui + TICK_UPDATES]
        self._ui += TICK_UPDATES
        self._begin("tick")
        starts = []
        for op in tick:
            starts.append(_clock())
            self._apply(op)
        self.net.settle()
        done = _clock()
        self._end()
        self.update_us.extend((done - start) * 1e6 for start in starts)

    def staleness_ms(self) -> List[float]:
        return [lat for queue in self.net.persist_queues.values() for lat in queue.latencies]

    def gate(self) -> Dict[str, int]:
        """Every persist content against the master, DN by DN."""
        self.net.settle()
        truths = {}
        checked = failed = 0
        for content in self.contents:
            checked += 1
            if content.request not in truths:
                truths[content.request] = self.master.search(content.request).entries
            failed += not _same(content.entries, truths[content.request])
        return {"checked": checked, "failed": failed, "skipped": 0}


WORKLOADS = {cls.name: cls for cls in (ReadHot, PersistFanout, PollChurn)}
