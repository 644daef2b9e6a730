"""Seeded inputs of the replica-site benchmark.

Everything a timed loop consumes is generated here, before any timing
starts: the Table 1 synthetic enterprise directory (one fixed
directory), and from the workload seed the two-day query trace, the
day-1 hot ``serialNumber`` blocks a branch replica stores, and the
master update schedule.

The update schedule mirrors the operation mix of
:class:`repro.workload.updates.UpdateGenerator` (benign modify,
department change, hire, leave, rename, department-entry modify) but is
recorded as plain operations, without a master: the generator's own
bookkeeping (its ``list.remove`` on leaves and renames) must not be
timed, and replaying a recorded list costs the timed loop nothing but
the directory calls themselves.  It keeps its own view of live
employees, so every operation it emits commits against a master loaded
with the same directory.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from repro.ldap import DN, Entry, Scope, SearchRequest
from repro.server import Modification
from repro.workload import (
    DirectoryConfig,
    EnterpriseDirectory,
    WorkloadConfig,
    WorkloadGenerator,
    generate_directory,
)
from repro.workload.distributions import ZipfSampler
from repro.workload.updates import UpdateConfig

#: Table 1 directory size (§7.1 scaled to a laptop; DESIGN.md §4).
EMPLOYEES = 10_000

#: One update operation: (DirectoryServer method name, positional args).
Op = Tuple[str, tuple]

#: UpdateGenerator's default operation mix: (UpdateConfig weight field,
#: weight).  UpdateSchedule records each kind in the method named after it.
UPDATE_MIX = tuple(
    (f.name, getattr(UpdateConfig(), f.name)) for f in fields(UpdateConfig) if f.name != "seed"
)
#: Zipf exponent of the hot-subset target draw.
ZIPF = 1.1
#: Probability that a modify targets the current hot subset (hot > 0).
HOT_SHARE = 0.8


def make_directory() -> EnterpriseDirectory:
    """The one enterprise directory every seed runs against, as the
    paper's two-day trace ran against one directory; the workload seed
    varies the trace and the update schedule."""
    return generate_directory(DirectoryConfig(employees=EMPLOYEES))


def make_trace(
    directory: EnterpriseDirectory, seed: int, per_day: int
) -> Tuple[List[SearchRequest], List[SearchRequest]]:
    """Day-1 and day-2 root-based requests of one Table 1 trace."""
    trace = WorkloadGenerator(directory, WorkloadConfig(seed=seed + 1)).generate(
        2 * per_day, days=2
    )
    return (
        [record.request for record in trace.day(1)],
        [record.request for record in trace.day(2)],
    )


def hot_block_filters(day1: Sequence[SearchRequest], k: int) -> List[SearchRequest]:
    """The ``(serialNumber=<block>*<CC>)`` filters of the *k* blocks day 1
    queried most, hottest first (ties broken by block, so the choice
    does not depend on hash order)."""
    counts: Counter = Counter()
    for request in day1:
        text = str(request.filter)
        if text.startswith("(serialNumber="):
            value = text[len("(serialNumber=") : -1]
            counts[(value[:4], value[6:])] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [block_filter(block, cc) for (block, cc), _hits in ranked[:k]]


def block_filter(block: str, cc_upper: str) -> SearchRequest:
    return SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc_upper})")


def all_block_filters(directory: EnterpriseDirectory) -> List[SearchRequest]:
    """One filter per serialNumber site block of the directory."""
    return [
        block_filter(block, cc.upper())
        for cc in directory.countries()
        for block in directory.blocks_by_country[cc]
    ]


@dataclass
class _Person:
    """What the schedule needs to know about one live employee."""

    dn: DN
    serial: str
    department: str
    division: str


class UpdateSchedule:
    """Records a stream of master updates against a directory snapshot.

    Args:
        directory: the directory the master is loaded with.
        seed: schedule seed.
        hot: employees in the Zipf-hot subset of each burst (0 = uniform
            targets).  Every *burst* operations draw a fresh hot subset;
            modifies pick a hot target with probability ``HOT_SHARE``.
            Leaves and renames never pick a current hot employee, so hot
            DNs stay live through their burst.  A fresh subset per burst
            makes one run average over many hot DNs instead of resting
            on the few a single draw would pick.
    """

    def __init__(
        self,
        directory: EnterpriseDirectory,
        seed: int,
        hot: int = 0,
        burst: int = 1,
    ):
        self._rng = random.Random(seed)
        self._cold: List[_Person] = [
            _Person(
                e.dn,
                e.first("serialNumber"),
                e.first("departmentNumber"),
                e.first("divisionNumber"),
            )
            for e in directory.all_employees()
        ]
        self._hot_count = hot
        self._burst = burst
        self._hot: Optional[ZipfSampler] = None
        self._departments = [d.dn for d in directory.departments]
        self._divisions = sorted({d.first("divisionNumber") for d in directory.departments})
        self._kinds = [kind for kind, _w in UPDATE_MIX]
        self._weights = [w for _kind, w in UPDATE_MIX]
        self._serial = 0

    def take(self, count: int) -> List[Op]:
        if not self._hot_count:
            return [self._next() for _ in range(count)]
        ops: List[Op] = []
        while len(ops) < count:
            hot = [self._pop_cold() for _ in range(self._hot_count)]
            self._hot = ZipfSampler(hot, ZIPF, rng=self._rng)
            ops.extend(self._next() for _ in range(min(self._burst, count - len(ops))))
            self._cold.extend(hot)
        return ops

    # ------------------------------------------------------------------
    def _next(self) -> Op:
        kind = self._rng.choices(self._kinds, self._weights)[0]
        return getattr(self, f"_{kind}")()

    def _target(self) -> _Person:
        if self._hot is not None and self._rng.random() < HOT_SHARE:
            return self._hot.sample()
        return self._rng.choice(self._cold)

    def _pop_cold(self) -> _Person:
        # Swap-remove keeps the live set O(1) per operation.
        cold = self._cold
        index = self._rng.randrange(len(cold))
        person = cold[index]
        cold[index] = cold[-1]
        cold.pop()
        return person

    def _benign_modify(self) -> Op:
        rng = self._rng
        phone = (
            f"{rng.randrange(200, 999)}-{rng.randrange(100, 999)}"
            f"-{rng.randrange(1000, 9999)}"
        )
        person = self._target()
        return "modify", (person.dn, [Modification.replace("telephoneNumber", phone)])

    def _department_change(self) -> Op:
        person = self._target()
        person.division = self._rng.choice(self._divisions)
        person.department = f"{person.division}{self._rng.randrange(40):02d}"
        return "modify", (
            person.dn,
            [
                Modification.replace("departmentNumber", person.department),
                Modification.replace("divisionNumber", person.division),
            ],
        )

    def _hire(self) -> Op:
        self._serial += 1
        n = self._serial
        template = self._rng.choice(self._cold)
        country_dn = template.dn.parent
        cc = country_dn.rdn.value
        uid = f"newhire{n}"
        entry = Entry(
            country_dn.child(f"cn=New Hire {n}"),
            {
                "objectClass": ["inetOrgPerson", "organizationalPerson", "person", "top"],
                "cn": f"New Hire {n}",
                "sn": "Hire",
                "givenName": "New",
                "uid": uid,
                "mail": f"{uid}@{cc}.xyz.com",
                "serialNumber": f"{template.serial[:4]}{90 + n % 10:02d}{cc.upper()}",
                "departmentNumber": template.department,
                "divisionNumber": template.division,
                "entrySizeBytes": 6000,
            },
        )
        self._cold.append(
            _Person(entry.dn, entry.first("serialNumber"), template.department, template.division)
        )
        return "add", (entry,)

    def _leave(self) -> Op:
        return "delete", (self._pop_cold().dn,)

    def _rename(self) -> Op:
        self._serial += 1
        person = self._pop_cold()
        new_rdn = f"cn={person.dn.rdn.value} (r{self._serial})"
        old_dn = person.dn
        person.dn = old_dn.parent.child(new_rdn)
        self._cold.append(person)
        return "modify_dn", (old_dn, new_rdn)

    def _department_entry_modify(self) -> Op:
        self._serial += 1
        dn = self._rng.choice(self._departments)
        return "modify", (
            dn,
            [Modification.replace("description", f"department (rev {self._serial})")],
        )


def sample_indices(seed: int, population: int, count: int) -> List[int]:
    """A seeded sample of trace positions for the correctness gate."""
    rng = random.Random(seed ^ 0x5EED)
    return sorted(rng.sample(range(population), min(count, population)))

