"""Host-speed reference: a fixed probe timed beside the program.

On a shared host the same code runs up to ~1.8x slower in phases that
last from a second to a minute, and the slowdown is in CPU time too, so
it is not time lost to other processes but a slower core.  Such phases
move every timing of a 10-s run by more than any bound a benchmark can
hold.  The loop therefore times a fixed reference probe between its
chunks (and, from a helper thread, during each set-up) and expresses
each timing at the host speed where the probe takes
:data:`REFERENCE_S`::

    normalised = measured * REFERENCE_S / probe

where ``probe`` is the median of the probe times nearest to the
measurement.  The probe is a fixed mix of small pure-Python kernels
that shares no code or data with the program and touches too little
memory for the program's cache state to matter, so a change to the
program moves the normalised timings as it moves the raw ones; the
host's speed cancels as far as the probe sees it.  Slow phases that hit
code with a large working set harder than the probe are only partly
cancelled.  Raw timings are printed beside the normalised ones.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Sequence

#: The unit in which normalised timings are expressed: the probe's time
#: on a host about half as fast as the 2-vCPU x86 host (Xeon, Python
#: 3.11) this was set on when that host is quiet (~0.27 ms there).
REFERENCE_S = 0.55e-3
#: Probes on each side of a chunk whose median scales it.
WINDOW = 3
#: Seconds between probes while a set-up runs.
SAMPLE_EVERY_S = 0.025

_ROUNDS = 3


class _Slot:
    __slots__ = ("value",)


def _bump(value: int) -> int:
    return value + 1


def _kernels(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        for i in range(600):
            acc += (i * 7) % 13
        table = {}
        for i in range(300):
            table[i] = i
        for i in range(300):
            acc += table[i]
        text = "abcdefgh" * 4
        for _ in range(150):
            acc += len(text.replace("b", "xy"))
        acc += sorted((i * 31) % 97 for i in range(300))[-1]
        slot = _Slot()
        for i in range(300):
            slot.value = i
            acc += slot.value
        for _ in range(300):
            acc = _bump(acc)
    return acc


def probe() -> float:
    """Seconds one run of the reference probe takes now.

    A few small kernels of the kinds of work the program does — integer
    arithmetic, dict stores and loads, string building, a sort, slot
    attribute access, calls — so that no one kind of slowdown of the
    host, and no one accident of memory layout in this process, decides
    the probe's time.  One untimed round first brings the kernels back
    into the caches, so the time does not depend on what the program
    left there.
    """
    _kernels(1)
    started = time.perf_counter()
    _kernels(_ROUNDS)
    return time.perf_counter() - started


class Sampler:
    """Probes the host every :data:`SAMPLE_EVERY_S` on a helper thread
    while a block that cannot be split into chunks (a set-up) runs.

    Each probe holds the interpreter lock while it runs, so the block
    is paused for the probe's duration; :meth:`net` takes that time back
    out of the block's measured time.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.paused = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            started = time.perf_counter()
            self.samples.append(probe())
            self.paused += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(probe())

    def net(self, elapsed: float) -> float:
        """*elapsed* minus the probes' own time."""
        return elapsed - self.paused


def scale(probes: Sequence[float]) -> float:
    """Factor that takes a timing made beside *probes* to reference speed."""
    return REFERENCE_S / statistics.median(probes)


def chunk_scales(probes: Sequence[float]) -> List[float]:
    """Scale factor per chunk, where ``probes[i]`` ran just before chunk
    ``i`` and the last probe just after the last chunk."""
    return [
        scale(probes[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(probes) - 1)
    ]
