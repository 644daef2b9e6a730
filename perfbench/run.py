"""Replica-site benchmark: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
A run makes a fixed number of timed steps, ``--seconds`` times the
workload's ``steps_per_s`` (its rate at reference host speed), so every
run of a seed does the same work however fast the host is at the time;
``--ops N`` sets the step count directly (the determinism self-check,
``perfbench/selfcheck.py``).  With ``--trace 0`` the last line carries
the end-to-end metrics of an untraced run; with ``--trace 1`` it carries
the per-layer metrics of a run whose steps alternate between untraced
and traced chunks.  See ``perfbench/README.md`` for every metric's
definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run, back to back before the loop; ``setup_s`` is their
#: median and the loop runs on the last one.
SETUP_REPEATS = 3
#: Steps per chunk.  The host-speed probe runs and the step count is
#: checked between chunks; in a traced run chunks alternate
#: untraced/traced, so both see the same mix of work.
CHUNK_STEPS = {"query": 100, "tick": 1}
#: Untimed steps between the last set-up and the timed loop.
WARMUP_STEPS = {"query": 2000, "tick": 4}
#: Safety limit on the timed loop, far above a normal run.
MAX_LOOP_S = 100


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of *samples* (q in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Current resident set size (``VmRSS``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def _delta(after, before):
    return {k: after[k] - before.get(k, 0) for k in after}


class Loop:
    """The timed closed loop over one workload, in chunks of steps.

    The host-speed probe (:mod:`hostspeed`) runs before every chunk and
    after the last, outside the chunks' timing.  In a traced run chunks
    alternate untraced/traced (starting untraced, ending traced), and
    the program's counters are also summed over the traced chunks alone,
    so traced ratios share one window.
    """

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.chunk = CHUNK_STEPS[wl.step_kind]
        self.wall = {False: 0.0, True: 0.0}
        self.steps = {False: 0, True: 0}
        self.traced_counts = {}
        #: Per chunk: (traced, seconds, sample counts at its start).
        self.chunks = []
        self.probes = []
        self._traced = True  # flipped before the first chunk

    def warm_up(self) -> None:
        """Untimed steps, so caches and indexes are warm when timing starts."""
        wl = self.wl
        for _ in range(WARMUP_STEPS[wl.step_kind]):
            wl.step()
        for samples in (wl.query_us, wl.update_us, wl.sync_us):
            samples.clear()

    def run(self, steps: int) -> None:
        """Run chunks until *steps* steps ran (a traced run then ends
        after a traced chunk), or at most :data:`MAX_LOOP_S`."""
        wl, tracer = self.wl, self.tracer
        deadline = time.perf_counter() + MAX_LOOP_S
        self.probes.append(hostspeed.probe())
        while not wl.exhausted:
            traced = self._traced = tracer is not None and not self._traced
            if traced:
                before = wl.counts()
                tracer.install()
                wl.tracer = tracer
            mark = (len(wl.query_us), len(wl.update_us), len(wl.sync_us))
            started = time.perf_counter()
            for _ in range(self.chunk):
                wl.step()
                if wl.exhausted:
                    break
            elapsed = time.perf_counter() - started
            if traced:
                wl.tracer = None
                tracer.uninstall()
                for key, value in _delta(wl.counts(), before).items():
                    self.traced_counts[key] = self.traced_counts.get(key, 0) + value
            self.probes.append(hostspeed.probe())
            self.chunks.append((traced, elapsed, mark))
            self.wall[traced] += elapsed
            self.steps[traced] += self.chunk
            if sum(self.steps.values()) >= steps and (tracer is None or traced):
                return
            if time.perf_counter() >= deadline:
                print(f"warning: {wl.name} stopped at the {MAX_LOOP_S}-s loop limit", flush=True)
                return
        print(f"warning: {wl.name} ran out of pre-generated updates", flush=True)

    def normalised(self):
        """Untraced wall time and latency samples at reference host speed:
        ``(wall_s, query_us, update_us, sync_us)``."""
        wl = self.wl
        series = (wl.query_us, wl.update_us, wl.sync_us)
        wall = 0.0
        scaled = ([], [], [])
        ends = [mark for _t, _s, mark in self.chunks[1:]] + [tuple(len(s) for s in series)]
        factors = hostspeed.chunk_scales(self.probes)
        for (traced, elapsed, mark), end, factor in zip(self.chunks, ends, factors):
            if traced:
                continue
            wall += elapsed * factor
            for samples, out, lo, hi in zip(series, scaled, mark, end):
                out.extend(x * factor for x in samples[lo:hi])
        return (wall,) + scaled


def run(workload_name: str, seed: int, seconds: float, trace: bool, ops: int = 0):
    from repro.core.containment import clear_containment_cache

    import workloads

    cls = workloads.WORKLOADS[workload_name]
    kind = cls.step_kind
    steps = ops or max(CHUNK_STEPS[kind], math.ceil(seconds * cls.steps_per_s))
    # Room for the warm-up and for the traced chunk a traced run ends on.
    wl = cls(seed, WARMUP_STEPS[kind] + steps + CHUNK_STEPS[kind])
    started = time.perf_counter()
    wl.prepare()
    inputs_s = time.perf_counter() - started
    gc.collect()
    base_rss = rss_mb()

    setups = []
    for _ in range(SETUP_REPEATS):
        wl.drop_site()
        gc.collect()
        with hostspeed.Sampler() as host:
            started = time.perf_counter()
            wl.build()
            elapsed = time.perf_counter() - started
        setups.append((elapsed, host.net(elapsed) * hostspeed.scale(host.samples)))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    clear_containment_cache()
    gc.collect()
    gc.freeze()

    loop = Loop(wl, tracer)
    loop.warm_up()
    base = wl.counts()
    loop.run(steps)
    peak = peak_rss_mb()
    counts = _delta(wl.counts(), base)
    started = time.perf_counter()
    gate = wl.gate()
    gate_s = time.perf_counter() - started
    gc.unfreeze()
    return {
        "wl": wl,
        "inputs_s": inputs_s,
        "setups": setups,
        "loop": loop,
        "wall": loop.wall,
        "steps": loop.steps,
        "counts": counts,
        "traced_counts": loop.traced_counts,
        "tracer": tracer,
        "gate": gate,
        "gate_s": gate_s,
        "staleness_ms": wl.staleness_ms(),
        "inputs_rss_mb": base_rss,
        "peak_rss_mb": peak,
    }


# ----------------------------------------------------------------------
# end-to-end metrics (untraced run)
# ----------------------------------------------------------------------
def end_to_end(res):
    """Rows ``(name, value, unit, samples)``: the JSON metrics, then the
    report-only detail.  Timings are at reference host speed
    (:mod:`hostspeed`); the raw figures follow as ``raw.*``."""
    wl = res["wl"]
    counts = res["counts"]
    wall, query_us, update_us, sync_us = res["loop"].normalised()
    raw_wall = res["wall"][False]
    op_us = query_us + update_us
    raw_op_us = wl.query_us + wl.update_us
    committed = counts["updates.committed"]
    delivered = counts.get("sync.batch.delivered", 0)
    setups = res["setups"]
    rows = [
        ("setup_s", statistics.median(s for _raw, s in setups), "s", len(setups)),
        ("peak_rss_mb", res["peak_rss_mb"] - res["inputs_rss_mb"], "MB", None),
        ("op_per_s", len(op_us) / wall, "1/s", None),
        ("op_p50_us", percentile(op_us, 50), "us", len(op_us)),
        ("op_p99_us", percentile(op_us, 99), "us", len(op_us)),
        ("wire_bytes_per_update", counts["net.traffic.bytes_sent"] / max(committed, 1), "B", committed),
    ]
    detail = []
    if query_us:
        detail += [
            ("query_per_s", len(query_us) / wall, "1/s", None),
            ("query_p50_us", percentile(query_us, 50), "us", len(query_us)),
            ("query_p99_us", percentile(query_us, 99), "us", len(query_us)),
            ("hit_ratio", counts["hits"] / max(counts["queries"], 1), "fraction", counts["queries"]),
        ]
    if update_us:
        detail += [
            ("update_per_s", committed / wall, "1/s", None),
            ("update_p50_us", percentile(update_us, 50), "us", len(update_us)),
            ("update_p99_us", percentile(update_us, 99), "us", len(update_us)),
        ]
    if delivered:
        stale = res["staleness_ms"]
        detail += [
            ("notify_per_s", delivered / wall, "1/s", None),
            ("notify_per_update", delivered / max(committed, 1), "ratio", committed),
            ("staleness_p99_virtual_ms", percentile(stale, 99), "ms", len(stale)),
        ]
    if sync_us:
        detail.append(("sync_round_p50_us", percentile(sync_us, 50), "us", len(sync_us)))
    detail += [
        ("raw.setup_s", statistics.median(raw for raw, _s in setups), "s", len(setups)),
        ("raw.op_per_s", len(raw_op_us) / raw_wall, "1/s", None),
        ("raw.op_p50_us", percentile(raw_op_us, 50), "us", len(raw_op_us)),
        ("raw.op_p99_us", percentile(raw_op_us, 99), "us", len(raw_op_us)),
        ("host.probe_p50_us", statistics.median(res["loop"].probes) * 1e6, "us", len(res["loop"].probes)),
    ]
    return rows, detail


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------
def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(res):
    from spans import LAYER_NAMES

    tracer = res["tracer"]
    c = res["traced_counts"]
    wall_ns = res["wall"][True] * 1e9
    totals = tracer.layer_totals()
    metrics = {}
    table = []
    for layer in LAYER_NAMES + ["bench"]:
        calls, self_ns = totals[layer]
        self_us = _ratio(self_ns / 1e3, calls)
        share = _ratio(self_ns, wall_ns)
        table.append((layer, calls, self_us, share))
        if layer != "bench":
            metrics[f"{layer}.calls"] = (calls, "count")
            metrics[f"{layer}.self_us"] = (self_us, "us")
            metrics[f"{layer}.share"] = (share, "fraction")
    calls = {layer: totals[layer][0] for layer in LAYER_NAMES}
    tally = tracer.tally
    queries = c.get("queries", 0)
    committed = c.get("updates.committed", 0)
    delivered = c.get("sync.batch.delivered", 0)
    memo_lookups = tracer.calls_of("core.routing:memo_get")
    qc_hits = c.get("core.qc.cache.hits", 0)
    qc_total = qc_hits + c.get("core.qc.cache.misses", 0)
    amq_lookups = sum(v for k, v in c.items() if k.startswith("core.amq.lookups"))
    amq_negatives = sum(v for k, v in c.items() if k.startswith("core.amq.negatives"))
    ratios = {
        "core.routing.candidates_per_query": _ratio(tally["routing.candidates"], queries),
        "core.routing.memo_hit_ratio": _ratio(tally["routing.memo_hits"], memo_lookups),
        "core.containment.checks_per_query": _ratio(calls["core.containment"], queries),
        "core.qc.cache.hit_ratio": _ratio(qc_hits, qc_total),
        "core.query_cache.hit_ratio": _ratio(c.get("core.query_cache.hits", 0), c.get("core.query_cache.lookups", 0)),
        "core.query_cache.checks_per_lookup": _ratio(c.get("core.query_cache.checks", 0), c.get("core.query_cache.lookups", 0)),
        "core.amq.negative_ratio": _ratio(amq_negatives, amq_lookups),
        "ldap.entry.copies_per_update": _ratio(calls["ldap.entry"], committed),
        "server.plan.examined_per_match": _ratio(c.get("server.plan.examined", 0), c.get("server.plan.matched", 0)),
        "sync.router.candidates_per_update": _ratio(c.get("sync.route.candidates", 0), committed),
        "sync.router.useful_ratio": _ratio(c.get("sync.route.notified", 0), c.get("sync.route.candidates", 0)),
        "sync.session.enqueues_per_update": _ratio(tracer.calls_of("sync.session:enqueue"), committed),
        "sync.batch.coalescing": _ratio(c.get("sync.batch.offered", 0), delivered),
        "sync.batch.per_flush": _ratio(delivered, c.get("sync.batch.flushes", 0)),
        "ldap.ber.bytes_per_notify": _ratio(tally["ber.bytes"], delivered),
        "ldap.ber.encodes_per_update": _ratio(calls["ldap.ber"], committed),
        "server.scheduler.events_per_update": _ratio(c.get("net.sched.events", 0), committed),
    }
    for name, value in ratios.items():
        metrics[name] = (value, "ratio")
    untraced = _ratio(res["wall"][False], res["steps"][False])
    traced = _ratio(res["wall"][True], res["steps"][True])
    metrics["trace.overhead_frac"] = (_ratio(traced - untraced, untraced), "fraction")
    return metrics, table


# ----------------------------------------------------------------------
def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many steps")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    wl = res["wl"]
    gate = res["gate"]
    counts = res["counts"]
    steps = sum(res["steps"].values())
    attempted = (
        counts.get("queries", 0) + counts["updates.committed"] + counts["updates.failed"] + gate["checked"]
    )
    failed = counts["updates.failed"] + gate["failed"]
    correct = gate["failed"] == 0 and not wl.exhausted

    print(f"== perfbench {wl.name} seed={args.seed} trace={args.trace} steps={steps} ==")
    print(
        f"inputs_s {res['inputs_s']:.3f}  setups_s {[round(raw, 3) for raw, _s in res['setups']]}"
        f"  loop_s {sum(res['wall'].values()):.3f}  gate_s {res['gate_s']:.3f}"
    )
    print(f"rss_mb: inputs {res['inputs_rss_mb']:.1f}  peak {res['peak_rss_mb']:.1f}")
    print(f"gate: checked={gate['checked']} failed={gate['failed']} skipped={gate['skipped']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if args.ops:
        print("COUNTS " + json.dumps(_count_metrics(res), sort_keys=True))

    metrics = {}
    if args.trace:
        layer_metrics, table = per_layer(res)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{wl.name}.jsonl")
        written = res["tracer"].write(path)
        print(f"{'layer':<22} {'calls':>9} {'self us/call':>13} {'share':>8}")
        for layer, calls, self_us, share in table:
            print(f"{layer:<22} {calls:>9} {self_us:>13.3f} {share:>8.4f}")
        for name, (value, unit) in layer_metrics.items():
            if not name.endswith((".calls", ".self_us", ".share")):
                print(f"{name} {_fmt(value)} {unit}")
        print(f"spans: {written} written to {os.path.relpath(path, ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()}
    else:
        rows, detail = end_to_end(res)
        for name, value, unit, n in rows + detail:
            suffix = f" (n={n})" if n is not None else ""
            print(f"{name} {_fmt(value)} {unit}{suffix}")
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _n in rows}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _count_metrics(res):
    """Every count the determinism self-check compares (no timings)."""
    out = dict(res["counts"])
    out["gate.checked"] = res["gate"]["checked"]
    out["gate.failed"] = res["gate"]["failed"]
    stale = res["staleness_ms"]
    if stale:
        out["staleness_p99_virtual_ms"] = percentile(stale, 99)
    return out


if __name__ == "__main__":
    sys.exit(main())
