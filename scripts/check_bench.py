#!/usr/bin/env python3
"""Benchmark baseline gate.

Validates a `pdm-bench` JSON artifact (schema + structural invariants)
and, when given both a current run and the committed baseline, fails on
wall-clock regressions beyond a tolerance.

Structural invariants (always checked on the current file):
  * the loser-tree merge must beat the BinaryHeap reference on every
    `kway_merge_*` row — the whole point of the kernel;
  * the in-memory sort kernel (`kernels` rows with `radix_bytes`): where
    it radix-sorts (`radix_bytes` > 0) it must beat `sort_unstable` on the
    same keys, and on a column of sorted segments the loser-tree merge
    too; where it falls back (`radix_bytes` 0) it must stay within 10% of
    the kernel it then runs after one scan, `sort_unstable` on a run and
    the loser tree on a column. The artifact must hold rows on both sides
    of the radix gate;
  * the run-formation A/B section: up/down run formation may never read
    more passes than greedy on any benched workload, and on the
    nearly-sorted workload it must strictly win with an average run
    length above memory (that is the 2-competitive strategy's whole
    claim — adaptive runs ≫ M on favorable inputs).

Overlap artifact (--overlap BENCH_overlap.json): validates the schema of
the read-ahead/write-behind A/B rows and gates the headline claim —
`seven_pass` with overlap on the latency-injected threaded backend must
beat blocking I/O by more than 45% wall-clock, `expected_two_pass` and
every other row must improve at all, every row's write-behind stall rate
must stay at or under 75%, and `seven_pass`'s stall share (the part of
its overlap leg's run wall time spent waiting in retirement) at or under
45%. A flush "stall" only means the write-behind window was full and the
caller waited on the oldest flush — a saturated write worker stalls on
most batches while still hiding much of the wall clock, so that gate is
set to catch near-total serialization (stall rate approaching 100%), not
steady-state back-pressure; it counts waits, not time waited. It applies
only to a row whose overlap leg runs above 1.6x its I/O floor,
max(prefetch_batches, flush_batches) x latency_us: a leg at or below
that already runs at the disks' speed, and whether a flush finds its
batch done there is scheduling noise (the row is printed as not gated,
with the reason). Pass counts
in the artifact are recorded from legs the bench itself asserts
identical, so no cross-leg check is needed here. Both A/B artifacts also
fold the wall-clock telemetry of the overlap leg into each row — merged
per-disk read/write service-latency p50/p99 plus the stall share of the
run — and those are gated too: percentiles must be present and non-zero,
p50 <= p99, and the stall share must be a valid fraction.

Real-disk artifact (--real-disk BENCH_realdisk.json): validates the
async-file backend A/B artifact and gates the headline real-disk claim —
`seven_pass` with overlap on must strictly beat overlap off. The smoke
run lands on tmpfs where I/O latency is tiny, so the gate only demands a
strict win (improvement > 0), not the 45% floor the latency-simulated
overlap artifact earns. The mergesort baseline row, timed with the same
overlap-off/overlap-on A/B (its improvement is informational), must be
present, and
every sorter row must stay within the paper's constant pass budget (the
baseline's own pass count grows with n, so at smoke sizes it is not a
useful yardstick).

Fault artifact (--fault BENCH_fault.json): validates the fault-tolerance
overhead artifact and gates the "free when nothing fails" claim — arming
the full stack (file fault shim at a zero rate, completion-time retry,
checksums when compiled in) may cost at most 5% wall-clock over the
plain async-file stack, and the injected leg must show the machinery
actually healing retries.

Regression check (only for rows whose identity — name plus n/k/backend —
appears in both files): ns_per_key / loser_ns_per_key / wall_ms may not
exceed baseline by more than --tolerance (default 25%). Quick-mode runs
use smaller sizes, so most rows simply don't match the full-mode
baseline and only the schema + invariants apply.

Usage:
    scripts/check_bench.py --current out.json [--baseline BENCH_kernels.json]
                           [--tolerance 0.25] [--overlap BENCH_overlap.json]
    scripts/check_bench.py --real-disk BENCH_realdisk.json
"""

import argparse
import json
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def require(obj, key, typ, ctx):
    if key not in obj:
        fail(f"{ctx}: missing key '{key}'")
        return None
    val = obj[key]
    if typ is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            fail(f"{ctx}: '{key}' should be a number, got {type(val).__name__}")
            return None
        return float(val)
    if not isinstance(val, typ):
        fail(f"{ctx}: '{key}' should be {typ.__name__}, got {type(val).__name__}")
        return None
    return val


def check_schema(doc, path):
    require(doc, "schema_version", int, path)
    require(doc, "quick", bool, path)
    for row in require(doc, "kernels", list, path) or []:
        ctx = f"{path}:kernels[{row.get('name', '?')}]"
        require(row, "name", str, ctx)
        require(row, "n", int, ctx)
        require(row, "ns_per_key", float, ctx)
        require(row, "allocs", int, ctx)
        if "radix_bytes" in row:
            require(row, "keys", str, ctx)
            require(row, "radix_bytes", int, ctx)
            require(row, "sort_unstable_ns_per_key", float, ctx)
            if "loser_ns_per_key" in row:
                require(row, "k", int, ctx)
                require(row, "loser_ns_per_key", float, ctx)
    for row in require(doc, "merges", list, path) or []:
        ctx = f"{path}:merges[{row.get('name', '?')}]"
        require(row, "name", str, ctx)
        require(row, "n", int, ctx)
        require(row, "k", int, ctx)
        require(row, "heap_ns_per_key", float, ctx)
        require(row, "loser_ns_per_key", float, ctx)
    for row in require(doc, "algorithms", list, path) or []:
        ctx = f"{path}:algorithms[{row.get('name', '?')}]"
        require(row, "name", str, ctx)
        require(row, "backend", str, ctx)
        require(row, "n", int, ctx)
        require(row, "wall_ms", float, ctx)
        require(row, "read_passes", float, ctx)
        require(row, "write_passes", float, ctx)
    for row in require(doc, "run_gen", list, path) or []:
        ctx = f"{path}:run_gen[{row.get('workload', '?')}]"
        require(row, "workload", str, ctx)
        require(row, "n", int, ctx)
        require(row, "m", int, ctx)
        require(row, "greedy_runs", int, ctx)
        require(row, "greedy_read_passes", float, ctx)
        require(row, "greedy_write_passes", float, ctx)
        require(row, "updown_runs", int, ctx)
        require(row, "updown_avg_run_len", float, ctx)
        require(row, "updown_merge_levels", int, ctx)
        require(row, "updown_read_passes", float, ctx)
        require(row, "updown_write_passes", float, ctx)
        require(row, "mergesort_read_passes", float, ctx)
        require(row, "mergesort_write_passes", float, ctx)


def check_invariants(doc, path):
    for row in doc.get("merges", []):
        name, n = row.get("name", "?"), row.get("n", 0)
        heap = row.get("heap_ns_per_key", 0.0)
        loser = row.get("loser_ns_per_key", float("inf"))
        if not loser < heap:
            fail(
                f"{path}: {name} n={n}: loser tree ({loser:.2f} ns/key) does "
                f"not beat heap ({heap:.2f} ns/key)"
            )
        else:
            print(f"  ok: {name} n={n}: loser {loser:.2f} < heap {heap:.2f} "
                  f"ns/key ({heap / loser:.2f}x)")
    check_sort_kernel_invariants(doc, path)
    check_run_gen_invariants(doc, path)


# Where the sort kernel falls back it runs `sort_unstable` (on a column,
# the loser tree) after one scan of the run, which may cost at most this
# fraction of the kernel it falls back to.
SORT_FALLBACK_MAX_OVERHEAD = 0.10


def check_sort_kernel_invariants(doc, path):
    """Gate the radix sort kernel against the comparison kernels."""
    rows = [row for row in doc.get("kernels", []) if "radix_bytes" in row]
    if not any(row.get("radix_bytes", 0) > 0 for row in rows):
        fail(f"{path}: no sort-kernel row takes the radix path")
    if not any(row.get("radix_bytes", 0) == 0 for row in rows):
        fail(f"{path}: no sort-kernel row falls back to sort_unstable")
    for row in rows:
        ident = (f"{row.get('name', '?')} {row.get('keys', '?')} "
                 f"n={row.get('n', 0)}")
        kernel = row.get("ns_per_key", float("inf"))
        plain = row.get("sort_unstable_ns_per_key", 0.0)
        if row.get("radix_bytes", 0) > 0:
            if not kernel < plain:
                fail(f"{path}: {ident}: radix path ({kernel:.2f} ns/key) does "
                     f"not beat sort_unstable ({plain:.2f} ns/key)")
            else:
                print(f"  ok: {ident}: radix over {row['radix_bytes']} bytes "
                      f"{kernel:.2f} < sort_unstable {plain:.2f} ns/key")
            loser = row.get("loser_ns_per_key")
            if loser is not None and not kernel < loser:
                fail(f"{path}: {ident}: radix path ({kernel:.2f} ns/key) does "
                     f"not beat the loser-tree merge ({loser:.2f} ns/key)")
            elif loser is not None:
                print(f"  ok: {ident}: radix {kernel:.2f} < loser tree "
                      f"{loser:.2f} ns/key")
        else:
            name, base = "sort_unstable", plain
            if row.get("loser_ns_per_key") is not None:
                name, base = "the loser tree", row["loser_ns_per_key"]
            if kernel > (1.0 + SORT_FALLBACK_MAX_OVERHEAD) * base:
                fail(f"{path}: {ident}: fallback ({kernel:.2f} ns/key) costs "
                     f"more than {SORT_FALLBACK_MAX_OVERHEAD:.0%} over {name} "
                     f"({base:.2f} ns/key)")
            else:
                print(f"  ok: {ident}: fallback {kernel:.2f} within "
                      f"{SORT_FALLBACK_MAX_OVERHEAD:.0%} of {name} "
                      f"{base:.2f} ns/key")


def check_run_gen_invariants(doc, path):
    """Gate the greedy-vs-up/down run-formation A/B.

    Up/down replacement selection is 2-competitive in run count, so on
    every benched workload its merge phase may not read more passes than
    greedy's fixed seven. On nearly-sorted input the strategy must
    actually cash in: strictly fewer read passes than greedy, runs
    strictly fewer than greedy's ⌈n/M⌉, and an average run length above
    memory capacity M.
    """
    rows = doc.get("run_gen", [])
    if not rows:
        fail(f"{path}: run_gen section is missing or empty")
        return
    by_workload = {row.get("workload"): row for row in rows}
    if "nearly-sorted" not in by_workload:
        fail(f"{path}: no run_gen row for the nearly-sorted workload")
    for row in rows:
        w, n = row.get("workload", "?"), row.get("n", 0)
        ident = f"run_gen {w} n={n}"
        grp = row.get("greedy_read_passes", 0.0)
        urp = row.get("updown_read_passes", float("inf"))
        if row.get("greedy_runs", 0) <= 0 or row.get("updown_runs", 0) <= 0:
            fail(f"{path}: {ident}: a leg produced zero runs")
        if grp <= 0 or urp <= 0:
            fail(f"{path}: {ident}: pass counters are empty — a leg did no I/O")
        if urp > grp:
            fail(f"{path}: {ident}: up/down reads {urp} passes > greedy's "
                 f"{grp} — the adaptive strategy lost its 2-competitive edge")
        else:
            print(f"  ok: {ident}: up/down {urp} <= greedy {grp} read passes "
                  f"({row.get('updown_runs')} vs {row.get('greedy_runs')} runs)")
    ns = by_workload.get("nearly-sorted")
    if ns is not None:
        ident = f"run_gen nearly-sorted n={ns.get('n', 0)}"
        if not ns.get("updown_read_passes", float("inf")) < ns.get(
                "greedy_read_passes", 0.0):
            fail(f"{path}: {ident}: up/down does not strictly beat greedy "
                 f"on the workload built for it")
        if not ns.get("updown_runs", float("inf")) < ns.get("greedy_runs", 0):
            fail(f"{path}: {ident}: up/down cut no fewer runs than greedy")
        avg, m = ns.get("updown_avg_run_len", 0.0), ns.get("m", 0)
        if avg <= m:
            fail(f"{path}: {ident}: average up/down run length {avg:.0f} "
                 f"<= M={m} — runs never grew past memory")
        else:
            print(f"  ok: {ident}: avg run length {avg:.0f} = "
                  f"{avg / max(m, 1):.1f}x memory capacity")


# Floors on (blocking - overlap) / blocking. seven_pass holds the bar for
# the coalesced deep pipeline; expected_two_pass must at least win, which
# proves the speculative pass-2 prefetch is not a regression in disguise.
OVERLAP_MIN_IMPROVEMENT = {"seven_pass": 0.45, "expected_two_pass": 0.0}
OVERLAP_MAX_FLUSH_STALL_RATE = 0.75
# The flush-stall ceiling holds only for a row whose overlap leg runs above
# this multiple of its I/O floor, max(prefetch_batches, flush_batches) x
# latency_us. Over 20 quick runs a side on a shared 2-core box
# (EXPERIMENTS.md, "Three-pass sorts in place") the healthy legs read
# 1.06-1.73x their floor, the three-pass and seven_pass legs all under
# 1.6x, and a build whose write-behind drained every batch before
# returning read 1.74-2.45x with 100% flush stalls on every row.
OVERLAP_FLUSH_GATE_FLOOR_FACTOR = 1.6
# Ceiling on the share of run wall time the overlap leg spends blocked in
# retirement waits. With grouped submissions amortizing the per-batch seek
# charge, seven_pass's quick run read 0.34-0.41 on a shared 2-core box
# (14 runs); 0.45 catches a regression to the serialized-seek regime
# (where it measured ~0.7).
OVERLAP_MAX_STALL_SHARE = {"seven_pass": 0.45}


def check_wall_percentiles(row, ctx):
    """Schema + sanity for the folded wall-clock latency fields.

    Every A/B row, the real-disk baseline's included, carries the merged
    per-disk service-latency percentiles of its overlap leg. The recording
    backends time every kernel round, so a row that did I/O must report
    non-zero read and write percentiles, each p50 must not exceed its
    p99, and the stall share is a fraction of the stamped run wall time.
    """
    for key in ("read_p50_us", "read_p99_us", "write_p50_us",
                "write_p99_us", "stall_share"):
        require(row, key, float, ctx)
    for d in ("read", "write"):
        p50 = row.get(f"{d}_p50_us", 0.0)
        p99 = row.get(f"{d}_p99_us", 0.0)
        if p50 <= 0.0 or p99 <= 0.0:
            fail(f"{ctx}: {d} latency percentiles are zero — the backend "
                 f"recorded no wall-clock samples")
        elif p50 > p99:
            fail(f"{ctx}: {d} p50 {p50:.1f}µs exceeds p99 {p99:.1f}µs")
        else:
            print(f"  ok: {ctx}: {d} p50 {p50:.1f}µs <= p99 {p99:.1f}µs")
    share = row.get("stall_share", 0.0)
    if not 0.0 <= share <= 1.0:
        fail(f"{ctx}: stall_share {share} outside [0, 1]")
    else:
        print(f"  ok: {ctx}: stall share {share:.1%} of run wall time")


def check_overlap_schema(doc, path):
    require(doc, "schema_version", int, path)
    require(doc, "quick", bool, path)
    for row in require(doc, "overlap", list, path) or []:
        ctx = f"{path}:overlap[{row.get('name', '?')}]"
        require(row, "name", str, ctx)
        require(row, "n", int, ctx)
        require(row, "latency_us", int, ctx)
        require(row, "wall_ms_blocking", float, ctx)
        require(row, "wall_ms_overlap", float, ctx)
        require(row, "improvement", float, ctx)
        require(row, "read_passes", float, ctx)
        require(row, "write_passes", float, ctx)
        require(row, "prefetch_batches", int, ctx)
        require(row, "prefetch_stalls", int, ctx)
        require(row, "flush_batches", int, ctx)
        require(row, "flush_stalls", int, ctx)
        check_wall_percentiles(row, ctx)


def check_overlap_invariants(doc, path):
    rows = doc.get("overlap", [])
    if not rows:
        fail(f"{path}: overlap artifact has no rows")
    names = {row.get("name") for row in rows}
    for wanted in OVERLAP_MIN_IMPROVEMENT:
        if wanted not in names:
            fail(f"{path}: no overlap row for '{wanted}'")
    for row in rows:
        name, n = row.get("name", "?"), row.get("n", 0)
        ident = f"{name} n={n}"
        imp = row.get("improvement", 0.0)
        floor = OVERLAP_MIN_IMPROVEMENT.get(name, 0.0)
        if imp <= floor:
            fail(f"{path}: {ident}: overlap improvement {imp:.1%} <= "
                 f"required floor {floor:.0%}")
        else:
            print(f"  ok: {ident}: overlap beats blocking by {imp:.1%} "
                  f"(floor {floor:.0%})")
        if row.get("read_passes", 0) <= 0 or row.get("write_passes", 0) <= 0:
            fail(f"{path}: {ident}: pass counters are empty — the A/B "
                 f"legs did no I/O")
        batches = row.get("flush_batches", 0)
        if batches:
            stall_rate = row.get("flush_stalls", 0) / batches
            floor_ms = (max(row.get("prefetch_batches", 0), batches)
                        * row.get("latency_us", 0) / 1000.0)
            wall_ms = row.get("wall_ms_overlap", 0.0)
            if floor_ms > 0 and wall_ms <= OVERLAP_FLUSH_GATE_FLOOR_FACTOR * floor_ms:
                print(f"  ok: {ident}: flush stall rate {stall_rate:.1%} not "
                      f"gated — the overlap leg ({wall_ms:.1f} ms) runs at "
                      f"{wall_ms / floor_ms:.2f}x its I/O floor "
                      f"({floor_ms:.1f} ms), within "
                      f"{OVERLAP_FLUSH_GATE_FLOOR_FACTOR}x: it already "
                      f"runs at the disks' speed")
            elif stall_rate > OVERLAP_MAX_FLUSH_STALL_RATE:
                fail(f"{path}: {ident}: flush stall rate {stall_rate:.1%} > "
                     f"{OVERLAP_MAX_FLUSH_STALL_RATE:.0%} — write-behind is "
                     f"serializing instead of overlapping")
            else:
                print(f"  ok: {ident}: flush stall rate {stall_rate:.1%}")
        ceiling = OVERLAP_MAX_STALL_SHARE.get(name)
        if ceiling is not None:
            share = row.get("stall_share", 0.0)
            if share > ceiling:
                fail(f"{path}: {ident}: stall share {share:.1%} > "
                     f"{ceiling:.0%} — the overlap leg is back to waiting "
                     f"out per-batch seeks instead of hiding them")
            else:
                print(f"  ok: {ident}: stall share {share:.1%} "
                      f"(ceiling {ceiling:.0%})")


REALDISK_MUST_IMPROVE = {"seven_pass"}

# Largest read-pass count any PDM sorter row may report: the title's "small
# number of passes" is 7 (seven_pass is the deepest pipeline we bench).
REALDISK_PASS_BUDGET = 7.0


def check_realdisk_row(row, ctx):
    require(row, "name", str, ctx)
    require(row, "n", int, ctx)
    require(row, "wall_ms_blocking", float, ctx)
    require(row, "wall_ms_overlap", float, ctx)
    require(row, "improvement", float, ctx)
    require(row, "read_passes", float, ctx)
    require(row, "write_passes", float, ctx)
    check_wall_percentiles(row, ctx)


def check_realdisk_schema(doc, path):
    require(doc, "schema_version", int, path)
    require(doc, "quick", bool, path)
    backend = require(doc, "backend", str, path)
    if backend is not None and backend != "async-file":
        fail(f"{path}: real-disk artifact backend is '{backend}', "
             f"expected 'async-file'")
    require(doc, "direct_io", bool, path)
    for row in require(doc, "real_disk", list, path) or []:
        check_realdisk_row(row, f"{path}:real_disk[{row.get('name', '?')}]")
    baseline = require(doc, "baseline", dict, path)
    if baseline is not None:
        check_realdisk_row(baseline, f"{path}:baseline")


def check_realdisk_invariants(doc, path):
    rows = doc.get("real_disk", [])
    if not rows:
        fail(f"{path}: real-disk artifact has no rows")
    names = {row.get("name") for row in rows}
    for wanted in REALDISK_MUST_IMPROVE:
        if wanted not in names:
            fail(f"{path}: no real-disk row for '{wanted}'")
    for row in rows:
        name, n = row.get("name", "?"), row.get("n", 0)
        ident = f"{name} n={n}"
        if row.get("read_passes", 0) <= 0 or row.get("write_passes", 0) <= 0:
            fail(f"{path}: {ident}: pass counters are empty — the A/B "
                 f"legs did no I/O")
        imp = row.get("improvement", 0.0)
        if name in REALDISK_MUST_IMPROVE:
            if imp <= 0.0:
                fail(f"{path}: {ident}: overlap-on ({row.get('wall_ms_overlap')} ms) "
                     f"does not beat overlap-off "
                     f"({row.get('wall_ms_blocking')} ms) on real disk")
            else:
                print(f"  ok: {ident}: overlap beats blocking by {imp:.1%}")
        else:
            print(f"  ok: {ident}: improvement {imp:.1%} (informational)")
    baseline = doc.get("baseline") or {}
    if baseline.get("name") != "mergesort":
        fail(f"{path}: baseline row must be the naive external mergesort")
        return
    if baseline.get("read_passes", 0) <= 0 or baseline.get("write_passes", 0) <= 0:
        fail(f"{path}: mergesort baseline did no I/O")
    # The paper's currency: every sorter stays within a small constant pass
    # budget regardless of n. (The mergesort baseline's pass count grows
    # with n, so it is not a useful yardstick at smoke-test sizes.)
    for row in rows:
        rp = row.get("read_passes", float("inf"))
        if rp > REALDISK_PASS_BUDGET:
            fail(f"{path}: {row.get('name', '?')}: {rp} read passes exceeds "
                 f"the paper's {REALDISK_PASS_BUDGET}-pass budget")
        else:
            print(f"  ok: {row.get('name', '?')}: {rp} read passes within "
                  f"the {REALDISK_PASS_BUDGET}-pass budget")


# Fault tolerance must be (nearly) free when nothing goes wrong: arming
# the full stack — file fault shim at a zero rate, completion-time retry,
# checksum verification when compiled in — may cost at most this fraction
# of the plain stack's wall clock.
FAULT_MAX_OVERHEAD = 0.05
# Page-cache-speed smoke runs finish in single-digit milliseconds, where
# scheduler jitter alone exceeds 5%; a run within this absolute slack of
# the plain leg passes regardless of the ratio. Full-size runs are long
# enough that the relative ceiling is the binding constraint.
FAULT_ABS_SLACK_MS = 1.0


def check_fault_schema(doc, path):
    require(doc, "schema_version", int, path)
    require(doc, "quick", bool, path)
    backend = require(doc, "backend", str, path)
    if backend is not None and backend != "async-file":
        fail(f"{path}: fault artifact backend is '{backend}', "
             f"expected 'async-file'")
    require(doc, "checksums", bool, path)
    for row in require(doc, "fault", list, path) or []:
        ctx = f"{path}:fault[{row.get('name', '?')}]"
        require(row, "name", str, ctx)
        require(row, "n", int, ctx)
        require(row, "wall_ms_plain", float, ctx)
        require(row, "wall_ms_armed", float, ctx)
        require(row, "overhead", float, ctx)
        require(row, "wall_ms_injected", float, ctx)
        require(row, "retries_healed", int, ctx)
        require(row, "read_passes", float, ctx)
        require(row, "write_passes", float, ctx)


def check_fault_invariants(doc, path):
    rows = doc.get("fault", [])
    if not rows:
        fail(f"{path}: fault artifact has no rows")
    for row in rows:
        name, n = row.get("name", "?"), row.get("n", 0)
        ident = f"{name} n={n}"
        if row.get("read_passes", 0) <= 0 or row.get("write_passes", 0) <= 0:
            fail(f"{path}: {ident}: pass counters are empty — the legs "
                 f"did no I/O")
        overhead = row.get("overhead", float("inf"))
        delta_ms = row.get("wall_ms_armed", float("inf")) - row.get(
            "wall_ms_plain", 0.0)
        if overhead > FAULT_MAX_OVERHEAD and delta_ms > FAULT_ABS_SLACK_MS:
            fail(f"{path}: {ident}: zero-fault overhead {overhead:.1%} "
                 f"(+{delta_ms:.2f} ms) > {FAULT_MAX_OVERHEAD:.0%} and "
                 f"beyond the {FAULT_ABS_SLACK_MS:.1f} ms jitter slack — "
                 f"the armed stack is not free when nothing fails")
        else:
            print(f"  ok: {ident}: zero-fault overhead {overhead:.1%} "
                  f"(+{delta_ms:.2f} ms; ceiling {FAULT_MAX_OVERHEAD:.0%} "
                  f"or {FAULT_ABS_SLACK_MS:.1f} ms slack)")
        # The injected leg proves the machinery actually fires: a 1%
        # transient rate over thousands of block ops cannot heal nothing.
        if row.get("retries_healed", 0) <= 0:
            fail(f"{path}: {ident}: the injected leg healed zero retries — "
                 f"fault injection never reached the async workers")
        else:
            print(f"  ok: {ident}: injected leg healed "
                  f"{row['retries_healed']} retries "
                  f"({row.get('wall_ms_injected', 0):.2f} ms)")


def rows_by_identity(doc):
    out = {}
    for row in doc.get("kernels", []):
        out[("kernel", row.get("name"), row.get("keys"), row.get("n"))] = (
            "ns_per_key", row)
    for row in doc.get("merges", []):
        out[("merge", row.get("name"), row.get("n"), row.get("k"))] = (
            "loser_ns_per_key", row)
    for row in doc.get("algorithms", []):
        out[("algo", row.get("name"), row.get("backend"), row.get("n"))] = (
            "wall_ms", row)
    for row in doc.get("run_gen", []):
        out[("run_gen", row.get("workload"), row.get("n"))] = (
            "updown_read_passes", row)
    return out


def check_regressions(current, baseline, tolerance):
    base_rows = rows_by_identity(baseline)
    cur_rows = rows_by_identity(current)
    matched = 0
    for ident, (metric, cur) in cur_rows.items():
        if ident not in base_rows:
            continue
        _, base = base_rows[ident]
        b, c = base.get(metric), cur.get(metric)
        if not b or c is None:
            continue
        matched += 1
        ratio = c / b
        label = "/".join(str(p) for p in ident)
        if ratio > 1.0 + tolerance:
            fail(f"{label}: {metric} regressed {ratio:.2f}x "
                 f"({b:.2f} -> {c:.2f}, tolerance {1.0 + tolerance:.2f}x)")
        else:
            print(f"  ok: {label}: {metric} {b:.2f} -> {c:.2f} ({ratio:.2f}x)")
    print(f"compared {matched} row(s) against baseline")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current", default="BENCH_kernels.json",
                    help="bench JSON to validate (default: the baseline itself)")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline to diff against (optional)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed slowdown fraction vs baseline (default 0.25)")
    ap.add_argument("--overlap", default=None,
                    help="overlap A/B artifact (BENCH_overlap.json) to "
                         "validate and gate")
    ap.add_argument("--real-disk", default=None, dest="real_disk",
                    help="real-disk A/B artifact (BENCH_realdisk.json) to "
                         "validate and gate; exclusive mode, mirrors "
                         "`pdm-bench --real-disk`")
    ap.add_argument("--fault", default=None,
                    help="fault-tolerance overhead artifact "
                         "(BENCH_fault.json) to validate and gate; exclusive "
                         "mode, mirrors `pdm-bench --fault-out`")
    args = ap.parse_args()

    if args.fault:
        with open(args.fault) as f:
            fault = json.load(f)
        check_fault_schema(fault, args.fault)
        check_fault_invariants(fault, args.fault)
        if FAILURES:
            print(f"\n{len(FAILURES)} check(s) failed")
            return 1
        print("\nall fault-tolerance checks passed")
        return 0

    if args.real_disk:
        with open(args.real_disk) as f:
            realdisk = json.load(f)
        check_realdisk_schema(realdisk, args.real_disk)
        check_realdisk_invariants(realdisk, args.real_disk)
        if FAILURES:
            print(f"\n{len(FAILURES)} check(s) failed")
            return 1
        print("\nall real-disk checks passed")
        return 0

    with open(args.current) as f:
        current = json.load(f)
    check_schema(current, args.current)
    check_invariants(current, args.current)

    if args.overlap:
        with open(args.overlap) as f:
            overlap = json.load(f)
        check_overlap_schema(overlap, args.overlap)
        check_overlap_invariants(overlap, args.overlap)

    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        check_schema(baseline, args.baseline)
        check_regressions(current, baseline, args.tolerance)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed")
        return 1
    print("\nall bench checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
