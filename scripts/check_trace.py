#!/usr/bin/env python3
"""Chrome trace-event artifact gate.

Validates a `pdmsort sort --trace-out` file: the JSON shape Perfetto and
chrome://tracing accept, and the structural invariants the exporter
promises:

  * top level is `{"traceEvents": [...]}` (a bare event list is also
    accepted, as both loaders take it);
  * every event carries `ph`, `pid`, `tid`; duration events (`B`/`E`)
    also carry `name` and a numeric `ts`;
  * per (pid, tid) track, `B`/`E` events pair up like balanced brackets
    and timestamps are monotonically non-decreasing — each track is one
    disk's reads or writes, recorded in order by one worker thread, so
    time never runs backward;
  * at least one span exists somewhere (an all-metadata trace means the
    instrumentation never fired);
  * with --disks D: one named track per disk and direction (`diskN read`,
    `diskN write` for every N < D) plus the `phases` track, each named
    via `thread_name` metadata and each carrying at least one span.

Usage:
    scripts/check_trace.py trace.json [--disks D]
"""

import argparse
import json
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, list):
        return doc
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if isinstance(events, list):
            return events
        fail(f"{path}: object form must hold a 'traceEvents' list")
        return []
    fail(f"{path}: top level must be an object or a list")
    return []


def check_tracks(events, path):
    """Bracket-match B/E pairs and check ts monotonicity per track.

    Returns {(pid, tid): span_count} for the duration tracks and
    {(pid, tid): name} for tracks named via thread_name metadata.
    """
    spans = {}
    names = {}
    stacks = {}
    last_ts = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: event #{i} is not an object")
            continue
        ph = ev.get("ph")
        if ph is None or "pid" not in ev or "tid" not in ev:
            fail(f"{path}: event #{i} lacks ph/pid/tid")
            continue
        key = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev.get("name") == "thread_name":
                names[key] = ev.get("args", {}).get("name", "")
            continue
        if ph not in ("B", "E"):
            continue
        name = ev.get("name")
        ts = ev.get("ts")
        if not isinstance(name, str) or not isinstance(ts, (int, float)):
            fail(f"{path}: event #{i} ({ph}) lacks a name or numeric ts")
            continue
        if ts < last_ts.get(key, float("-inf")):
            fail(f"{path}: track {key}: ts runs backward at event #{i} "
                 f"({ts} after {last_ts[key]})")
        last_ts[key] = ts
        stack = stacks.setdefault(key, [])
        if ph == "B":
            stack.append(name)
        else:
            if not stack:
                fail(f"{path}: track {key}: E '{name}' with no open B")
            elif stack[-1] != name:
                fail(f"{path}: track {key}: E '{name}' closes B "
                     f"'{stack[-1]}'")
            else:
                stack.pop()
                spans[key] = spans.get(key, 0) + 1
    for key, stack in stacks.items():
        if stack:
            fail(f"{path}: track {key}: {len(stack)} B event(s) never "
                 f"closed ({stack[-1]} deepest)")
    return spans, names


def check_disks(spans, names, disks, path):
    by_name = {name: key for key, name in names.items()}
    wanted = ["phases"]
    for d in range(disks):
        wanted += [f"disk{d} read", f"disk{d} write"]
    for name in wanted:
        key = by_name.get(name)
        if key is None:
            fail(f"{path}: no track named '{name}'")
        elif not spans.get(key):
            fail(f"{path}: track '{name}' has no spans")
        else:
            print(f"  ok: track '{name}': {spans[key]} span(s)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace", help="trace-event JSON from --trace-out")
    ap.add_argument("--disks", type=int, default=None,
                    help="require one read + one write track per disk "
                         "0..D plus the phases track, each with spans")
    args = ap.parse_args()

    events = load_events(args.trace)
    spans, names = check_tracks(events, args.trace)
    total = sum(spans.values())
    if total == 0:
        fail(f"{args.trace}: no complete spans on any track")
    else:
        print(f"  ok: {total} span(s) across {len(spans)} track(s), "
              f"{len(names)} named track(s)")
    if args.disks is not None:
        check_disks(spans, names, args.disks, args.trace)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed")
        return 1
    print("\nall trace checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
