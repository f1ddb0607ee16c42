#!/usr/bin/env python3
"""CLI identity matrix: run two `pdmsort` builds over the same sorts and
report every difference between them.

Usage:
    scripts/identity_matrix.py PARENT_BIN CHANGE_BIN [--allow REGEX]...

The matrix is every `--storage` (mem, file, threaded, async-file) x
`--key` (u64, tagged, str24) x `--algo` (auto and the twelve sorter
names, integer-sort included, which the CLI refuses) x `--b` 16, 64 x
`--overlap` on|off, each with `--stats`: 624 runs on permuted keys
(seed 7) of 4,096 keys at B = 16 and 65,536 at B = 64, and 624 on 4,000
and 60,000 keys. Both builds read the same input files, which the parent
build generates.

Each run is compared on its exit code, the output file's bytes, every
line printed on stdout and stderr with times masked (`disk space:`
included), and the `--stats` artifact with the wall-clock records
(`wall`, `wall_disk`, `wall_phase`, `overlap`, `uring`) dropped and
`stalled` masked. `--allow REGEX` (repeatable) masks every match of
REGEX on both sides' lines before they are compared, so a difference
inside a match is reported as allowed, with the runs it occurred in,
rather than as a failure. For example, to allow a change in peak memory:

    --allow 'peak memory: +\\d+' --allow '"(peak_mem_keys|mem_peak|mem_current)":\\d+'

The exit status is 0 when every run matches up to the allowed
differences, and 1 otherwise. A run takes well under a second, so the
matrix takes a few minutes; it needs the parent's binary, so no gate
runs it.
"""

import argparse
import collections
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

STORAGES = ["mem", "file", "threaded", "async-file"]
KEYS = ["u64", "tagged", "str24"]
ALGOS = [
    "auto", "in-memory", "three-pass1", "exp-two-pass-mesh", "three-pass2",
    "expected-two-pass", "expected-three-pass", "seven-pass",
    "expected-six-pass", "radix", "integer-sort", "mergesort",
    "updown-mergesort",
]
BLOCKS = [16, 64]
OVERLAPS = ["on", "off"]
# Input sizes per block size: the three-pass sorters' capacity at B = 16,
# and sizes that are not multiples of a run or a block.
INPUT_SETS = [{16: 4096, 64: 65536}, {16: 4000, 64: 60000}]
SEED = 7

TIME = re.compile(r"\b\d+(?:\.\d+)?\s?(?:ns|µs|us|ms|s)\b")
WALL_RECORDS = re.compile(r'"rec":"(?:wall|wall_disk|wall_phase|overlap|uring)"')
STALLED = re.compile(r'"stalled":(?:true|false)')


def gen_inputs(binary, root):
    """Generate every input once, with the parent build."""
    paths = {}
    os.makedirs(os.path.join(root, "in"))
    for key, sizes in itertools.product(KEYS, INPUT_SETS):
        for n in sizes.values():
            rel = os.path.join("..", "in", f"{key}-{n}.keys")
            if (key, n) not in paths:
                path = os.path.join(root, "in", f"{key}-{n}.keys")
                subprocess.run(
                    [binary, "gen", str(n), path, "--dist", "permutation",
                     "--seed", str(SEED), "--key", key],
                    check=True, capture_output=True)
                paths[(key, n)] = rel
    return paths


def run_side(binary, cwd, args):
    """One sort in `cwd`: its exit code, output lines, output bytes and
    `--stats` lines, each normalized as the module doc says."""
    for name in ("out.keys", "run.jsonl"):
        path = os.path.join(cwd, name)
        if os.path.exists(path):
            os.remove(path)
    proc = subprocess.run([binary] + args, cwd=cwd, capture_output=True)
    printed = []
    for stream, data in (("out", proc.stdout), ("err", proc.stderr)):
        text = data.decode("utf-8", "replace")
        printed += [f"{stream}: {TIME.sub('<t>', line)}" for line in text.splitlines()]
    out = None
    if os.path.exists(os.path.join(cwd, "out.keys")):
        with open(os.path.join(cwd, "out.keys"), "rb") as f:
            out = f.read()
    stats = []
    if os.path.exists(os.path.join(cwd, "run.jsonl")):
        with open(os.path.join(cwd, "run.jsonl")) as f:
            stats = [STALLED.sub('"stalled":_', line.rstrip("\n"))
                     for line in f if not WALL_RECORDS.search(line)]
    return proc.returncode, printed, out, stats


def masked(lines, allow):
    for pattern in allow:
        lines = [pattern.sub("<allowed>", line) for line in lines]
    return lines


def first_difference(a, b):
    for i, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue="<none>")):
        if x != y:
            return f"line {i + 1}: {x[:160]!r} != {y[:160]!r}"
    return "identical"


def compare(parent, change, allow):
    """`None` when the two sides match exactly, `("allowed", what)` when
    they match once the allowed patterns are masked, else
    `("differs", what)`."""
    (pcode, pprint, pout, pstats) = parent
    (ccode, cprint, cout, cstats) = change
    if pcode != ccode:
        return ("differs", f"exit code {pcode} != {ccode}")
    if pout != cout:
        return ("differs", "output bytes differ")
    what = []
    verdict = None
    for name, a, b in (("printed", pprint, cprint), ("stats", pstats, cstats)):
        if a == b:
            continue
        if masked(a, allow) == masked(b, allow):
            verdict = verdict or "allowed"
            what.append(f"{name} {first_difference(a, b)}")
        else:
            verdict = "differs"
            what.append(f"{name} {first_difference(masked(a, allow), masked(b, allow))}")
    return (verdict, "; ".join(what)) if verdict else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent commit's pdmsort binary")
    ap.add_argument("change", help="the change's pdmsort binary")
    ap.add_argument("--allow", action="append", default=[], metavar="REGEX",
                    help="mask every match of REGEX on both sides before "
                         "comparing (repeatable)")
    args = ap.parse_args()
    allow = [re.compile(p) for p in args.allow]
    binaries = {"parent": os.path.abspath(args.parent),
                "change": os.path.abspath(args.change)}

    counts = collections.Counter()
    allowed_groups = collections.Counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="pdm-identity-") as root:
        inputs = gen_inputs(binaries["parent"], root)
        for side in binaries:
            os.makedirs(os.path.join(root, side))
        matrix = list(itertools.product(
            range(len(INPUT_SETS)), STORAGES, KEYS, ALGOS, BLOCKS, OVERLAPS))
        for i, (s, storage, key, algo, b, overlap) in enumerate(matrix):
            n = INPUT_SETS[s][b]
            sort_args = [
                "sort", inputs[(key, n)], "out.keys", "--disks", "4",
                "--b", str(b), "--algo", algo, "--key", key,
                "--storage", storage, "--overlap", overlap,
                "--stats", "run.jsonl",
            ]
            sides = {side: run_side(binaries[side], os.path.join(root, side), sort_args)
                     for side in binaries}
            counts["sorted" if sides["parent"][0] == 0 else "refused"] += 1
            label = f"n={n} --storage {storage} --key {key} --algo {algo} --b {b} --overlap {overlap}"
            verdict = compare(sides["parent"], sides["change"], allow)
            if verdict is None:
                counts["identical"] += 1
            elif verdict[0] == "allowed":
                counts["allowed"] += 1
                allowed_groups[f"--algo {algo} --key {key}"] += 1
            else:
                counts["differs"] += 1
                failures.append(f"{label}: {verdict[1]}")
            if (i + 1) % 104 == 0:
                print(f"  {i + 1}/{len(matrix)} runs", file=sys.stderr)

    total = sum(counts[k] for k in ("identical", "allowed", "differs"))
    print(f"{total} runs ({counts['sorted']} sort, {counts['refused']} refused): "
          f"{counts['identical']} identical, {counts['allowed']} differ only "
          f"where --allow masks, {counts['differs']} differ")
    for group, count in sorted(allowed_groups.items()):
        print(f"  allowed: {group}: {count} runs")
    for line in failures:
        print(f"DIFFERS: {line}")
    print(json.dumps({"runs": total, **counts}))
    return 1 if counts["differs"] else 0


if __name__ == "__main__":
    sys.exit(main())
