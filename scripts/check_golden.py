#!/usr/bin/env python3
"""Golden pass-count regression gate.

Runs `pdmsort sort --stats` for every case in results/golden_passes.json
and checks the measured read passes (from the `run` header, the first line
of the pdm-run-v1 artifact) against the recorded expectation:
an exact value (± tol) for deterministic algorithms, a [min, max] band
for expected-case algorithms and baselines. A case with
`"disk_space": {"max": X}` also caps the disk space `sort` prints
(`disk space: S slots per disk (R× the input)`) at R <= X.

Usage:
    scripts/check_golden.py [--binary target/release/pdmsort]
                            [--golden results/golden_passes.json]
                            [--update]

--update rewrites the `exact` values in the golden file to the measured
ones (bands are left alone) — review the diff before committing it.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile


def key_kind(sort_args):
    """The record type a `--key KIND` in --sort-args selects (default u64).

    The gen invocation must produce the same record type the sort run is
    asked to assert, so the flag is forwarded to both.
    """
    args = list(sort_args)
    for i, a in enumerate(args):
        if a == "--key" and i + 1 < len(args):
            return args[i + 1]
        if a.startswith("--key="):
            return a.split("=", 1)[1]
    return "u64"


def run_case(binary, case, workdir, sort_args=()):
    inp = os.path.join(workdir, "in.keys")
    outp = os.path.join(workdir, "out.keys")
    stats = os.path.join(workdir, "run.jsonl")
    subprocess.run(
        [binary, "gen", str(case["n"]), inp,
         "--dist", case["dist"], "--seed", str(case["seed"]),
         "--key", key_kind(sort_args)],
        check=True, capture_output=True, text=True,
    )
    sort = subprocess.run(
        [binary, "sort", inp, outp,
         "--disks", str(case["disks"]), "--b", str(case["b"]),
         "--algo", case["algo"], "--stats", stats, *sort_args],
        check=True, capture_output=True, text=True,
    )
    subprocess.run([binary, "verify", outp], check=True,
                   capture_output=True, text=True)
    with open(stats) as f:
        return json.loads(f.readline()), disk_space(sort.stdout)


def disk_space(log):
    """R from sort's `disk space: S slots per disk (R× the input)` line."""
    m = re.search(r"^disk space:\s+\d+ slots per disk \(([0-9.]+)× the input\)",
                  log, re.M)
    return float(m.group(1)) if m else None


def check(expect, measured):
    """Return (ok, description-of-expectation)."""
    if "exact" in expect:
        tol = expect.get("tol", 0.01)
        return (abs(measured - expect["exact"]) <= tol,
                f"= {expect['exact']} ± {tol}")
    return (expect["min"] <= measured <= expect["max"],
            f"in [{expect['min']}, {expect['max']}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", default="target/release/pdmsort")
    ap.add_argument("--golden", default="results/golden_passes.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite exact expectations to the measured values")
    ap.add_argument("--sort-args", default="",
                    help="extra args appended to every `pdmsort sort` call, "
                         "e.g. --sort-args='--overlap on' or "
                         "--sort-args='--key tagged'")
    args = ap.parse_args()
    sort_args = args.sort_args.split()

    with open(args.golden) as f:
        golden = json.load(f)

    failures = 0
    kind = key_kind(sort_args)
    for case in golden["cases"]:
        if case["algo"] == "radix" and kind != "u64":
            # Radix sorts by integer rank; key–payload and string records
            # are comparison-only by design, so the case does not apply.
            print(f"skip {case['name']}: radix is u64-only (--key {kind})")
            continue
        with tempfile.TemporaryDirectory(prefix="pdm-golden-") as wd:
            try:
                artifact, space = run_case(args.binary, case, wd, sort_args)
            except subprocess.CalledProcessError as e:
                print(f"FAIL {case['name']}: pdmsort exited "
                      f"{e.returncode}\n{e.stderr}")
                failures += 1
                continue
        measured = artifact["read_passes"]
        expect = case["read_passes"]
        ok, desc = check(expect, measured)
        status = "ok  " if ok else "FAIL"
        print(f"{status} {case['name']}: read passes {measured:.3f} "
              f"(expected {desc}, fell_back={artifact.get('fell_back')})")
        if not ok:
            failures += 1
        cap = case.get("disk_space")
        if cap is not None:
            ok = space is not None and space <= cap["max"]
            status = "ok  " if ok else "FAIL"
            shown = "no disk space line" if space is None else f"{space:.2f}×"
            print(f"{status} {case['name']}: disk space {shown} the input "
                  f"(expected <= {cap['max']})")
            if not ok:
                failures += 1
        if args.update and "exact" in expect:
            expect["exact"] = round(measured, 3)

    if args.update:
        with open(args.golden, "w") as f:
            json.dump(golden, f, indent=2)
            f.write("\n")
        print(f"updated {args.golden}")

    if failures:
        print(f"{failures} golden case(s) failed")
        return 1
    print("all golden cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
