#!/usr/bin/env python3
"""Compare run artifacts modulo their volatile parts: the CI identity
gates (jobs, panel cache, routing service) all compare through here.

  same_outputs.py metrics REF RUN...
  same_outputs.py journal [--multiset] REF RUN...

metrics: every non-volatile gsino-metrics-v1 series of each RUN equals
REF's, value for value.  Volatile are flow.phase_seconds (wall clock)
and the families exec. (pool shape), gc. (per-domain GC), prof. (wall
clock), sino.cache_ (the hit/miss split: concurrent duplicate panels
both miss where one domain would hit, and a warm store hits where a
cold one misses) and serve. (the daemon's own series).

journal: each RUN's gsino-journal-v1 events equal REF's, modulo the
wall-clock payloads (data keys ending in _us) and the cache disposition
dimension.  The comparison is positional unless --multiset is given:
the canonical export orders by (ev, dim) including the cache dimension,
so a warm daemon and a cold batch run may order the same events
differently.

Exits non-zero, naming the diverging series or events, on the first
RUN that differs; REF must not be empty.
"""
import argparse
import json
import sys

VOLATILE = ("exec.", "gc.", "prof.", "sino.cache_", "serve.")


def check(cond, msg):
    if not cond:
        sys.exit(msg)


def series(path):
    with open(path) as f:
        m = json.load(f)
    return {(e["name"], tuple(sorted(e.get("labels", {}).items()))):
            {k: v for k, v in e.items() if k != "labels"}
            for e in m["metrics"]
            if e["name"] != "flow.phase_seconds"
            and not e["name"].startswith(VOLATILE)}


def journal(path, multiset):
    evs = []
    with open(path) as f:
        header = json.loads(f.readline())
        check(header.get("schema") == "gsino-journal-v1",
              f"{path}: not a gsino-journal-v1 file: {header}")
        for line in f:
            if not line.strip():
                continue
            e = json.loads(line)
            data = {k: v for k, v in e.get("data", {}).items()
                    if not k.endswith("_us")}
            dim = {k: v for k, v in e.get("dim", {}).items() if k != "cache"}
            evs.append((e["ev"], tuple(sorted(dim.items())),
                        tuple(sorted(data.items())), e.get("outcome")))
    if multiset:
        evs.sort(key=repr)
    return evs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="what", required=True)
    m = sub.add_parser("metrics")
    j = sub.add_parser("journal")
    j.add_argument("--multiset", action="store_true")
    for p in (m, j):
        p.add_argument("ref")
        p.add_argument("runs", nargs="+")
    args = ap.parse_args()

    if args.what == "metrics":
        ref = series(args.ref)
        check(ref, f"{args.ref}: no non-volatile series")
        for run in args.runs:
            s = series(run)
            check(s == ref, f"{run} series diverge from {args.ref}: " + str(
                {k for k in (set(s) ^ set(ref))} |
                {k for k in s if k in ref and s[k] != ref[k]}))
        print(f"{len(args.runs)} x {len(ref)} non-volatile series identical "
              f"to {args.ref}")
    else:
        ref = journal(args.ref, args.multiset)
        check(ref, f"{args.ref}: no journal events")
        for run in args.runs:
            evs = journal(run, args.multiset)
            check(evs == ref, (
                f"{run} journal diverges from {args.ref}: {len(evs)} vs "
                f"{len(ref)} events; only {run}: "
                f"{list(set(evs) - set(ref))[:3]}; only {args.ref}: "
                f"{list(set(ref) - set(evs))[:3]}"))
        print(f"{len(args.runs)} x {len(ref)} journal events identical to "
              f"{args.ref} modulo timings and the cache dimension"
              + (" (as a multiset)" if args.multiset else ""))


if __name__ == "__main__":
    main()
