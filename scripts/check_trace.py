#!/usr/bin/env python3
"""Checks a flight-recorder Chrome trace against the round lifecycle.

Usage:

    python3 scripts/check_trace.py TRACE.json

TRACE.json is what `example_live_service --trace-out` writes or what the
scrape endpoint serves at /trace (obs::RenderChromeTrace). Each session is
one track (`tid`); each slice is one stage of one round (`args.round`),
emitted exactly once. The checks, per track:

  * the trace is rebased: the earliest slice starts at ts 0;
  * no round has two slices of the same stage;
  * a round's slices follow pipeline order (announce, transport_rtt,
    arena_decode, shard_fold, merge, sketch_merge, estimate, post_process)
    and never overlap: ts + dur <= the next slice's ts. The recorder's
    windows meet end to start, and truncating to microseconds keeps that;
  * round indexes have no gaps, and only the newest rounds are partial: a
    round is complete once it has its announce and estimate slices; rounds
    after the last complete one may lack their estimate (prefetched, or
    in flight when the trace was taken) but not their announce. Rounds
    before the first complete one may lack their announce only, the mark
    of a ring that wrapped and dropped its oldest events.

Exits 0 and prints a summary when every check holds; otherwise prints each
violation and exits 1. A trace without slices fails too.
"""
import json
import sys

ORDER = ["announce", "transport_rtt", "arena_decode", "shard_fold", "merge",
         "sketch_merge", "estimate", "post_process"]
RANK = {name: i for i, name in enumerate(ORDER)}


def check(trace):
    """Returns (violations, summary) for a parsed Chrome trace."""
    slices = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    if not slices:
        return ["trace has no slices"], ""
    errors = []
    first_ts = min(e["ts"] for e in slices)
    if first_ts != 0:
        errors.append(f"earliest ts is {first_ts}, not 0: the trace is not "
                      "rebased (an event with a zero window?)")

    tracks = {}  # tid -> round -> stage -> slice
    for e in slices:
        name = e["name"]
        if name not in RANK:
            errors.append(f"unknown stage {name!r}")
            continue
        rounds = tracks.setdefault(e["tid"], {})
        stages = rounds.setdefault(e["args"]["round"], {})
        if name in stages:
            errors.append(f"track {e['tid']} round {e['args']['round']}: "
                          f"two {name} slices")
        stages[name] = e

    complete_total = partial_total = 0
    for tid, rounds in sorted(tracks.items()):
        where = f"track {tid}"
        for index, stages in sorted(rounds.items()):
            chain = sorted(stages.values(), key=lambda e: RANK[e["name"]])
            for a, b in zip(chain, chain[1:]):
                if a["ts"] + a["dur"] > b["ts"]:
                    errors.append(
                        f"{where} round {index}: {a['name']} "
                        f"[{a['ts']}, +{a['dur']}] overlaps {b['name']} "
                        f"at {b['ts']}")
        indexes = sorted(rounds)
        missing = sorted(set(range(indexes[0], indexes[-1] + 1))
                         - set(indexes))
        if missing:
            errors.append(f"{where}: rounds {missing} have no slices")
        complete = [i for i in indexes
                    if "announce" in rounds[i] and "estimate" in rounds[i]]
        if not complete:
            errors.append(f"{where}: no round has both announce and estimate")
            continue
        lo, hi = complete[0], complete[-1]
        for i in indexes:
            stages = rounds[i]
            if lo <= i <= hi and i not in complete:
                errors.append(f"{where} round {i}: partial between complete "
                              f"rounds {lo} and {hi}: {sorted(stages)}")
            elif i > hi and "announce" not in stages:
                errors.append(f"{where} round {i}: newest round without its "
                              f"announce: {sorted(stages)}")
            elif i < lo and "announce" in stages:
                errors.append(f"{where} round {i}: oldest round has its "
                              f"announce but no estimate: {sorted(stages)}")
        complete_total += len(complete)
        partial_total += len(indexes) - len(complete)
    summary = (f"{len(slices)} slices on {len(tracks)} track(s): "
               f"{complete_total} complete rounds, {partial_total} partial")
    return errors, summary


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_trace.py TRACE.json", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        trace = json.load(f)
    errors, summary = check(trace)
    for err in errors:
        print(f"FAIL {err}")
    if errors:
        return 1
    print(f"ok   {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
