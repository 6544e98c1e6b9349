#!/usr/bin/env python3
"""Checks the `#include` edges of src/ against the declared layer order.

Usage:

    python3 scripts/check_layers.py [SRC_DIR]

SRC_DIR defaults to the src/ directory next to this script. Every quoted
include of a file under SRC_DIR/<dir>/ names its target as "<layer>/...";
that layer must be one ALLOWED lists for <dir>. Every directory under
SRC_DIR must have an entry, so a new directory states its place first.

The order has two stacks over util/, and service/ on top of both:

    util -> stream -> fo -> core -> {analysis, cdp, datagen, mean}
    util -> obs -> transport -> service      (service also above core, fo)

transport/ also reads fo/'s wire headers (a packet's identity is its
report nonce or its partial sketch's node id). obs/ publishes what the
other layers count through util/stat_table.h rows, without including
their headers.

Exits 0 and prints a summary when every edge is allowed; otherwise prints
each violation as FILE:LINE and exits 1.
"""
import os
import re
import sys

ALLOWED = {
    "util": {"util"},
    "stream": {"stream", "util"},
    "fo": {"fo", "stream", "util"},
    "core": {"core", "fo", "stream", "util"},
    "analysis": {"analysis", "core", "fo", "stream", "util"},
    "cdp": {"cdp", "core", "fo", "stream", "util"},
    "datagen": {"datagen", "core", "fo", "stream", "util"},
    "mean": {"mean", "core", "fo", "stream", "util"},
    "obs": {"obs", "util"},
    "transport": {"transport", "obs", "fo", "stream", "util"},
    "service": {"service", "transport", "obs", "core", "fo", "stream",
                "util"},
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/[^"]+"')


def check(src):
    """Returns (violations, edges checked) for the tree rooted at `src`."""
    violations = []
    edges = 0
    for layer in sorted(os.listdir(src)):
        if os.path.isdir(os.path.join(src, layer)) and layer not in ALLOWED:
            violations.append(f"{os.path.join(src, layer)}: no layer entry")
    for layer, allowed in sorted(ALLOWED.items()):
        root = os.path.join(src, layer)
        if not os.path.isdir(root):
            violations.append(f"{root}: no such directory")
            continue
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    for number, line in enumerate(f, 1):
                        match = INCLUDE.match(line)
                        if match is None:
                            continue
                        edges += 1
                        target = match.group(1)
                        if target not in allowed:
                            violations.append(
                                f"{path}:{number}: {layer}/ includes "
                                f"{target}/ (allowed: "
                                f"{', '.join(sorted(allowed))})")
    return violations, edges


def main(argv):
    src = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src")
    violations, edges = check(src)
    for violation in violations:
        print(violation)
    if violations:
        return 1
    print(f"check_layers: {edges} include edges in "
          f"{', '.join(sorted(ALLOWED))} respect the layer order")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
