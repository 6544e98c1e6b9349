#!/usr/bin/env python3
"""Checks the `#include` edges of src/ against the declared layer order.

Usage:

    python3 scripts/check_layers.py [SRC_DIR]

SRC_DIR defaults to the src/ directory next to this script. Every quoted
include of a file under SRC_DIR/<dir>/ names its target as "<layer>/...";
for each directory listed in ALLOWED, that layer must be one the table
allows. obs/ is a leaf above util/: it publishes what the other layers
count, through util/stat_table.h rows, without including their headers.
Directories not in ALLOWED are not checked yet.

Exits 0 and prints a summary when every edge is allowed; otherwise prints
each violation as FILE:LINE and exits 1.
"""
import os
import re
import sys

ALLOWED = {
    "obs": {"obs", "util"},
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/[^"]+"')


def check(src):
    """Returns (violations, edges checked) for the tree rooted at `src`."""
    violations = []
    edges = 0
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
