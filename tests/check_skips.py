#!/usr/bin/env python3
"""Fail when a ctest run skipped a test that is not on the allow-list.

Usage: tests/check_skips.py CTEST_LOG

CTEST_LOG is ctest's console output, which lists every skipped test under
"The following tests did not run:" as "<n> - <name> ... (Skipped)".
The allow-list, tier1_skip_allowlist.txt next to this script, holds one
test name per line as ctest prints it; '#' starts a comment. Exits 1 and
names the offenders if any other test skipped.
"""

import os
import re
import sys

SKIPPED = re.compile(r"^\s*\d+\s+-\s+(\S+).*\(Skipped\)\s*$")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    allow_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "tier1_skip_allowlist.txt")
    with open(allow_path) as f:
        allowed = {line.split("#", 1)[0].strip() for line in f} - {""}
    with open(sys.argv[1]) as f:
        skipped = [m.group(1) for m in map(SKIPPED.match, f) if m]

    unexpected = [name for name in skipped if name not in allowed]
    print(f"{len(skipped)} skipped, {len(skipped) - len(unexpected)} "
          f"allow-listed")
    for name in unexpected:
        print(f"not on the allow-list: {name}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
