#!/usr/bin/env python3
"""Negative-compile check, registered with ctest.

Usage: compile_fail_test.py CMAKE BUILD_DIR CONFIG TARGET FIXTURE

TARGET and TARGET_control are CMake targets (excluded from `all`) that
compile FIXTURE with the project's own compiler and flags; the control
variant defines SES_COMPILE_FAIL_CONTROL. The check passes when
  - the control target builds, so the fixture has no unrelated error;
  - TARGET fails to build;
  - every compiler error is an unused-result error in FIXTURE; and
  - every FIXTURE line marked `// expect: unused-result` has one.
"""

import os
import re
import subprocess
import sys

DIAGNOSTIC = "unused-result"
MARK_RE = re.compile(r"^\s*[^/\s].*//\s*expect: " + DIAGNOSTIC + r"\s*$")
ERROR_RE = re.compile(r"^(.+?):(\d+):\d+: error: (.*)$")


def build(cmake, build_dir, config, target):
    proc = subprocess.run(
        [cmake, "--build", build_dir, "--config", config,
         "--target", target],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def main(argv):
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    cmake, build_dir, config, target, fixture = argv[1:]
    name = os.path.basename(fixture)
    with open(fixture, encoding="utf-8") as fh:
        marked = {lineno for lineno, line in enumerate(fh, start=1)
                  if MARK_RE.match(line)}

    code, out = build(cmake, build_dir, config, target + "_control")
    if code != 0:
        print(f"{out}\ncontrol build of {name} failed", file=sys.stderr)
        return 1
    code, out = build(cmake, build_dir, config, target)
    if code == 0:
        print(f"{out}\n{name} compiled: no seeded discard was rejected",
              file=sys.stderr)
        return 1

    rejected = set()
    problems = []
    for line in out.splitlines():
        match = ERROR_RE.match(line)
        if not match:
            continue
        if (os.path.basename(match.group(1)) == name
                and DIAGNOSTIC in match.group(3)):
            rejected.add(int(match.group(2)))
        else:
            problems.append(f"unexpected error: {line}")
    problems.extend(f"{name}:{lineno}: seeded discard not rejected"
                    for lineno in sorted(marked - rejected))
    problems.extend(f"{name}:{lineno}: {DIAGNOSTIC} error on an "
                    "unmarked line" for lineno in sorted(rejected - marked))
    if not marked:
        problems.append(f"{name} marks no line `expect: {DIAGNOSTIC}`")
    if problems:
        print(out, file=sys.stderr)
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"{name}: {len(marked)} seeded discards rejected; "
          "control build compiles")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
