#!/usr/bin/env python3
"""Dumps of the example programs, compared across commits.

  dump_diff.py collect DIR
      Build the CLI, run every examples/programs/*.egg with `--dump`, and
      keep the dump as DIR/<program>.snap.
  dump_diff.py diff BASE_DIR HEAD_DIR CHANGES_DIFF
      Print every program whose dump differs between the two directories,
      and fail unless each one's file name (say `path.egg`) is on a line
      that CHANGES_DIFF (the output of `git diff <merge-base> -- CHANGES.md`)
      adds.

Dumps are content-canonical, so two commits that compute the same
database dump byte-identically. Run from the root of the repository.
"""

import glob
import os
import subprocess
import sys


def collect(out_dir):
    subprocess.run(["dune", "build", "--display", "quiet", "./bin/main.exe"], check=True)
    os.makedirs(out_dir, exist_ok=True)
    for prog in sorted(glob.glob("examples/programs/*.egg")):
        name = os.path.basename(prog)[: -len(".egg")]
        snap = os.path.abspath(os.path.join(out_dir, name + ".snap"))
        subprocess.run(
            ["./_build/default/bin/main.exe", prog, "--dump", snap],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
        )
        print(f"{name}: {os.path.getsize(snap)} bytes")


def read(d, f):
    path = os.path.join(d, f)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def diff(base_dir, head_dir, changes_diff):
    with open(changes_diff) as f:
        added = "\n".join(l for l in f.read().splitlines() if l.startswith("+") and not l.startswith("+++"))
    snaps = sorted({f for d in (base_dir, head_dir) for f in os.listdir(d) if f.endswith(".snap")})
    unexplained = []
    for f in snaps:
        if read(base_dir, f) == read(head_dir, f):
            continue
        prog = f[: -len(".snap")] + ".egg"
        named = prog in added
        print(f"{prog:24} dump differs{'' if named else '   (not named in CHANGES.md)'}")
        if not named:
            unexplained.append(prog)
    if unexplained:
        sys.exit(f"FAIL: example dumps changed that CHANGES.md does not name: {unexplained}")
    print(f"{len(snaps)} example dumps compared; every difference is named in CHANGES.md")


if __name__ == "__main__":
    cmd, args = sys.argv[1], sys.argv[2:]
    if cmd == "collect":
        collect(args[0])
    elif cmd == "diff":
        diff(*args)
    else:
        sys.exit(f"unknown command {cmd!r}: want collect or diff")
