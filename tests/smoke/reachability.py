#!/usr/bin/env python3
"""Every function libbmh.a defines is linked by a shipped binary, or allowed.

The library is built with -ffunction-sections and the binaries are linked
with --gc-sections, so a function no binary calls is absent from all of
them. This reads the global text symbols (`T`) of libbmh.a and the defined
symbols of each binary with `nm -C`, and fails on a library function that
is in none of the binaries and not in the allowlist. It also fails on an
allowlist entry that libbmh.a no longer defines, and on a "file-local"
entry that an object other than its file's (and its definition's) calls.

The allowlist holds one demangled signature, as `nm -C` prints it, per
line, under a section header:

  [public]                 README's "Public API" list
  [perfbench]              linked only by perfbench's bmh_trace
  [file-local src/x/y.cpp] called only inside that file, where an optimized
                           build inlines every call or compiles it out

Usage: reachability.py NM LIBBMH ALLOWLIST BINARY...
"""
import subprocess
import sys
from pathlib import Path


def nm_lines(nm, path):
    return subprocess.run([nm, "-C", path], check=True, capture_output=True,
                          text=True).stdout.splitlines()


def archive_symbols(nm, archive):
    """Returns ({name: object} of global text symbols, {name: {objects}} of
    undefined references, {objects}) for the members of a static library."""
    defined, referenced, members = {}, {}, set()
    member = None
    for line in nm_lines(nm, archive):
        if line.endswith(".o:") and " " not in line:
            member = line[:-1]
            members.add(member)
            continue
        fields = line.split(None, 2)
        if len(fields) >= 2 and fields[0] == "U":
            referenced.setdefault(line.strip()[2:], set()).add(member)
        elif len(fields) == 3 and fields[1] == "T":
            defined[fields[2]] = member
    return defined, referenced, members


def binary_symbols(nm, binary):
    names = set()
    for line in nm_lines(nm, binary):
        fields = line.split(None, 2)
        if len(fields) == 3:
            names.add(fields[2])
    return names


def read_allowlist(path):
    """Returns {signature: section}; a section is "public", "perfbench" or
    "file-local PATH"."""
    allowed, section = {}, None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if section is None:
            sys.exit(f"{path}: '{line}' comes before any [section]")
        allowed[line] = section
    return allowed


def main():
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    nm, archive, allowlist = sys.argv[1:4]
    binaries = sys.argv[4:]
    defined, referenced, members = archive_symbols(nm, archive)
    linked = set().union(*(binary_symbols(nm, b) for b in binaries))
    allowed = read_allowlist(allowlist)

    problems = []
    for name, member in sorted(defined.items()):
        if name not in linked and name not in allowed:
            problems.append(f"unreached: {name}  (defined in {member})")
    for name, section in allowed.items():
        if name not in defined:
            problems.append(f"stale allowlist entry [{section}]: {name}")
            continue
        if section.startswith("file-local "):
            member = Path(section.split(None, 1)[1]).name + ".o"
            if member not in members:
                problems.append(f"[{section}]: libbmh.a has no {member}")
            others = referenced.get(name, set()) - {member, defined[name]}
            if others:
                problems.append(f"[{section}] {name} is also called from "
                                f"{', '.join(sorted(others))}")

    for p in problems:
        print(p)
    print(f"reachability: {len(defined)} functions in {Path(archive).name}, "
          f"{len(allowed)} allowlisted, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
