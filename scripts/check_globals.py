#!/usr/bin/env python3
"""Fail on process-global state and on the second boot path.

A simulated node's cycles, events and connection ids must depend only
on that node, never on what ran earlier in the same process.  This
lint rejects the three ways that has gone wrong before:

  * any mention of ``Obs.default`` (the old process-wide hub);
  * ``Kernel.boot`` or ``Machine.create`` called anywhere outside
    ``lib/fleet`` and the two modules that define them (every other
    boot goes through ``Node_config``/``Node``);
  * a top-level ``ref``, ``Hashtbl.create``, ``Queue.create``,
    ``Array.make`` or ``lazy`` binding in ``lib/`` (module-level
    mutable state; a lazy value is shared by every node once forced),
    apart from ALLOWED, the dispatcher's init-once tables.

Usage:
    scripts/check_globals.py [ROOT]

ROOT defaults to the repository root (the parent of this script's
directory).  Prints one line per finding and exits nonzero if there is
any.
"""

import os
import re
import sys

SOURCE_DIRS = ["lib", "bench", "bin", "test", "examples"]

# (file relative to ROOT, binding name): written once at init, then
# only read.
ALLOWED = {
    ("lib/kernel/dispatch.ml", "table"),
    ("lib/kernel/dispatch.ml", "on_kill"),
}

BOOT_CALL = re.compile(r"\b(Kernel\.boot|Machine\.create)\b")
BOOT_HOMES = ("lib/fleet/", "lib/kernel/kernel.ml", "lib/machine/machine.ml")
MUTABLE = re.compile(r"(ref\b|Hashtbl\.create\b|Queue\.create\b|Array\.make\b|lazy\b)")
LET = re.compile(r"^( *)let\s+([a-z_][A-Za-z0-9_']*)\s*(?::[^=]*)?=\s*(.*)$")
STRUCT_OPEN = re.compile(r"^( *)module\s+[A-Z][A-Za-z0-9_']*\b.*=\s*struct\s*$")


def sources(root):
    for top in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith((".ml", ".mli")):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root), path


def strip_comments(text):
    """Blank out (* ... *) comments and string literals, keeping line
    structure, so mentions in docs and messages do not count."""
    out, i, depth, n = [], 0, 0, len(text)
    while i < n:
        c = text[i]
        if depth == 0 and c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""' + "\n" * text.count("\n", i, j + 1))
            i = j + 1
        elif text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
        else:
            out.append(c if depth == 0 or c == "\n" else " ")
            i += 1
    return "".join(out)


def top_level_mutables(lines):
    """(line number, name) of each module-level mutable binding: a
    parameterless [let] at column 0, or at the body indentation of a
    [module ... = struct]."""
    structs = []  # body indentation of each open struct
    found = []
    for i, line in enumerate(lines):
        indent = len(line) - len(line.lstrip(" "))
        if structs and line.strip() == "end" and indent == structs[-1] - 2:
            structs.pop()
            continue
        m = STRUCT_OPEN.match(line)
        if m:
            structs.append(len(m.group(1)) + 2)
            continue
        m = LET.match(line)
        if not m or len(m.group(1)) not in [0] + structs[-1:]:
            continue
        rhs = m.group(3).strip()
        if not rhs and i + 1 < len(lines):
            rhs = lines[i + 1].strip()
        if MUTABLE.match(rhs):
            found.append((i + 1, m.group(2)))
    return found


def check(root):
    findings = []
    for rel, path in sources(root):
        with open(path, encoding="utf-8") as f:
            lines = strip_comments(f.read()).split("\n")
        for i, line in enumerate(lines):
            if "Obs.default" in line:
                findings.append(f"{rel}:{i + 1}: Obs.default (use the machine's own hub)")
            if BOOT_CALL.search(line) and not rel.startswith(BOOT_HOMES):
                findings.append(
                    f"{rel}:{i + 1}: {BOOT_CALL.search(line).group(1)} outside lib/fleet "
                    "(boot through Node_config / Node)"
                )
        if rel.startswith("lib/") and rel.endswith(".ml"):
            for lineno, name in top_level_mutables(lines):
                if (rel, name) not in ALLOWED:
                    findings.append(f"{rel}:{lineno}: top-level mutable binding '{name}'")
    return findings


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = check(root)
    for f in findings:
        print(f)
    if findings:
        print(f"check_globals: {len(findings)} finding(s)")
        return 1
    print("check_globals: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
