#!/usr/bin/env python3
"""Dead-module gate: every module under lib/ must be used outside the tests.

A module counts as used when an OCaml source (.ml or .mli) under lib/,
bin/, bench/, perfbench/ or scripts/, other than the module's own files,
names it in code: as Library.Module from anywhere, or by its bare name
from a file of its own library.  Comments and string literals are
stripped first, so a doc comment that mentions a module does not keep it
alive.  References from test/ and examples/ do not count.

    python3 scripts/dead_modules.py [ROOT]

ROOT defaults to the repository holding this script.
Exit 0 when every module is used or exempt, 1 naming each unused module
and each stale exemption.
"""
import os
import re
import sys

SOURCES = ["lib", "bin", "bench", "perfbench", "scripts"]

# Modules kept although only tests use them, each with its reason.  An
# entry that names a missing module, or one that has since gained a user,
# fails the gate, so the list cannot go stale.
EXEMPT = {
    "Simcore.Heap": "the reference semantics test_simcore checks Iheap against",
    "Check.Runner": "the shrinking property runner the property suites share",
}

QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")


def strip(src):
    """OCaml source with comments, string and char literals blanked."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        if src.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            i = j + 1
            out.append(" ")
        elif QUOTED.match(src, i):
            m = QUOTED.match(src, i)
            close = "|" + m.group(1) + "}"
            i = src.find(close, m.end()) + len(close)
            out.append(" ")
        elif src[i] == "'" and CHAR.match(src, i):
            i = CHAR.match(src, i).end()
            out.append(" ")
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def capitalize(name):
    return name[0].upper() + name[1:]


def library_name(d):
    with open(os.path.join(d, "dune")) as f:
        m = re.search(r"\(name\s+([a-z_0-9]+)\)", f.read())
    return capitalize(m.group(1))


def main():
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    os.chdir(sys.argv[1] if len(sys.argv) > 1 else here)
    files = {}
    for top in SOURCES:
        for d, _, names in os.walk(top):
            if "_build" in d:
                continue
            for name in names:
                if name.endswith((".ml", ".mli")):
                    path = os.path.join(d, name)
                    with open(path) as f:
                        files[path] = strip(f.read())
    modules = {}
    for path in files:
        if path.startswith("lib" + os.sep):
            d = os.path.dirname(path)
            base = os.path.splitext(os.path.basename(path))[0]
            modules[(d, base)] = library_name(d)
    dead = []
    for (d, base), lib in sorted(modules.items()):
        mod = capitalize(base)
        own = (os.path.join(d, base) + ".ml", os.path.join(d, base) + ".mli")
        qualified = re.compile(r"(?<![\w.'])" + lib + r"\." + mod + r"\b")
        bare = re.compile(r"(?<![\w.'])" + mod + r"\b")
        used = any(
            qualified.search(text) or (os.path.dirname(path) == d and bare.search(text))
            for path, text in files.items()
            if path not in own
        )
        name = lib + "." + mod
        if name in EXEMPT:
            if used:
                dead.append(name + " is exempt but used: drop its exemption")
        elif not used:
            dead.append(name + " (" + d + ") is used by no module outside test/ and examples/")
    known = {lib + "." + capitalize(base) for (_, base), lib in modules.items()}
    dead += [name + " is exempt but does not exist" for name in EXEMPT if name not in known]
    for line in dead:
        print("dead_modules: " + line, file=sys.stderr)
    if dead:
        return 1
    print("dead_modules: %d modules, all used (%d exempt)" % (len(modules), len(EXEMPT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
