#!/usr/bin/env python3
"""Reachability audit: which src/ functions does no shipped binary keep?

Builds every shipped executable (bench/, examples/, memcon_analyze) and
perfbench at -O0 with one section per function and links them with
--gc-sections, so a function survives only if something calls it. Each
memcon:: function defined in the src/ libraries that no binary keeps
must be listed in tools/reach_audit.txt as `name  # reason`; the audit
fails when the computed and the committed lists differ either way.

Usage: python3 tools/reach_audit.py   (builds into build-reach/)
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "build-reach"
LIST = ROOT / "tools" / "reach_audit.txt"
CACHE = ["-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=",
         "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
OPERATOR = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*?|<|>|\(\))")


def run(*cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build():
    """Build the shipped binaries; return (src libraries, binaries)."""
    jobs = str(os.cpu_count() or 2)
    bins = {OUT / "tools/memcon_analyze/memcon_analyze",
            OUT / "perfbench/memcon_perfbench"}
    for sub in ("bench", "examples"):
        text = (ROOT / sub / "CMakeLists.txt").read_text()
        names = re.findall(r"^memcon_(?:bench|example)\((\w+)", text, re.M)
        bins |= {OUT / sub / name for name in names}
    run("cmake", "-S", ROOT, "-B", OUT, *CACHE)
    run("cmake", "--build", OUT, "-j", jobs, "--target",
        *(p.name for p in bins if p.parent.name != "perfbench"))
    run("cmake", "-S", ROOT / "perfbench", "-B", OUT / "perfbench", *CACHE)
    run("cmake", "--build", OUT / "perfbench", "-j", jobs)
    return sorted(OUT.glob("src/*/*.a")), sorted(bins)


def fold(symbol):
    """Demangled symbol -> enclosing function: lambdas and template
    arguments fold away, and so does a template's parameter list."""
    s = symbol.replace("[abi:cxx11]", "")
    ops = []  # operator<, operator<< ... would unbalance the <> count
    s = OPERATOR.sub(lambda m: ops.append(m.group(0)) or f"@{len(ops)-1}@", s)
    s = re.split(r"::\{lambda|::\{unnamed", s)[0]
    depth, paren, space = 0, -1, -1
    for i, c in enumerate(s):
        depth += (c == "<") - (c == ">")
        if depth == 0 and c == " " and paren < 0:
            space = i
        if depth == 0 and c == "(":
            paren = i
            break
    if paren < 0:
        return None
    name, params = s[space + 1:paren], s[paren:]
    bare = re.sub(r"<[^<>]*>", "", name)
    while bare != name:
        name, bare = bare, re.sub(r"<[^<>]*>", "", bare)
    if "<" in s[space + 1:paren]:
        params = "(...)"
    key = name + params
    for i, op in enumerate(ops):
        key = key.replace(f"@{i}@", op)
    return key if key.startswith("memcon::") else None


def functions(paths):
    out = subprocess.run(["nm", "-C", "--defined-only", *map(str, paths)],
                         check=True, capture_output=True, text=True).stdout
    found = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "t", "W", "w"):
            key = fold(parts[2])
            if key:
                found.add(key)
    return found


def main():
    libs, bins = build()
    unreached = functions(libs) - functions(bins)
    listed = {}
    for line in LIST.read_text().splitlines():
        name, _, reason = line.partition("  # ")
        if name.strip():
            listed[name.strip()] = reason.strip()
    status = 0
    for name in sorted(unreached - listed.keys()):
        print(f"unreached: {name}  (delete it, or list it with a reason)")
        status = 1
    for name in sorted(listed.keys() - unreached):
        print(f"reached: {name}  (delete its line from {LIST.name})")
        status = 1
    for name, reason in sorted(listed.items()):
        if not reason:
            print(f"no reason: {name}")
            status = 1
    print(f"reach audit: {len(unreached)} unreached, {len(listed)} listed,"
          f" {len(bins)} binaries: {'FAIL' if status else 'ok'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
