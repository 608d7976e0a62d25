#!/usr/bin/env python3
"""Attributes the samples of scripts/profile/sigprof.c to functions.

    python3 scripts/profile/symbolize.py sigprof.<pid> [--modules]

Each sampled program counter is located in the memory map the sampler
recorded, turned into an address of its ELF file (the program itself,
libc, libstdc++, ...) through that file's PT_LOAD program headers, and
attributed to the enclosing function symbol. Symbols come from
`nm --defined-only` (the full symbol table), or from `nm -D` (the dynamic
one) for a stripped shared library such as libc, so time spent in
malloc/free or memcpy shows under its own name. Prints the achieved
samples per CPU second against the requested rate (the kernel tick may
cap it), then a flat profile of the 40 busiest functions: share of
samples, sample count, function, module. --modules adds the per-module
totals.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_profile(path):
    """Returns (mappings, pcs, header line of the sample section)."""
    maps, pcs, header = [], [], ""
    section = None
    with open(path) as f:
        for line in f:
            if line.startswith("# sigprof maps"):
                section = "maps"
                continue
            if line.startswith("# sigprof samples"):
                section, header = "samples", line.strip()
                continue
            if section == "maps":
                fields = line.split(None, 5)
                if len(fields) < 5:
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) == 6 else ""
                maps.append((start, end, int(fields[2], 16), name))
            elif section == "samples" and line.strip():
                pcs.append(int(line, 16))
    maps.sort()
    return maps, pcs, header


def load_segments(path):
    """PT_LOAD (file offset, file size, virtual address) of an ELF64 file."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            endian = "<" if ident[5] == 1 else ">"
            phoff, = struct.unpack(endian + "Q", ident[32:40])
            phentsize, phnum = struct.unpack(endian + "HH", ident[54:58])
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        entry = table[i * phentsize:(i + 1) * phentsize]
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
            endian + "IIQQQQ", entry[:40])
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def load_symbols(path):
    """Sorted (address, name) of the file's function symbols."""
    for flags in (["--defined-only"], ["-D", "--defined-only"]):
        try:
            out = subprocess.run(["nm", "-n", "-C"] + flags + [path],
                                 capture_output=True, text=True).stdout
        except OSError:
            return []
        symbols = []
        for line in out.splitlines():
            fields = line.split(None, 2)
            if len(fields) == 3 and fields[1] in "TtWwi":
                symbols.append((int(fields[0], 16), fields[2]))
        if symbols:
            return symbols
    return []


class Module:
    def __init__(self, path):
        self.name = os.path.basename(path)
        self.segments = load_segments(path)
        symbols = load_symbols(path) if self.segments else []
        self.addresses = [a for a, _ in symbols]
        self.names = [n for _, n in symbols]

    def function(self, file_offset):
        for p_offset, p_filesz, p_vaddr in self.segments:
            if p_offset <= file_offset < p_offset + p_filesz:
                vaddr = file_offset - p_offset + p_vaddr
                i = bisect.bisect_right(self.addresses, vaddr) - 1
                return self.names[i] if i >= 0 else "?"
        return "?"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--modules", action="store_true")
    args = parser.parse_args()

    maps, pcs, header = read_profile(args.profile)
    if not pcs:
        print("no samples in " + args.profile, file=sys.stderr)
        return 1
    starts = [m[0] for m in maps]
    modules = {}
    by_function = collections.Counter()
    by_module = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            key = ("?", "[unmapped]")
        else:
            start, _, offset, name = maps[i]
            if not name.startswith("/"):
                key = ("?", name or "[anonymous]")
            else:
                module = modules.get(name)
                if module is None:
                    module = modules[name] = Module(name)
                key = (module.function(pc - start + offset), module.name)
        by_function[key] += 1
        by_module[key[1]] += 1

    total = len(pcs)
    print(header)
    # "# sigprof samples N dropped D cpu_s S hz R": name/value pairs.
    fields = header.split()[2:]
    stats = dict(zip(fields[::2], fields[1::2]))
    cpu_s = float(stats.get("cpu_s", 0))
    if cpu_s > 0:
        delivered = int(stats["samples"]) + int(stats["dropped"])
        print("achieved %.0f samples per CPU second (requested %s)" %
              (delivered / cpu_s, stats.get("hz", "?")))
    print("%7s %8s  %s" % ("share", "samples", "function [module]"))
    for (function, module), count in by_function.most_common(40):
        print("%6.2f%% %8d  %s [%s]" % (100.0 * count / total, count,
                                        function, module))
    if args.modules:
        print()
        print("%7s %8s  %s" % ("share", "samples", "module"))
        for module, count in by_module.most_common():
            print("%6.2f%% %8d  %s" % (100.0 * count / total, count, module))
    return 0


if __name__ == "__main__":
    sys.exit(main())
