#!/usr/bin/env python3
"""Print the counted source lines of src/, in total and per subdirectory.

Usage:
    count_src_lines.py [--base <git-ref>]

A counted line is a non-blank line that does not start with `//` after
leading whitespace; ROADMAP.md tracks the size of src/ in these lines.
Every file under src/ counts, and a subdirectory's row sums the files
below it. With --base, the same count is taken from the tree of that git
commit and each row also shows the base count and the delta.
"""

import argparse
import subprocess
import sys
from collections import Counter
from pathlib import Path


def counted(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("//"))


def row_of(path):
    """The subdirectory row of a path under src/ ("src/" for top files)."""
    parts = Path(path).parts
    return "src/" + parts[1] if len(parts) > 2 else "src/"


def count_worktree(root):
    counts = Counter()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            rel = path.relative_to(root).as_posix()
            counts[row_of(rel)] += counted(
                path.read_text(encoding="utf-8", errors="replace"))
    return counts


def count_ref(root, ref):
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True).stdout
    counts = Counter()
    names = git("ls-tree", "-r", "--name-only", ref, "--", "src")
    for rel in names.decode().splitlines():
        text = git("show", f"{ref}:{rel}").decode("utf-8", errors="replace")
        counts[row_of(rel)] += counted(text)
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref to compare against")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    now = count_worktree(root)
    base = Counter()
    if args.base is not None:
        try:
            base = count_ref(root, args.base)
        except subprocess.CalledProcessError as e:
            sys.exit(f"cannot read {args.base}: {e.stderr.decode().strip()}")
    rows = [("src/ (total)", sum(now.values()), sum(base.values()))]
    rows += [(name, now[name], base[name])
             for name in sorted(set(now) | set(base))]
    compare = args.base is not None
    print(f"{'directory':<16}{'lines':>8}" +
          (f"{'base':>8}{'delta':>8}" if compare else ""))
    for name, n, b in rows:
        print(f"{name:<16}{n:>8}" + (f"{b:>8}{n - b:>+8}" if compare else ""))


if __name__ == "__main__":
    main()
