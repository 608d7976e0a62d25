#!/usr/bin/env python3
"""Docs guardrails: link check, README quickstart, counter glossary,
failpoint catalogue.

Four modes, all wired into CI (the `docs` job) so the documentation
cannot rot silently:

  check_docs.py --link-check FILE.md [FILE.md ...]
      Verifies that every relative markdown link target exists on disk,
      resolved against the linking file's directory. External links
      (http/https/mailto) and pure in-page #anchors are skipped — CI
      must not depend on network reachability. Exits 1 listing every
      broken link otherwise.

  check_docs.py --extract-quickstart FILE.md
      Prints the first ```cpp fenced code block of the file to stdout.
      That block is the README's compilable-quickstart contract: CI
      compiles and runs it verbatim against the built library, so the
      snippet can never drift from the actual API.

  check_docs.py --counter-glossary OBS.cc GLOSSARY.md
      Reads every metrics counter name that `obs::ToString(Counter)`
      returns in OBS.cc (src/core/obs.cc) and verifies that each appears,
      in backticks, in the "Counter glossary" section of GLOSSARY.md
      (docs/OBSERVABILITY.md). Exits 1 listing every missing name.

  check_docs.py --failpoint-catalogue SRC_DIR ROBUSTNESS.md
      Collects every failpoint name the sources under SRC_DIR hit —
      `SEMACYC_FAILPOINT("...")` and the search workers' `Visit("...")` —
      and compares it with the first column of the `| failpoint | site |`
      table in ROBUSTNESS.md (docs/ROBUSTNESS.md), both ways. Exits 1
      listing every name missing from the table and every table row no
      source hits.
"""

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:")


def check_links(paths):
    broken = []
    for path in paths:
        md = pathlib.Path(path)
        if not md.is_file():
            broken.append((path, "<the markdown file itself is missing>"))
            continue
        text = md.read_text(encoding="utf-8")
        # Fenced code blocks often hold example syntax that merely looks
        # like links; strip them before scanning.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (md.parent / file_part).resolve()
            if not resolved.exists():
                broken.append((path, target))
    if broken:
        for origin, target in broken:
            print(f"BROKEN LINK in {origin}: {target}", file=sys.stderr)
        return 1
    print(f"link check OK across {len(paths)} file(s)")
    return 0


def extract_quickstart(path):
    text = pathlib.Path(path).read_text(encoding="utf-8")
    match = re.search(r"```cpp\n(.*?)```", text, flags=re.DOTALL)
    if match is None:
        print(f"no ```cpp block found in {path}", file=sys.stderr)
        return 1
    sys.stdout.write(match.group(1))
    return 0


def counter_names(source):
    text = pathlib.Path(source).read_text(encoding="utf-8")
    match = re.search(r"const char\* ToString\(Counter c\) \{(.*?)\n\}",
                      text, flags=re.DOTALL)
    if match is None:
        return []
    return re.findall(r'case Counter::k\w+:\s*return "([^"]+)";',
                      match.group(1))


def check_counter_glossary(source, glossary):
    names = counter_names(source)
    if not names:
        print(f"no ToString(Counter) cases found in {source}", file=sys.stderr)
        return 1
    text = pathlib.Path(glossary).read_text(encoding="utf-8")
    section = re.search(r"^#+ Counter glossary\n(.*?)(?=^#)", text + "\n#",
                        flags=re.DOTALL | re.MULTILINE)
    if section is None:
        print(f"no 'Counter glossary' section in {glossary}", file=sys.stderr)
        return 1
    missing = [n for n in names if f"`{n}`" not in section.group(1)]
    for name in missing:
        print(f"COUNTER MISSING from {glossary} glossary: {name}",
              file=sys.stderr)
    if missing:
        return 1
    print(f"counter glossary OK: all {len(names)} counters documented")
    return 0


FAILPOINT_RE = re.compile(r'(?:SEMACYC_FAILPOINT|\bVisit)\(\s*"([^"]+)"')


def source_failpoints(src_dir):
    names = set()
    for path in sorted(pathlib.Path(src_dir).rglob("*")):
        if path.suffix in (".cc", ".h"):
            names.update(FAILPOINT_RE.findall(
                path.read_text(encoding="utf-8")))
    return names


def catalogue_failpoints(doc):
    text = pathlib.Path(doc).read_text(encoding="utf-8")
    table = re.search(r"^\| failpoint \| site \|\n\|[-| ]+\|\n((?:\|.*\n)*)",
                      text, flags=re.MULTILINE)
    if table is None:
        return None
    return set(re.findall(r"^\| `([^`]+)` \|", table.group(1),
                          flags=re.MULTILINE))


def check_failpoint_catalogue(src_dir, doc):
    in_source = source_failpoints(src_dir)
    if not in_source:
        print(f"no failpoint names found under {src_dir}", file=sys.stderr)
        return 1
    in_doc = catalogue_failpoints(doc)
    if in_doc is None:
        print(f"no '| failpoint | site |' table in {doc}", file=sys.stderr)
        return 1
    for name in sorted(in_source - in_doc):
        print(f"FAILPOINT MISSING from {doc}: {name}", file=sys.stderr)
    for name in sorted(in_doc - in_source):
        print(f"FAILPOINT IN {doc} BUT NOT IN {src_dir}: {name}",
              file=sys.stderr)
    if in_source != in_doc:
        return 1
    print(f"failpoint catalogue OK: {len(in_source)} failpoints documented")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--link-check", action="store_true",
                      help="verify relative link targets exist")
    mode.add_argument("--extract-quickstart", action="store_true",
                      help="print the first ```cpp block to stdout")
    mode.add_argument("--counter-glossary", action="store_true",
                      help="check obs counter names against the glossary")
    mode.add_argument("--failpoint-catalogue", action="store_true",
                      help="check source failpoints against ROBUSTNESS.md")
    parser.add_argument("files", nargs="+", help="markdown files")
    args = parser.parse_args()
    if args.link_check:
        return check_links(args.files)
    if args.counter_glossary:
        if len(args.files) != 2:
            print("--counter-glossary takes OBS.cc and GLOSSARY.md",
                  file=sys.stderr)
            return 2
        return check_counter_glossary(args.files[0], args.files[1])
    if args.failpoint_catalogue:
        if len(args.files) != 2:
            print("--failpoint-catalogue takes SRC_DIR and ROBUSTNESS.md",
                  file=sys.stderr)
            return 2
        return check_failpoint_catalogue(args.files[0], args.files[1])
    if len(args.files) != 1:
        print("--extract-quickstart takes exactly one file", file=sys.stderr)
        return 2
    return extract_quickstart(args.files[0])


if __name__ == "__main__":
    sys.exit(main())
