#!/usr/bin/env python3
"""Deny `.unwrap()` / `.expect(` / `panic!` in non-test hot-path code.

The matching and forwarding hot paths must degrade gracefully rather than
abort the broker, so new panics there need an explicit justification: either
restructure the code, or add a `path:snippet` rule to
`tools/panic_allowlist.txt` (the snippet is matched as a substring of the
offending line — use the expect message).

`#[cfg(test)]` modules and comment lines are skipped; everything else in the
files listed below is linted. Runs in CI next to `cargo clippy -D warnings`.

Usage: python3 tools/lint_hotpath.py [repo-root]
"""

import sys
from pathlib import Path

HOT_PATH_FILES = [
    "crates/pubsub-core/src/tree.rs",
    "crates/filtering/src/analyze.rs",
    "crates/filtering/src/counting.rs",
    "crates/filtering/src/naive.rs",
    "crates/filtering/src/atree.rs",
    "crates/filtering/src/index.rs",
    "crates/filtering/src/prefilter.rs",
    "crates/filtering/src/engine.rs",
    "crates/broker/src/broker_node.rs",
    "crates/broker/src/routing_table.rs",
    "crates/broker/src/subsumption.rs",
    "crates/broker/src/wire.rs",
    "crates/broker/src/reliable.rs",
]

PATTERNS = [".unwrap()", ".expect(", "panic!"]

ALLOWLIST = "tools/panic_allowlist.txt"


def load_allowlist(root: Path):
    rules = []
    path = root / ALLOWLIST
    if not path.exists():
        return rules
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        file_part, _, snippet = line.partition(":")
        if not snippet:
            sys.exit(f"malformed allowlist rule (want path:snippet): {line!r}")
        rules.append((file_part.strip(), snippet.strip()))
    return rules


def strip_test_modules(lines):
    """Yields (line_number, line) for lines outside `#[cfg(test)]` items."""
    skipping = False
    pending = False  # saw #[cfg(test)], waiting for the item's first brace
    depth = 0
    for number, line in enumerate(lines, start=1):
        if not skipping and "#[cfg(test)]" in line:
            pending = True
            continue
        if pending:
            depth += line.count("{") - line.count("}")
            if depth > 0:
                pending = False
                skipping = True
            elif "{" in line:  # one-line item: opened and closed here
                pending = False
            continue
        if skipping:
            depth += line.count("{") - line.count("}")
            if depth <= 0:
                skipping = False
                depth = 0
            continue
        yield number, line


def code_portion(line):
    """The line with comment text removed (string-literal-naive, line-level)."""
    stripped = line.lstrip()
    if stripped.startswith(("//", "//!", "///")):
        return ""
    # Keep it simple: cut at the first `//` that is not inside quotes.
    in_string = False
    i = 0
    while i < len(line) - 1:
        c = line[i]
        if c == '"' and (i == 0 or line[i - 1] != "\\"):
            in_string = not in_string
        elif not in_string and line[i : i + 2] == "//":
            return line[:i]
        i += 1
    return line


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    rules = load_allowlist(root)
    findings = []
    for rel in HOT_PATH_FILES:
        path = root / rel
        if not path.exists():
            sys.exit(f"lint_hotpath: missing hot-path file {rel}")
        lines = path.read_text().splitlines()
        for number, line in strip_test_modules(lines):
            code = code_portion(line)
            if not any(pattern in code for pattern in PATTERNS):
                continue
            if any(rel.endswith(rf) and snippet in line for rf, snippet in rules):
                continue
            findings.append(f"{rel}:{number}: {line.strip()}")
    if findings:
        print("panic-prone call in non-test hot-path code "
              "(restructure, or justify in tools/panic_allowlist.txt):")
        for finding in findings:
            print(f"  {finding}")
        sys.exit(1)
    print(f"lint_hotpath: {len(HOT_PATH_FILES)} files clean "
          f"({len(rules)} allowlisted sites)")


if __name__ == "__main__":
    main()
