#!/usr/bin/env bash
# pub-census: which bare `pub` items of crates/*/src no other crate names,
# and what rustc's dead-code lint finds once they are narrowed.
#
# The rule it checks (DESIGN §13): a bare `pub` in a library crate means
# another crate names the item — a workspace library, binary, example or
# integration test, or benchmark/src. Anything else is `pub(crate)` or
# private, and so within reach of rustc's type-aware `dead_code` lint.
#
# How: it extracts <rev> (default HEAD) with `git archive` into a temp
# dir and, there, rewrites every bare `pub` fn, const, static, struct,
# enum, trait, type, union and `use` in the non-test code of crates/*/src
# (a file's code before its first `#[cfg(test)]`; binaries excluded) to
# `pub(crate)`. Then it runs
#   cargo check --offline --workspace --all-targets --keep-going
#   cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
# and puts `pub` back on each item a privacy error or a private-interface
# warning points at (E0603, E0624, E0364, E0365, E0446, private_interfaces,
# private_bounds: their spans, or the re-exported name), or that an
# unresolved-name error names (a glob re-export skips a narrowed item),
# until both builds pass. It prints what stayed narrowed, the `dead_code`
# warnings of `cargo check --workspace --lib` on that tree, and the
# narrowed re-exports nothing uses. On a tree that keeps the rule, all
# three lists are empty.
#
# A report, not a gate, and slow: every round rebuilds the crates above
# the ones it touched (2-8 min on 2 cores). The working tree is never
# touched; the extract and its build go when the script exits.
#
# Usage: scripts/pub_census.sh [<rev>]
set -euo pipefail

repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev="${1:-HEAD}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
# -m: extracted files get the current time, so no build output is older.
git -C "$repo" archive "$rev" | tar -x -m -C "$tmp/tree"
echo "pub census of $rev ($(git -C "$repo" rev-parse --short "$rev"))"

CARGO_TARGET_DIR="$tmp/target" python3 - "$tmp/tree" <<'PY'
import glob, json, os, re, subprocess, sys
from collections import defaultdict

tree = sys.argv[1]
ITEM = re.compile(
    r'^\s*pub\s+(?:(?:const|async|unsafe|extern(?:\s+"[^"]*")?)\s+)*'
    r'(fn|const|static|struct|enum|trait|type|union|use)\b\s*(?:mut\s+)?(\w*)')
# Codes whose message names an item that may have been hidden from a glob.
UNRESOLVED = {"E0405", "E0412", "E0422", "E0423", "E0425", "E0432", "E0433", "E0599"}
POINTING = {"E0603", "E0624", "E0364", "E0365", "E0446",
            "private_interfaces", "private_bounds"}


def sources():
    """Library sources: crates/*/src without a binary's main.rs or bin/."""
    for path in sorted(glob.glob(os.path.join(tree, "crates/*/src/**/*.rs"), recursive=True)):
        rel = os.path.relpath(path, tree)
        if not re.fullmatch(r"crates/[^/]+/src/(main\.rs|bin/.*)", rel):
            yield rel


class Item:
    def __init__(self, rel, line, kind, name, end, names):
        self.rel, self.line, self.kind, self.name = rel, line, kind, name
        self.end, self.names = end, names  # a `use` spans lines and re-exports names

    def __str__(self):
        return f"{self.rel}:{self.line}: pub {self.kind} {self.name}"


def narrow_all():
    items = []
    for rel in sources():
        path = os.path.join(tree, rel)
        lines = open(path).read().split("\n")
        for i, text in enumerate(lines):
            if text.startswith("#[cfg(test)]"):
                break
            m = ITEM.match(text)
            if not m:
                continue
            kind, name, end, names = m.group(1), m.group(2), i, {m.group(2)}
            if kind == "use":
                while ";" not in lines[end]:
                    end += 1
                body = " ".join(lines[i:end + 1]).split("use", 1)[1]
                names = set(re.findall(r"(\w+)\s*(?=[,};]|$)", body)) - {"self"}
                name = body.strip().rstrip(";")
            lines[i] = text.replace("pub", "pub(crate)", 1)
            items.append(Item(rel, i + 1, kind, name, end + 1, names))
        open(path, "w").write("\n".join(lines))
    return items


def widen(item):
    path = os.path.join(tree, item.rel)
    lines = open(path).read().split("\n")
    lines[item.line - 1] = lines[item.line - 1].replace("pub(crate)", "pub", 1)
    open(path, "w").write("\n".join(lines))


def check(args, manifest_dir):
    out = subprocess.run(["cargo", "check", "--offline", "--message-format=json", *args],
                         cwd=tree, capture_output=True, text=True)
    messages = []
    for line in out.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-message":
            messages.append((msg["message"], manifest_dir))
    return out.returncode == 0, messages


def spans(diag, base, primary_only=False):
    for s in diag.get("spans", []):
        if primary_only and not s["is_primary"]:
            continue
        rel = os.path.relpath(os.path.normpath(os.path.join(base, s["file_name"])), tree)
        yield rel, s["line_start"], s["line_end"]
    for child in diag.get("children", []) if not primary_only else []:
        yield from spans(child, base)


def texts(diag):
    yield diag.get("message", "")
    for child in diag.get("children", []):
        yield from texts(child)


def to_widen(narrowed, messages):
    """The narrowed items these diagnostics point at or name."""
    by_line = {(it.rel, line): it for it in narrowed for line in range(it.line, it.end + 1)}
    by_name = defaultdict(list)
    for it in narrowed:
        for n in it.names:
            by_name[n].append(it)
    found, unexplained = set(), []
    for diag, base in messages:
        code = (diag.get("code") or {}).get("code", "")
        if diag["level"] != "error" and code not in POINTING:
            continue
        hits = {by_line[(rel, l)] for rel, start, end in spans(diag, base)
                for l in range(start, end + 1) if (rel, l) in by_line}
        if code in {"E0364", "E0365"} or code in UNRESOLVED:
            for text in texts(diag):
                for quoted in re.findall(r"`([^`]+)`", text):
                    hits.update(by_name.get(re.split(r"::", quoted)[-1], []))
        found |= hits
        if not hits and diag["level"] == "error" and diag.get("code"):
            unexplained.append(diag.get("rendered") or diag["message"])
    return found, unexplained


items = narrow_all()
weighed = len(items)
narrowed = set(items)
builds = [(["--workspace", "--all-targets", "--keep-going"], tree),
          (["--manifest-path", "benchmark/Cargo.toml", "--all-targets"],
           os.path.join(tree, "benchmark"))]
rounds = 0
while True:
    rounds += 1
    ok, back, stuck = True, set(), []
    for args, base in builds:
        passed, messages = check(args, base)
        found, unexplained = to_widen(narrowed, messages)
        back |= found
        stuck += unexplained
        ok &= passed and not found
        if found or not passed:
            break  # widen before the next build: it sees the same items
    print(f"round {rounds}: {len(back)} put back", file=sys.stderr, flush=True)
    if ok:
        break
    if not back:
        sys.exit("errors no narrowed item explains:\n" + "\n".join(stuck[:20]))
    for it in back:
        widen(it)
    narrowed -= back

_, messages = check(["--workspace", "--lib"], tree)
dead, unused = [], []
for diag, base in messages:
    code = (diag.get("code") or {}).get("code", "")
    primary = [(rel, l) for rel, l, _ in spans(diag, base, primary_only=True)]
    where = ", ".join(f"{rel}:{l}" for rel, l in primary)
    if code == "dead_code":
        dead.append(f"{where}: {diag['message']}")
    elif code == "unused_imports" and any(
            it.kind == "use" and it.rel == rel and it.line <= l <= it.end
            for it in narrowed for rel, l in primary):
        unused.append(f"{where}: {diag['message']}")

print(f"{weighed} bare-pub items weighed in crates/*/src, {len(narrowed)} need no "
      f"`pub` ({rounds} rounds)")
for title, rows in [
    ("no other crate names these", [str(it) for it in sorted(narrowed, key=lambda it: (it.rel, it.line))]),
    ("dead once narrowed: cargo check --workspace --lib", sorted(set(dead))),
    ("narrowed re-exports nothing uses", sorted(set(unused))),
]:
    print(f"\n== {title} ({len(rows)}) ==")
    for row in rows:
        print(row)
PY
