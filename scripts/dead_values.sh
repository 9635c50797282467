#!/usr/bin/env bash
# Dead-value scan: lists every top-level `let` (and `let rec` / `and`) in
# lib/*/*.ml that nothing uses, and exits 1 when there is any.  A value
# `x` defined in m.ml (module M) is used when
#   - a bare `x` occurs in m.ml or m.mli other than on its own definition
#     line and its own .mli `val` line, or
#   - `M.x` occurs in another .ml/.mli file under lib, bin, bench, test,
#     perfbench or examples (`A.x` counts too where `module A = ...M`), or
#   - a bare `x` occurs in a file that opens M (`open`, `include`,
#     `let open`, or a local `M.( ... )`).
# Occurrences are whole identifier tokens, comments included.  Counting
# `M.x` rather than the bare token means a dead value no longer passes
# because another module defines the same name.
#   scripts/dead_values.sh        # prints "file:line name" per dead value
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - <<'EOF'
import glob, os, re, sys
from collections import Counter

ID = r"[A-Za-z_][A-Za-z0-9_']*"
MOD = r"[A-Z][A-Za-z0-9_']*"
TOKEN = re.compile(ID)
# `M.x`, also as the tail of a path (`Obs.Vmstats.bump` is `Vmstats.bump`)
QUALIFIED = re.compile(r"(?<![A-Za-z0-9_'])(%s)\.([a-z_][A-Za-z0-9_']*)" % MOD)
PATH = r"((?:%s\.)*%s)" % (MOD, MOD)
OPENS = [re.compile(p) for p in (
    r"\b(?:open!?|include)\s+" + PATH,
    r"\blet\s+open!?\s+" + PATH,
    r"(?<![A-Za-z0-9_'])" + PATH + r"\.[(\[{]",
)]
ALIAS = re.compile(r"\bmodule\s+(%s)\s*=\s*%s" % (MOD, PATH))

def last(path):
    return path.split(".")[-1]

files = sorted(
    f for d in ("lib", "bin", "bench", "test", "perfbench", "examples")
    for f in glob.glob(d + "/**/*.ml*", recursive=True)
    if f.endswith((".ml", ".mli")) and "/_build/" not in f)

bare, qualified, opened = {}, {}, {}
for f in files:
    text = open(f).read()
    aliases = {a: last(p) for a, p in ALIAS.findall(text)}
    bare[f] = Counter(TOKEN.findall(text))
    qualified[f] = Counter((aliases.get(m, m), x)
                           for m, x in QUALIFIED.findall(text))
    opened[f] = {aliases.get(last(p), last(p))
                 for r in OPENS for p in r.findall(text)}

# top-level `let` / `let rec` / `and` names, as the awk scan found them
defs = []
for f in sorted(glob.glob("lib/*/*.ml")):
    in_let = False
    for n, line in enumerate(open(f), 1):
        if re.match(r"(type|module|exception|open|include|external|class)[ \t]", line):
            in_let = False
        if re.match(r"let[ \t]", line):
            in_let = True
        elif not (in_let and re.match(r"and[ \t]", line)):
            continue
        s = re.sub(r"^(let|and)[ \t]+", "", line)
        s = re.sub(r"^rec[ \t]+", "", s)
        s = re.sub(r"^\[@[^]]*\][ \t]*", "", s)
        m = re.match(r"[a-z_][A-Za-z0-9_']*", s)
        if m and m.group() != "_":
            defs.append((f, n, line, m.group()))

dead = []
for f, n, line, x in defs:
    mod = os.path.basename(f)[:-3].capitalize()
    own = (f, f + "i")
    inside = sum(bare[g][x] for g in own if g in bare)
    inside -= TOKEN.findall(line).count(x)
    if os.path.exists(f + "i"):
        for l in open(f + "i"):
            if re.match(r"\s*val\s+%s\s*:" % re.escape(x), l):
                inside -= TOKEN.findall(l).count(x)
    outside = sum(qualified[g][(mod, x)]
                  + (bare[g][x] if mod in opened[g] else 0)
                  for g in files if g not in own)
    if inside <= 0 and outside == 0:
        dead.append("%s:%d %s" % (f, n, x))

if dead:
    print("\n".join(dead))
    print("ERROR: top-level values named only at their definition")
    sys.exit(1)
print("dead-value scan: none")
EOF
