#!/usr/bin/env bash
# Dead-value scan: lists every top-level `let` (and `let rec` / `and`) in
# lib/*/*.ml whose name occurs nowhere in lib, bin, bench, test, perfbench
# or examples except on its own definition line and on its own .mli `val`
# line, and exits 1 when there is any.  Occurrences are whole identifier
# tokens in .ml/.mli files, comments included; a name shared by two
# definitions counts for both.
#   scripts/dead_values.sh        # prints "file:line name" per dead value
set -euo pipefail
cd "$(dirname "$0")/.."

dirs="lib bin bench test perfbench examples"
files=$(find $dirs -name '*.ml' -o -name '*.mli' | grep -v '/_build/' | sort)

# shellcheck disable=SC2086
dead=$(
  { cat $files | grep -o "[A-Za-z_][A-Za-z0-9_']*" | sort | uniq -c
    echo "=="
    for f in lib/*/*.ml; do
      awk -v f="$f" '
        /^(type|module|exception|open|include|external|class)[ \t]/ { mode = "" }
        /^let[ \t]/ { mode = "let" }
        (/^let[ \t]/ || (mode == "let" && /^and[ \t]/)) {
          s = $0
          sub(/^(let|and)[ \t]+/, "", s)
          sub(/^rec[ \t]+/, "", s)
          sub(/^\[@[^]]*\][ \t]*/, "", s)
          if (match(s, /^[a-z_][A-Za-z0-9_'"'"']*/)) {
            name = substr(s, 1, RLENGTH)
            if (name != "_") print f, FNR, name
          }
        }' "$f"
    done
  } | awk '
    /^==$/ { defs = 1; next }
    !defs { count[$2] = $1; next }
    { file = $1; line = $2; name = $3
      own = occurrences(file, line, name)
      mli = file "i"         # getline fails at once when there is no .mli
      while ((getline l < mli) > 0)
        if (l ~ ("^[ \t]*val[ \t]+" name "[ \t]*:")) own += tokens_in(l, name)
      close(mli)
      if (count[name] <= own) print file ":" line " " name
    }
    function occurrences(file, line, name,   l, n, i) {
      n = 0; i = 0
      while ((getline l < file) > 0) if (++i == line) { n = tokens_in(l, name); break }
      close(file)
      return n
    }
    function tokens_in(l, name,   n, t) {
      n = 0
      while (match(l, /[A-Za-z_][A-Za-z0-9_'"'"']*/)) {
        t = substr(l, RSTART, RLENGTH)
        if (t == name) n++
        l = substr(l, RSTART + RLENGTH)
      }
      return n
    }'
)

if [ -n "$dead" ]; then
  echo "$dead"
  echo "ERROR: top-level values named only at their definition"
  exit 1
fi
echo "dead-value scan: none"
