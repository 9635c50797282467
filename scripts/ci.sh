#!/usr/bin/env bash
# CI for the HHVM-JIT reproduction:
#   1. warning-clean build audit (threads/domain deps must be declared,
#      so a fresh `dune build` prints nothing),
#   2. release-profile audit: the `dune rules` command of one library
#      module (simcpu's Icache) must not pass `-opaque` (it stops all
#      cross-module inlining) and must still pass `-strict-sequence` and
#      the warnings-as-errors spec (dune-workspace selects the release
#      profile and restates the dev profile's flags),
#   3. dead-value scan: `scripts/dead_values.sh` fails when a top-level
#      `let` in lib/*/*.ml is used nowhere: no `M.x` outside its module
#      (through aliases and opens) and no bare `x` inside it beyond its
#      definition and its own .mli `val` line,
#   4. tier-1 test suite,
#   5. differential fuzz beyond the tier-1 seeds: `test/dbg_seeds.exe`
#      checks random programs 1..2000 (interp vs tracelet vs region,
#      before and after retranslate-all; exits nonzero on any mismatch,
#      leak or fatal),
#   6. parallel request-serving smoke: REQUEST_WORKERS=4 exercises the
#      env path through `hhvm_run report`'s multi-domain serving burst,
#      `hhvm_run report --vmstats=bogus` must exit nonzero (FMT is text
#      or json), and the combined JIT_WORKERS=4 REQUEST_WORKERS=4
#      `bench/main.exe serving` sweep exits nonzero when per-request
#      outputs diverge across any (jit x request) worker configuration,
#   7. parallel retranslate-all: `bench/main.exe retranslate` sweeps
#      --jit-workers {1,2,4} and exits nonzero when output hashes or
#      code-cache byte totals diverge across worker counts,
#   8. jumpstart smoke: `hhvm_run warmup --dump` writes an image in one
#      process, `hhvm_run serve --jumpstart` adopts it in a fresh one,
#      and the jumpstarted run must serve with ZERO profiling
#      translations and ZERO retranslate-alls while its output hash is
#      bit-identical to the cold-started run's,
#   9. tc-lifecycle smoke: `bench/main.exe tc_lifecycle` runs the
#      mix-shift scenario at JIT_WORKERS=4 REQUEST_WORKERS=4 — warm on
#      one endpoint mix, shift the mix, decay/evict/compact — and exits
#      nonzero when nothing was evicted, on hash instability across
#      evict/compact, leftover hole bytes after compaction, or output
#      divergence across (jit x request) worker configs; the CLI env
#      path (`serve` with TC_EVICT_THRESHOLD/TC_COMPACT) must evict yet
#      hash-match a plain cold serve,
#   10. interpreter-regression gate: `bench/main.exe micro` exits nonzero
#      when `pipeline/interp fib(12)` is more than 15.0x a fixed-work
#      OCaml reference kernel, both timed in interleaved samples in the
#      same process (fastest sample of each), so host load cancels.
# The serving-report keys and profile sum, the startup cold-vs-jumpstart
# invariants, the lifecycle parity invariants and the cross-mode output
# hash check (Interp/Tracelet/Profile/Region perflab) are tier-1 tests
# (test_spans, test_jumpstart, test_parallel, test_paper).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (warning audit) =="
build_log=$(dune build 2>&1) || { echo "$build_log"; exit 1; }
if [ -n "$build_log" ]; then
  echo "$build_log"
  echo "ERROR: build is not warning-clean"
  exit 1
fi

echo "== release profile: no -opaque, warnings are errors =="
rules=$(dune rules _build/default/lib/simcpu/.simcpu.objs/native/simcpu__Icache.cmx)
if grep -qF -- "-opaque" <<< "$rules"; then
  echo "ERROR: libraries build with -opaque (no cross-module inlining)"
  exit 1
fi
for flag in -strict-sequence "@1..3@5..28@30..39@43@46..47@49..57@61..62-40"; do
  if ! grep -qF -- "$flag" <<< "$rules"; then
    echo "ERROR: library build lost $flag"
    exit 1
  fi
done

echo "== dead-value scan =="
scripts/dead_values.sh

echo "== tier-1 tests =="
dune runtest

echo "== differential fuzz (seeds 1-2000) =="
dune exec test/dbg_seeds.exe -- 1 2000

echo "== parallel serving smoke (4 request workers) =="
REQUEST_WORKERS=4 dune exec bin/hhvm_run.exe -- report

echo "== --vmstats takes only text or json =="
if dune exec bin/hhvm_run.exe -- report --vmstats=bogus > /dev/null 2>&1; then
  echo "ERROR: hhvm_run report --vmstats=bogus exited 0"
  exit 1
fi

echo "== combined compile x serving sweep (4x4) =="
JIT_WORKERS=4 REQUEST_WORKERS=4 dune exec bench/main.exe -- serving

echo "== parallel retranslate determinism (--jit-workers 1,2,4) =="
dune exec bench/main.exe -- retranslate

echo "== jumpstart smoke (warmup dump -> fresh-process restore) =="
img=$(mktemp /tmp/jumpstart.XXXXXX.img)
trap 'rm -f "$img"' EXIT
dune exec bin/hhvm_run.exe -- warmup --dump "$img"
cold=$(dune exec bin/hhvm_run.exe -- serve)
jump=$(dune exec bin/hhvm_run.exe -- serve --jumpstart "$img")
echo "$cold"; echo "$jump"
cold_hash=$(echo "$cold" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
jump_hash=$(echo "$jump" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
if [ -z "$cold_hash" ] || [ "$cold_hash" != "$jump_hash" ]; then
  echo "ERROR: jumpstarted output hash ($jump_hash) != cold hash ($cold_hash)"
  exit 1
fi
if ! echo "$jump" | grep -q "jumpstarted from"; then
  echo "ERROR: serve --jumpstart fell back to a cold start"
  exit 1
fi
if ! echo "$jump" | grep -q "0 profiling"; then
  echo "ERROR: jumpstarted process still made profiling translations"
  exit 1
fi
if ! echo "$jump" | grep -q "retranslate runs 0"; then
  echo "ERROR: jumpstarted process still ran retranslate-all"
  exit 1
fi
# graceful degradation: a corrupt image must log, cold-start, and serve
echo "garbage" > "$img"
degraded=$(dune exec bin/hhvm_run.exe -- serve --jumpstart "$img" 2>&1)
if ! echo "$degraded" | grep -q "falling back to cold start"; then
  echo "ERROR: corrupt jumpstart image did not degrade to a cold start"
  exit 1
fi
deg_hash=$(echo "$degraded" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
if [ "$deg_hash" != "$cold_hash" ]; then
  echo "ERROR: degraded cold start served wrong output ($deg_hash != $cold_hash)"
  exit 1
fi

echo "== tc lifecycle smoke (mix shift, evict + compact, 4x4 parity) =="
JIT_WORKERS=4 REQUEST_WORKERS=4 dune exec bench/main.exe -- tc_lifecycle

echo "== tc lifecycle env path (serve with eviction on) =="
lc=$(TC_EVICT_THRESHOLD=2 TC_COMPACT=1 dune exec bin/hhvm_run.exe -- serve)
echo "$lc"
lc_hash=$(echo "$lc" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
if [ -z "$lc_hash" ] || [ "$lc_hash" != "$cold_hash" ]; then
  echo "ERROR: lifecycle serve output hash ($lc_hash) != cold hash ($cold_hash)"
  exit 1
fi
if ! echo "$lc" | grep -q "tc lifecycle: evicted [1-9]"; then
  echo "ERROR: lifecycle serve evicted nothing"
  exit 1
fi
if ! echo "$lc" | grep -q "0 hole bytes"; then
  echo "ERROR: lifecycle serve left holes uncompacted"
  exit 1
fi

echo "== interpreter regression gate (fib(12) cap) =="
dune exec bench/main.exe -- micro

echo "CI OK"
