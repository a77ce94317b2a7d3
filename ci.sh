#!/bin/sh
# CI entry point: build, test, (optionally) check formatting, then run
# one tiny traced experiment and validate the emitted JSONL trace.
# Everything here must pass before a change lands.
set -eu

say() { printf '\n== %s ==\n' "$1"; }

say "dune build"
dune build
# ROADMAP's progress measures for one path per concern (reporting only).
echo "lib/: $(cat lib/*/*.ml lib/*/*.mli | wc -l) lines;" \
  "uncalled_exports.txt: $(grep -c '^[A-Z]' uncalled_exports.txt) entries"

say "dune build @check"
# Compiles every module, test units included, and leaves a .cmt for
# each: the exports scan below reads them.
dune build @check

say "uncalled exports"
# Every top-level val of lib/*/*.mli needs a caller in shipped code
# (lib/, bin/, bench/, perfbench/, examples/) outside its own module.
# The compiler resolves each use: `ocamlcmt -annot` prints every
# identifier with the file and line of its declaration, and a use from
# another unit resolves to that line of the .mli.  uncalled_exports.txt
# lists, each with its reason, the exports that stay without one (test
# hooks, first-class-module uses).  The scan must match the file
# exactly, so the file only shrinks.
uncalled_exports() {
  incs=$(find _build/default -type d -path '*.objs/byte' | sort | sed 's/^/-I /')
  for p in cmdliner bechamel fmt logs unix threads alcotest; do
    incs="$incs -I $(ocamlfind query "$p")"
  done
  refs=$(mktemp /tmp/spamlab-ci-refs.XXXXXX)
  for f in $(find _build/default/lib _build/default/bin _build/default/bench \
               _build/default/perfbench _build/default/examples \
               -name '*.cmt' | sort); do
    # The unit's own directory first: every executable has a Dune__exe.
    ocamlcmt -annot -o - -I "${f%/*}" $incs "$f" > "$refs.annot" || {
      echo "FAIL: ocamlcmt could not read $f" >&2
      rm -f "$refs" "$refs.annot"
      return 1
    }
    sed -n 's|^  int_ref .* "\(lib/[^"]*\.mli\)" \([0-9]*\) [0-9]* [0-9]* "[^"]*" [0-9]* [0-9]* [0-9]*$|\1 \2|p' \
      "$refs.annot" >> "$refs"
  done
  awk 'NR == FNR { called[$1 " " $2] = 1; next }
       FNR == 1 { n = split(FILENAME, p, "/"); m = p[n]; sub(/\.mli$/, "", m)
                  m = toupper(substr(m, 1, 1)) substr(m, 2) }
       /^val / && !((FILENAME " " FNR) in called) {
         v = $2; sub(/:.*/, "", v); print m "." v }' "$refs" lib/*/*.mli \
    | sort
  rm -f "$refs" "$refs.annot"
}
scanned=$(mktemp /tmp/spamlab-ci-scan.XXXXXX)
listed=$(mktemp /tmp/spamlab-ci-listed.XXXXXX)
uncalled_exports > "$scanned"
sed -n 's/^\([A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*\).*/\1/p' uncalled_exports.txt \
  | sort > "$listed"
if ! cmp -s "$listed" "$scanned"; then
  echo "FAIL: the uncalled exports differ from uncalled_exports.txt"
  echo "  (> uncalled, not listed: give it a shipped caller or delete it;"
  echo "   < listed, but called or gone: drop its line)"
  diff "$listed" "$scanned" | grep '^[<>]'
  rm -f "$scanned" "$listed"
  exit 1
fi
echo "uncalled exports OK: $(wc -l < "$scanned") listed, none new"
rm -f "$scanned" "$listed"

say "dune runtest"
t0=$(date +%s%N)
dune runtest --force
t1=$(date +%s%N)
# The tier-1 aim is the whole suite in under 20 s (reporting only);
# --force reruns every test, so this is the suite's wall time.
echo "dune runtest: $(( (t1 - t0) / 1000000 )) ms wall"

say "format check"
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ocamlformat not installed; skipping (formatting is advisory)"
fi

say "CLI help pages"
# cmdliner reports a doc-string markup error on stderr and still exits
# 0, printing the page with the offending text mangled.  Every command
# and subcommand page must render with nothing on stderr.
spamlab_commands() { # [command...]: the COMMANDS section's names
  ./_build/default/bin/spamlab.exe "$@" --help=plain 2> /dev/null \
    | sed -n '/^COMMANDS$/,/^[A-Z]/s/^       \([a-z][a-z0-9-]*\).*/\1/p'
}
pages=0
for cmd in $(spamlab_commands); do
  for sub in "" $(spamlab_commands "$cmd"); do
    err=$(./_build/default/bin/spamlab.exe $cmd $sub --help=plain 2>&1 > /dev/null)
    test -z "$err" \
      || { echo "FAIL: spamlab $cmd $sub --help=plain wrote to stderr:"; \
           echo "$err"; exit 1; }
    pages=$((pages + 1))
  done
done
test "$pages" -ge 20 || { echo "FAIL: found only $pages help pages"; exit 1; }
echo "help OK: $pages pages, nothing on stderr"

say "traced smoke experiment"
trace=$(mktemp /tmp/spamlab-ci-trace.XXXXXX.jsonl)
trap 'rm -f "$trace"' EXIT
./_build/default/bin/spamlab.exe experiment fig1 \
  --scale 0.02 --jobs 2 --trace "$trace" > /dev/null

say "trace validation"
test -s "$trace" || { echo "FAIL: trace is empty"; exit 1; }
head -n 1 "$trace" | grep -q '"ev":"meta".*"format":"spamlab-trace"' \
  || { echo "FAIL: missing meta header"; exit 1; }
if grep -nv '^{.*}$' "$trace"; then
  echo "FAIL: non-JSON-object trace lines (above)"; exit 1
fi
opens=$(grep -c '"ev":"span_open"' "$trace")
closes=$(grep -c '"ev":"span_close"' "$trace")
test "$opens" -eq "$closes" \
  || { echo "FAIL: $opens span_open vs $closes span_close"; exit 1; }
test "$opens" -gt 0 || { echo "FAIL: no spans recorded"; exit 1; }
grep -q '"ev":"counter".*"name":"eval.messages_classified"' "$trace" \
  || { echo "FAIL: missing eval.messages_classified counter"; exit 1; }
echo "trace OK: $opens spans, balanced"

say "bench --timings smoke"
timings=$(mktemp /tmp/spamlab-ci-timings.XXXXXX.json)
trap 'rm -f "$trace" "$timings"' EXIT
./_build/default/bench/main.exe fig2 ingest \
  --scale 0.02 --jobs 2 --timings "$timings" > /dev/null

say "timings validation"
test -s "$timings" || { echo "FAIL: timings file is empty"; exit 1; }
grep -q '"seed":' "$timings" || { echo "FAIL: missing seed key"; exit 1; }
grep -q '"scale":' "$timings" || { echo "FAIL: missing scale key"; exit 1; }
grep -q '"jobs":' "$timings" || { echo "FAIL: missing jobs key"; exit 1; }
grep -q '"experiments":\[' "$timings" \
  || { echo "FAIL: missing experiments array"; exit 1; }
grep -q '"id":"fig2"' "$timings" \
  || { echo "FAIL: missing fig2 experiment entry"; exit 1; }
# The ingest throughput bench must record all three paths per tokenizer.
for tok in spambayes bogofilter spamassassin; do
  for path in legacy zerocopy pool; do
    grep -q "\"id\":\"ingest-$tok-$path\"" "$timings" \
      || { echo "FAIL: missing ingest-$tok-$path bench entry"; exit 1; }
  done
done
# Every recorded wall time must be positive (a 0.000000 would mean the
# experiment never actually ran).
if grep -q '"seconds":0\.000000' "$timings" \
  || grep -q '"seconds":-' "$timings"; then
  echo "FAIL: non-positive experiment wall time"; exit 1
fi
echo "timings OK: $(cat "$timings")"

say "cross-jobs determinism"
# Experiment stdout must be byte-identical at every --jobs value: the
# corpus substrate splits one rng child per message index, so the
# domain count can never leak into results.  fig1 exercises the
# dictionary-attack path through the zero-copy ingest pipeline, fig2
# the focused-attack path, fig5 the dynamic-threshold path (the second
# Poison.sweep caller), roni the defense path; corpus, tokens and
# tokenizers count and poison through example ids, whose values follow
# the pool's schedule.
j1=$(mktemp /tmp/spamlab-ci-jobs1.XXXXXX.txt)
j4=$(mktemp /tmp/spamlab-ci-jobs4.XXXXXX.txt)
trap 'rm -f "$trace" "$timings" "$j1" "$j4"' EXIT
for exp in fig1 fig2 fig5 roni corpus tokens tokenizers; do
  ./_build/default/bin/spamlab.exe experiment "$exp" \
    --scale 0.05 --jobs 1 > "$j1"
  ./_build/default/bin/spamlab.exe experiment "$exp" \
    --scale 0.05 --jobs 4 > "$j4"
  diff -u "$j1" "$j4" \
    || { echo "FAIL: $exp output differs between --jobs 1 and --jobs 4"; exit 1; }
  echo "$exp: jobs 1 == jobs 4"
done

say "a run's cost does not depend on what ran before it"
# The intern table is process-global and only grows, so any per-filter
# structure sized by id ranges instead of by the tokens it holds makes
# an experiment slower after one that interned a lot.  roni-sweep
# builds thousands of small filters; ablate-coverage interns hundreds
# of thousands of ids first.  Paired, roni-sweep must take at most
# 1.5x its time alone, and print the same bytes.  One wall-clock run
# a side swings by a third on a shared host, so each side runs three
# times, alternating, and the least times are compared.
hdir=$(mktemp -d /tmp/spamlab-ci-history.XXXXXX)
trap 'rm -f "$trace" "$timings" "$j1" "$j4"; rm -rf "$hdir"' EXIT
sweep_s() { sed 's/.*"id":"roni-sweep","seconds":\([0-9.]*\).*/\1/' "$1"; }
for i in 1 2 3; do
  ./_build/default/bench/main.exe ablate-coverage roni-sweep \
    --scale 0.05 --jobs 1 --timings "$hdir/pair.json" > "$hdir/pair.txt"
  ./_build/default/bench/main.exe roni-sweep \
    --scale 0.05 --jobs 1 --timings "$hdir/alone.json" > "$hdir/alone.txt"
  # The roni-sweep section: what follows ablate-coverage's finish line
  # (pair) or the harness header (alone), less its own finish line.
  sed -n '/^\[ablate-coverage finished in/,$p' "$hdir/pair.txt" | sed 1d \
    | grep -v '^\[roni-sweep finished in' > "$hdir/pair.sweep"
  sed 1d "$hdir/alone.txt" | grep -v '^\[roni-sweep finished in' \
    > "$hdir/alone.sweep"
  cmp "$hdir/pair.sweep" "$hdir/alone.sweep" \
    || { echo "FAIL: roni-sweep prints different bytes after ablate-coverage"; exit 1; }
  sweep_s "$hdir/pair.json" >> "$hdir/paired.s"
  sweep_s "$hdir/alone.json" >> "$hdir/alone.s"
done
paired=$(sort -g "$hdir/paired.s" | head -1)
alone=$(sort -g "$hdir/alone.s" | head -1)
rm -rf "$hdir"
awk -v p="$paired" -v a="$alone" 'BEGIN { exit !(p <= 1.5 * a) }' \
  || { echo "FAIL: roni-sweep took ${paired}s after ablate-coverage, ${alone}s alone (least of 3, over 1.5x)"; exit 1; }
echo "roni-sweep: ${paired}s after ablate-coverage, ${alone}s alone (least of 3), same bytes"

say "fault-injected determinism"
# Transient faults are retried to success by the pool's supervision,
# so a faulted run must be byte-identical to the fault-free one.  The
# occurrences are spaced widely so no element eats all three of its
# retry attempts.
faulted=$(mktemp /tmp/spamlab-ci-faulted.XXXXXX.txt)
trap 'rm -f "$trace" "$timings" "$j1" "$j4" "$faulted"' EXIT
./_build/default/bin/spamlab.exe experiment fig2 \
  --scale 0.05 > "$j1"
./_build/default/bin/spamlab.exe experiment fig2 \
  --scale 0.05 --fault-spec 'pool.task:transient@3+97+401' > "$faulted"
diff -u "$j1" "$faulted" \
  || { echo "FAIL: fig2 output differs under transient faults"; exit 1; }
echo "fig2: fault-free == transient-faulted"
# The intern table grows inside pool-supervised tokenize tasks; a
# transient fault at the grow site (fired before any mutation) must be
# retried to the same bytes.
./_build/default/bin/spamlab.exe experiment fig2 \
  --scale 0.05 --fault-spec 'intern.grow:transient@2+5+11' > "$faulted"
diff -u "$j1" "$faulted" \
  || { echo "FAIL: fig2 output differs under intern.grow faults"; exit 1; }
echo "fig2: fault-free == intern.grow-faulted"
# The probability-cache fill path carries its own fault site; a
# transient there falls through to the uncached compute for that token
# without touching the slot, so output must not move by a byte.
./_build/default/bin/spamlab.exe experiment fig2 \
  --scale 0.05 --fault-spec 'score.cache.fill:transient@2+33+501' > "$faulted"
diff -u "$j1" "$faulted" \
  || { echo "FAIL: fig2 output differs under score.cache.fill faults"; exit 1; }
echo "fig2: fault-free == cache-fill-faulted"

say "probability cache: cached vs uncached byte identity"
# SPAMLAB_NO_PROB_CACHE=1 makes every probability read compute uncached
# (the kill switch).  A cached parallel run must produce byte-identical
# experiment output to an uncached serial run — one diff covering both
# the cache and the jobs axis.
pc_cached=$(mktemp /tmp/spamlab-ci-pc-cached.XXXXXX.txt)
pc_uncached=$(mktemp /tmp/spamlab-ci-pc-uncached.XXXXXX.txt)
for exp in fig1 fig2 roni; do
  ./_build/default/bin/spamlab.exe experiment "$exp" \
    --scale 0.05 --jobs 4 > "$pc_cached"
  SPAMLAB_NO_PROB_CACHE=1 ./_build/default/bin/spamlab.exe experiment "$exp" \
    --scale 0.05 --jobs 1 > "$pc_uncached"
  diff -u "$pc_uncached" "$pc_cached" \
    || { echo "FAIL: $exp cached (jobs 4) differs from uncached (jobs 1)"; exit 1; }
  echo "$exp: uncached jobs 1 == cached jobs 4"
done
rm -f "$pc_cached" "$pc_uncached"

say "kill and resume"
# An injected crash kills the run mid-sweep (exit 70); resuming from
# the checkpoint must reproduce the uninterrupted output exactly.
ckpt=$(mktemp /tmp/spamlab-ci-ckpt.XXXXXX.jsonl)
resumed=$(mktemp /tmp/spamlab-ci-resumed.XXXXXX.txt)
trap 'rm -f "$trace" "$timings" "$j1" "$j4" "$faulted" "$ckpt" "$resumed"' EXIT
status=0
./_build/default/bin/spamlab.exe experiment fig2 \
  --scale 0.05 --checkpoint "$ckpt" \
  --fault-spec 'checkpoint.record:crash@3' > /dev/null 2>&1 || status=$?
test "$status" -eq 70 \
  || { echo "FAIL: injected crash should exit 70, got $status"; exit 1; }
test -s "$ckpt" || { echo "FAIL: checkpoint is empty after the kill"; exit 1; }
./_build/default/bin/spamlab.exe experiment fig2 \
  --scale 0.05 --checkpoint "$ckpt" --resume > "$resumed"
diff -u "$j1" "$resumed" \
  || { echo "FAIL: resumed fig2 output differs from the baseline"; exit 1; }
echo "fig2: killed at record 3, resumed, byte-identical"

say "serve soak: cross-jobs determinism"
# The daemon's CLASSIFY fan-out over the domain pool must never leak
# the worker count: a fixed client-load seed must produce byte-identical
# client stdout, STATS (minus the latency.* lines, which are wall-clock)
# and published token database at every --jobs value.
sdir=$(mktemp -d /tmp/spamlab-ci-serve.XXXXXX)
trap 'rm -f "$trace" "$timings" "$j1" "$j4" "$faulted" "$ckpt" "$resumed"; rm -rf "$sdir"' EXIT
spamlab=./_build/default/bin/spamlab.exe
daemon_pid=

# Readiness means the protocol answers, not that the socket file exists
# (the file appears at bind, a beat before the accept loop runs — and a
# daemon that died at startup leaves the stale file of its predecessor).
# Probe with PING under bounded backoff; fail loudly with the server log.
# Exactly one PING succeeds per call (failed connects never reach the
# daemon), so the probe shifts STATS identically in every compared leg.
wait_ready() { # tag
  for delay in 0 0.02 0.04 0.08 0.15 0.3 0.5 0.5 1 1 1 1 1 1; do
    sleep "$delay"
    if "$spamlab" client ping --socket "$sdir/$1.sock" > /dev/null 2>&1; then
      return 0
    fi
    kill -0 "$daemon_pid" 2> /dev/null \
      || { echo "FAIL: $1 daemon died before answering PING"; \
           cat "$sdir/$1.serve.log"; exit 1; }
  done
  echo "FAIL: $1 daemon never answered PING on $sdir/$1.sock"
  cat "$sdir/$1.serve.log"
  exit 1
}

start_daemon() { # tag jobs [extra serve args...]
  tag=$1; dj=$2; shift 2
  "$spamlab" serve --db "$sdir/$tag.db" --socket "$sdir/$tag.sock" \
    --jobs "$dj" "$@" 2>> "$sdir/$tag.serve.log" &
  daemon_pid=$!
  wait_ready "$tag"
}

run_leg() { # tag jobs [extra serve args...]
  leg=$1; lj=$2; shift 2
  start_daemon "$leg" "$lj" "$@"
  "$spamlab" client load --socket "$sdir/$leg.sock" --seed 7 \
    > "$sdir/$leg.client.txt" 2> "$sdir/$leg.client.log" \
    || { echo "FAIL: $leg client load failed"; cat "$sdir/$leg.client.log"; exit 1; }
  "$spamlab" client stats --socket "$sdir/$leg.sock" \
    | grep -v '^latency\.' > "$sdir/$leg.stats.txt"
  kill -TERM "$daemon_pid"
  wait "$daemon_pid" \
    || { echo "FAIL: $leg daemon exited nonzero on SIGTERM"; exit 1; }
}

run_leg sj1 1
run_leg sj4 4
# A third leg with the probability cache killed: the daemon's shared
# snapshot cache must never influence a verdict, a clue, a STATS
# counter, or the published database.
export SPAMLAB_NO_PROB_CACHE=1
run_leg snc 4
unset SPAMLAB_NO_PROB_CACHE
cmp -s "$sdir/sj1.client.txt" "$sdir/snc.client.txt" \
  || { echo "FAIL: client stdout differs with the prob cache disabled"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/snc.client.txt" | head -20; exit 1; }
cmp -s "$sdir/sj1.db" "$sdir/snc.db" \
  || { echo "FAIL: published db differs with the prob cache disabled"; exit 1; }
cmp -s "$sdir/sj4.stats.txt" "$sdir/snc.stats.txt" \
  || { echo "FAIL: STATS differ with the prob cache disabled"; \
       diff -u "$sdir/sj4.stats.txt" "$sdir/snc.stats.txt"; exit 1; }
echo "serve: cached == uncached (client stdout, STATS, db)"
cmp -s "$sdir/sj1.client.txt" "$sdir/sj4.client.txt" \
  || { echo "FAIL: client stdout differs between daemon --jobs 1 and 4"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/sj4.client.txt" | head -20; exit 1; }
cmp -s "$sdir/sj1.stats.txt" "$sdir/sj4.stats.txt" \
  || { echo "FAIL: STATS differ between daemon --jobs 1 and 4"; \
       diff -u "$sdir/sj1.stats.txt" "$sdir/sj4.stats.txt"; exit 1; }
cmp -s "$sdir/sj1.db" "$sdir/sj4.db" \
  || { echo "FAIL: published db differs between daemon --jobs 1 and 4"; exit 1; }
echo "serve: daemon jobs 1 == jobs 4 (client stdout, STATS, db)"

say "serve soak: cross-jobs determinism, bogofilter tokenizer"
# Bogofilter mines every header, so it is the tokenizer that shows
# what TRAIN ingests: the headers CLASSIFY's raw ingest suppresses
# (Date, Message-ID, ...) must never be learned either.
run_leg bj1 1 --tokenizer bogofilter
run_leg bj4 4 --tokenizer bogofilter
for f in client.txt stats.txt db; do
  cmp -s "$sdir/bj1.$f" "$sdir/bj4.$f" \
    || { echo "FAIL: bogofilter $f differs between daemon --jobs 1 and 4"; \
         diff -u "$sdir/bj1.$f" "$sdir/bj4.$f" | head -20; exit 1; }
done
grep -q '^subject:' "$sdir/bj1.db" \
  || { echo "FAIL: bogofilter db holds no mined subject: row"; exit 1; }
if grep -n -e '^date:' -e '^message-id:' "$sdir/bj1.db" | head -5 | grep .; then
  echo "FAIL: bogofilter db holds suppressed-header rows (above)"; exit 1
fi
echo "serve (bogofilter): daemon jobs 1 == jobs 4 (client stdout, STATS, db); no date:/message-id: rows"

say "offline train == daemon publish; a failed UNTRAIN applies nothing"
# Offline `spamlab train` ingests raw mail exactly as daemon TRAIN does,
# so training the same two mboxes either way must leave byte-identical
# databases under every tokenizer — bogofilter included, whose header
# mining would expose any suppressed header the offline path learned.
# Before the publish, an UNTRAIN of every trained ham message followed
# by one never-trained message must answer ERR and apply nothing: the
# same byte comparison proves no message was untrained.  `spamlab
# stats` reads the same mboxes the same way, so the distinct tokens it
# counts are the entries of the db `train` wrote.
"$spamlab" corpus --size 200 --ham "$sdir/otr.ham.mbox" \
  --spam "$sdir/otr.spam.mbox" 2> /dev/null
{ cat "$sdir/otr.ham.mbox"
  printf 'From spamlab@localhost Thu Jan  1 00:00:00 1970\n'
  printf 'Subject: zqxv never trained\n\nqwzzyx plorbni vextrulm\n\n'
} > "$sdir/otr.untrain.mbox"
for tok in spambayes bogofilter spamassassin; do
  "$spamlab" train --tokenizer "$tok" --ham "$sdir/otr.ham.mbox" \
    --spam "$sdir/otr.spam.mbox" --db "$sdir/otr-$tok.offline.db" 2> /dev/null \
    || { echo "FAIL: offline $tok train failed"; exit 1; }
  counted=$("$spamlab" stats --tokenizer "$tok" --ham "$sdir/otr.ham.mbox" \
    --spam "$sdir/otr.spam.mbox" | sed -n 's/^distinct tokens *//p')
  entries=$("$spamlab" db verify "$sdir/otr-$tok.offline.db" \
    | sed -n 's/^  entries: *\([0-9]*\) tokens$/\1/p')
  [ -n "$counted" ] && [ "$counted" = "$entries" ] \
    || { echo "FAIL: $tok stats counts '$counted' distinct tokens, train's db holds '$entries'"; exit 1; }
  start_daemon "otr-$tok" 1 --tokenizer "$tok" --publish-every 0
  for class in ham spam; do
    "$spamlab" client train --socket "$sdir/otr-$tok.sock" --class "$class" \
      "$sdir/otr.$class.mbox" > /dev/null \
      || { echo "FAIL: $tok daemon $class TRAIN failed"; exit 1; }
  done
  if "$spamlab" client untrain --socket "$sdir/otr-$tok.sock" --class ham \
      "$sdir/otr.untrain.mbox" > /dev/null 2> "$sdir/otr-$tok.untrain.err"; then
    echo "FAIL: $tok UNTRAIN with a never-trained message succeeded"; exit 1
  fi
  grep -q 'daemon error: Token_db.untrain' "$sdir/otr-$tok.untrain.err" \
    || { echo "FAIL: $tok UNTRAIN failed for another reason:"; \
         cat "$sdir/otr-$tok.untrain.err"; exit 1; }
  "$spamlab" client publish --socket "$sdir/otr-$tok.sock" > /dev/null
  kill -TERM "$daemon_pid"
  wait "$daemon_pid" \
    || { echo "FAIL: otr-$tok daemon exited nonzero on SIGTERM"; exit 1; }
  cmp -s "$sdir/otr-$tok.offline.db" "$sdir/otr-$tok.db" \
    || { echo "FAIL: $tok offline train db differs from the daemon's publish"; \
         diff "$sdir/otr-$tok.offline.db" "$sdir/otr-$tok.db" | head -10; exit 1; }
done
if grep -n -e '^date:' -e '^message-id:' "$sdir/otr-bogofilter.offline.db" \
    | head -5 | grep .; then
  echo "FAIL: offline bogofilter db holds suppressed-header rows (above)"; exit 1
fi
echo "offline train == daemon publish (spambayes, bogofilter, spamassassin); stats distinct tokens == db entries; no date:/message-id: rows; failed UNTRAIN applied nothing"

say "read traffic does not grow the vocabulary"
# CLASSIFY looks tokens up without interning them.  Scoring the paper's
# aspell dictionary-attack mail against sj1's published db, on the
# shared target and on a tenant, must leave STATS intern.size as it
# was; a TRAIN of the same mail must grow it.
cp "$sdir/sj1.db" "$sdir/voc.db"
start_daemon voc 1 --store-dir "$sdir/voc.store"
"$spamlab" attack dictionary --variant aspell --words 98568 --count 1 \
  --out "$sdir/voc.attack.mbox" 2> /dev/null
intern_size() {
  "$spamlab" client stats --socket "$sdir/voc.sock" | sed -n 's/^intern\.size //p'
}
before=$(intern_size)
"$spamlab" client classify --socket "$sdir/voc.sock" "$sdir/voc.attack.mbox" \
  > /dev/null || { echo "FAIL: shared CLASSIFY of the attack mail failed"; exit 1; }
"$spamlab" client classify --socket "$sdir/voc.sock" --user mallory \
  "$sdir/voc.attack.mbox" > /dev/null \
  || { echo "FAIL: tenant CLASSIFY of the attack mail failed"; exit 1; }
after=$(intern_size)
[ -n "$before" ] && [ "$before" = "$after" ] \
  || { echo "FAIL: CLASSIFY moved intern.size from '$before' to '$after'"; exit 1; }
"$spamlab" client train --socket "$sdir/voc.sock" --class spam \
  "$sdir/voc.attack.mbox" > /dev/null \
  || { echo "FAIL: TRAIN of the attack mail failed"; exit 1; }
trained=$(intern_size)
[ "$trained" -gt "$after" ] \
  || { echo "FAIL: TRAIN did not grow intern.size ($after -> $trained)"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: voc daemon exited nonzero on SIGTERM"; exit 1; }
echo "serve: CLASSIFY of the aspell attack left intern.size at $after (shared, tenant); TRAIN grew it to $trained"

say "pathological HTML does not stall CLASSIFY"
# A single-part text/html body of 512 KiB of '&': entity decoding is
# linear (only a ';' within 8 bytes closes an entity), so the serial
# daemon answers within seconds, not minutes, and stays up.  Its
# verdict line equals the offline classify-mbox verdict on the file.
cp "$sdir/sj1.db" "$sdir/amp.db"
{ printf 'From spamlab@localhost Thu Jan  1 00:00:00 1970\nSubject: ampersands\n'
  printf 'Content-Type: text/html\n\n'
  head -c 524288 /dev/zero | tr '\0' '&'
  printf '\n\n'; } > "$sdir/amp.mbox"
start_daemon amp 1
timeout 30 "$spamlab" client classify --socket "$sdir/amp.sock" "$sdir/amp.mbox" \
  > "$sdir/amp.daemon.txt" \
  || { echo "FAIL: CLASSIFY of 512 KiB of '&' failed or took over 30 s"; exit 1; }
"$spamlab" client ping --socket "$sdir/amp.sock" > /dev/null \
  || { echo "FAIL: the daemon did not answer PING after the '&' CLASSIFY"; exit 1; }
"$spamlab" classify-mbox --db "$sdir/amp.db" "$sdir/amp.mbox" > "$sdir/amp.offline.txt" \
  || { echo "FAIL: classify-mbox of the '&' mail failed"; exit 1; }
cmp -s "$sdir/amp.daemon.txt" "$sdir/amp.offline.txt" \
  || { echo "FAIL: daemon verdict differs from classify-mbox"; \
       diff -u "$sdir/amp.offline.txt" "$sdir/amp.daemon.txt"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: amp daemon exited nonzero on SIGTERM"; exit 1; }
echo "serve: 512 KiB of '&' classified within 30 s: $(cat "$sdir/amp.daemon.txt")"

say "serve soak: crash mid-TRAIN, restart, replay"
# The second publish crashes the daemon (exit 70) partway through the
# TRAIN schedule.  The client reconnect-retries, replaying its
# unpublished buffer against the restarted daemon; the final stdout and
# the published database must match the uninterrupted sj1 leg exactly.
start_daemon crash 1 --fault-spec 'serve.publish:crash@2'
"$spamlab" client load --socket "$sdir/crash.sock" --seed 7 \
  > "$sdir/crash.client.txt" 2> "$sdir/crash.client.log" &
client_pid=$!
status=0
wait "$daemon_pid" || status=$?
[ "$status" -eq 70 ] \
  || { echo "FAIL: injected publish crash should exit 70, got $status"; exit 1; }
start_daemon crash 1
wait "$client_pid" \
  || { echo "FAIL: client did not survive the daemon crash"; \
       cat "$sdir/crash.client.log"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: restarted daemon exited nonzero on SIGTERM"; exit 1; }
cmp -s "$sdir/sj1.client.txt" "$sdir/crash.client.txt" \
  || { echo "FAIL: crash-and-replay client stdout differs from uninterrupted"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/crash.client.txt" | head -20; exit 1; }
cmp -s "$sdir/sj1.db" "$sdir/crash.db" \
  || { echo "FAIL: crash-and-replay db differs from uninterrupted"; exit 1; }
grep -q 'reconnects=' "$sdir/crash.client.log" \
  || { echo "FAIL: client log records no reconnect"; exit 1; }
echo "serve: crashed at publish 2, restarted, replayed, byte-identical"

say "serve soak: crash mid-fold, restart, replay"
# db.journal.fold fires inside a publish's fold of the shared db,
# between the db's rename and the journal's reset, where the journal on
# disk no longer matches the db.  The fold writes the baseline the last
# publish left, before this publish appends its own ops, so the crash
# leaves the previous publish on disk: the restarted daemon discards the
# stale journal, the client replays its unpublished buffer, and the db
# after SIGTERM must match the uninterrupted sj1 leg's.
start_daemon fold 1 --fault-spec 'db.journal.fold:crash@2'
"$spamlab" client load --socket "$sdir/fold.sock" --seed 7 \
  > "$sdir/fold.client.txt" 2> "$sdir/fold.client.log" &
client_pid=$!
status=0
wait "$daemon_pid" || status=$?
[ "$status" -eq 70 ] \
  || { echo "FAIL: injected fold crash should exit 70, got $status"; exit 1; }
start_daemon fold 1
wait "$client_pid" \
  || { echo "FAIL: client did not survive the fold crash"; \
       cat "$sdir/fold.client.log"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: restarted fold daemon exited nonzero on SIGTERM"; exit 1; }
cmp -s "$sdir/sj1.client.txt" "$sdir/fold.client.txt" \
  || { echo "FAIL: fold crash-and-replay client stdout differs"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/fold.client.txt" | head -20; exit 1; }
cmp -s "$sdir/sj1.db" "$sdir/fold.db" \
  || { echo "FAIL: fold crash-and-replay db differs from uninterrupted"; exit 1; }
echo "serve: crashed at fold 2, restarted, replayed, byte-identical"

say "tenants: cross-jobs determinism (sharded store)"
# The tenants experiment fans user chunks over the domain pool while
# every op lands in the sharded store; stdout (classification outcomes
# only — store traffic counters go to stderr) must be byte-identical
# at every --jobs value, and the store it leaves behind must verify.
tdir=$(mktemp -d /tmp/spamlab-ci-tenants.XXXXXX)
trap 'rm -f "$trace" "$timings" "$j1" "$j4" "$faulted" "$ckpt" "$resumed"; rm -rf "$sdir" "$tdir"' EXIT
"$spamlab" tenants --users 300 --scale 0.05 --jobs 1 \
  --store-dir "$tdir/tj1" > "$tdir/tj1.txt" 2> /dev/null
"$spamlab" tenants --users 300 --scale 0.05 --jobs 4 \
  --store-dir "$tdir/tj4" > "$tdir/tj4.txt" 2> /dev/null
cmp -s "$tdir/tj1.txt" "$tdir/tj4.txt" \
  || { echo "FAIL: tenants output differs between --jobs 1 and --jobs 4"; \
       diff -u "$tdir/tj1.txt" "$tdir/tj4.txt" | head -20; exit 1; }
# Intern ids follow pool scheduling, so the stores' bytes also guard
# the rank-ordered row renderer against interning order leaking out.
diff -r "$tdir/tj1/users-300" "$tdir/tj4/users-300" > /dev/null \
  || { echo "FAIL: tenants store bytes differ between --jobs 1 and --jobs 4"; \
       diff -r "$tdir/tj1/users-300" "$tdir/tj4/users-300" | head -5; exit 1; }
"$spamlab" db verify "$tdir/tj4/users-300" > /dev/null \
  || { echo "FAIL: tenants store does not verify"; exit 1; }
echo "tenants: jobs 1 == jobs 4 (stdout, store bytes); store verifies"
# Tenant scoring routes through the store's shared prior cache +
# per-overlay dirty set; killing the cache must not move a byte.
SPAMLAB_NO_PROB_CACHE=1 "$spamlab" tenants --users 300 --scale 0.05 --jobs 1 \
  --store-dir "$tdir/tnc" > "$tdir/tnc.txt" 2> /dev/null
cmp -s "$tdir/tnc.txt" "$tdir/tj4.txt" \
  || { echo "FAIL: tenants output differs with the prob cache disabled"; \
       diff -u "$tdir/tnc.txt" "$tdir/tj4.txt" | head -20; exit 1; }
echo "tenants: uncached jobs 1 == cached jobs 4"

say "store soak: crash mid-append, restart, replay"
# A crash injected at the journal-append fault site kills the daemon
# (exit 70) partway through a tenant-routed TRAIN schedule: the op was
# never buffered, never acked, and the journal's uncommitted suffix is
# discarded on reopen.  The client reconnect-replays its unpublished
# buffer against the restarted daemon; after the SIGTERM (whose clean
# shutdown compacts every shard to canonical bytes) the store must be
# byte-for-byte identical to an uninterrupted leg's.
run_store_leg() { # tag [extra serve args...]
  tag=$1; shift
  start_daemon "$tag" 1 --store-dir "$sdir/$tag.store" "$@"
  "$spamlab" client load --socket "$sdir/$tag.sock" --seed 7 --users 3 \
    > "$sdir/$tag.client.txt" 2> "$sdir/$tag.client.log" &
  client_pid=$!
}
run_store_leg tbase
wait "$client_pid" \
  || { echo "FAIL: tbase client load failed"; cat "$sdir/tbase.client.log"; exit 1; }
"$spamlab" client publish --socket "$sdir/tbase.sock" > /dev/null
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: tbase daemon exited nonzero on SIGTERM"; exit 1; }
run_store_leg tcrash --fault-spec 'store.journal.append:crash@25'
status=0
wait "$daemon_pid" || status=$?
[ "$status" -eq 70 ] \
  || { echo "FAIL: injected append crash should exit 70, got $status"; exit 1; }
start_daemon tcrash 1 --store-dir "$sdir/tcrash.store"
wait "$client_pid" \
  || { echo "FAIL: client did not survive the store crash"; \
       cat "$sdir/tcrash.client.log"; exit 1; }
"$spamlab" client publish --socket "$sdir/tcrash.sock" > /dev/null
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: restarted store daemon exited nonzero on SIGTERM"; exit 1; }
cmp -s "$sdir/tbase.client.txt" "$sdir/tcrash.client.txt" \
  || { echo "FAIL: store crash-and-replay client stdout differs"; \
       diff -u "$sdir/tbase.client.txt" "$sdir/tcrash.client.txt" | head -20; exit 1; }
for f in "$sdir"/tbase.store/*; do
  cmp -s "$f" "$sdir/tcrash.store/$(basename "$f")" \
    || { echo "FAIL: store file $(basename "$f") differs after crash-and-replay"; exit 1; }
done
"$spamlab" db verify "$sdir/tcrash.store" > /dev/null \
  || { echo "FAIL: crash-and-replay store does not verify"; exit 1; }
echo "store: crashed at append 25, restarted, replayed, byte-identical"

say "PUBLISH rewrites only what changed"
# A PUBLISH commits what changed since the last one and nothing else.
# Three tenants and the shared filter train and publish; then one
# tenant trains one message and publishes again: no compaction runs,
# and of every segment, shard journal, db and db journal only that
# tenant's shard journal may change.  The clean shutdown then leaves
# the canonical bytes, equal to a leg that published after every
# request.
"$spamlab" corpus --size 40 --seed 5 --ham "$sdir/pw.ham.mbox" \
  --spam "$sdir/pw.spam.mbox" 2> /dev/null
"$spamlab" corpus --size 2 --seed 6 --ham "$sdir/pw.one.mbox" \
  --spam "$sdir/pw.one.spam.mbox" 2> /dev/null
pw_train() { # tag publish-after [client train args...]
  tag=$1; each=$2; shift 2
  "$spamlab" client train --socket "$sdir/$tag.sock" "$@" > /dev/null \
    || { echo "FAIL: $tag TRAIN $* failed"; exit 1; }
  [ "$each" = 0 ] || "$spamlab" client publish --socket "$sdir/$tag.sock" > /dev/null
}
pw_leg() { # tag publish-after
  start_daemon "$1" 1 --publish-every 0 --store-dir "$sdir/$1.store"
  for user in ann ben cat; do
    pw_train "$1" "$2" --user "$user" --class spam "$sdir/pw.spam.mbox"
  done
  pw_train "$1" "$2" --class ham "$sdir/pw.ham.mbox"
}
pw_sums() {
  (cd "$sdir" && cksum pw.db pw.db.journal pw.store/*.seg pw.store/*.journal)
}
pw_compactions() {
  "$spamlab" client stats --socket "$sdir/pw.sock" | grep '^store\.compactions '
}
pw_leg pe 1
pw_train pe 1 --user ben --class ham "$sdir/pw.one.mbox"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: pe daemon exited nonzero on SIGTERM"; exit 1; }
pw_leg pw 0
"$spamlab" client publish --socket "$sdir/pw.sock" > /dev/null
pw_sums > "$sdir/pw.sums.1"
compactions=$(pw_compactions)
pw_train pw 0 --user ben --class ham "$sdir/pw.one.mbox"
"$spamlab" client publish --socket "$sdir/pw.sock" > /dev/null
pw_sums > "$sdir/pw.sums.2"
[ "$(pw_compactions)" = "$compactions" ] \
  || { echo "FAIL: the second PUBLISH compacted ($compactions -> $(pw_compactions))"; exit 1; }
ben=$(python3 -c 'h = 0x811c9dc5
for c in b"ben": h = ((h ^ c) * 0x01000193) & 0xffffffff
print("pw.store/shard-%04d.journal" % (h % 16))')
changed=$(diff "$sdir/pw.sums.1" "$sdir/pw.sums.2" | sed -n 's/^> [0-9]* [0-9]* //p')
[ "$changed" = "$ben" ] \
  || { echo "FAIL: the second PUBLISH rewrote '$changed', expected only $ben"; exit 1; }
"$spamlab" db verify "$sdir/pw.db" | grep -q '^  journal: *ok (' \
  || { echo "FAIL: db verify does not report the shared journal"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: pw daemon exited nonzero on SIGTERM"; exit 1; }
for f in db db.journal; do
  cmp -s "$sdir/pe.$f" "$sdir/pw.$f" \
    || { echo "FAIL: $f differs from the publish-after-every-request leg"; exit 1; }
done
diff -r "$sdir/pe.store" "$sdir/pw.store" > /dev/null \
  || { echo "FAIL: store differs from the publish-after-every-request leg"; \
       diff -r "$sdir/pe.store" "$sdir/pw.store" | head -5; exit 1; }
echo "publish: the second PUBLISH appended to $ben only; SIGTERM bytes == publish-after-every-request"

say "fault sites listing"
"$spamlab" fault sites > "$sdir/sites.txt"
# Every site the gates below (and the suites above) arm must be in the
# operator-facing listing; a check call site missing from the catalogue
# is undocumented chaos surface.
for site in serve.deadline serve.publish serve.read serve.accept \
  store.journal.append intern.grow pool.task score.cache.fill \
  checkpoint.record db.journal.fold journal.write journal.fsync; do
  grep -q "^$site " "$sdir/sites.txt" \
    || { echo "FAIL: fault sites listing is missing $site"; exit 1; }
done
echo "fault sites OK: $(wc -l < "$sdir/sites.txt") sites listed"

say "serve overload: stalled client reaped, service unharmed"
# A slow-loris parasite sends half a CLASSIFY header and goes silent.
# With --timeout-read armed the daemon must reap it at the deadline —
# the parasite sees the close ('reaped') long before its 30 s hold —
# while a concurrent well-behaved load run completes with stdout
# byte-identical to the uncontended sj1 leg.  No timeout(1) wrapper:
# the bounded waits ARE the property under test.
start_daemon ovl 1 --timeout-read 1 --timeout-idle 5
"$spamlab" client stall --socket "$sdir/ovl.sock" --hold 30 \
  > "$sdir/ovl.stall.txt" &
stall_pid=$!
"$spamlab" client load --socket "$sdir/ovl.sock" --seed 7 \
  > "$sdir/ovl.client.txt" 2> "$sdir/ovl.client.log" \
  || { echo "FAIL: load failed beside a stalled parasite"; \
       cat "$sdir/ovl.client.log"; exit 1; }
wait "$stall_pid" || { echo "FAIL: stall probe errored"; exit 1; }
grep -qx 'reaped' "$sdir/ovl.stall.txt" \
  || { echo "FAIL: parasite not reaped: $(cat "$sdir/ovl.stall.txt")"; exit 1; }
cmp -s "$sdir/sj1.client.txt" "$sdir/ovl.client.txt" \
  || { echo "FAIL: client stdout differs beside a stalled parasite"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/ovl.client.txt" | head -20; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: ovl daemon exited nonzero on SIGTERM"; exit 1; }
echo "serve: parasite reaped at the deadline; load byte-identical"

say "serve overload: admission cap sheds, client absorbs"
# --max-conns 1: a silent parasite occupies (or races for) the single
# admission slot, so the load client is answered BUSY until idle
# reaping frees the slot.  Every shed must be absorbed by the client's
# backoff — stdout byte-identical to the uncontended leg — and the
# daemon must account at least one shed connection.
start_daemon cap 1 --max-conns 1 --timeout-read 2 --timeout-idle 1
"$spamlab" client stall --socket "$sdir/cap.sock" --send '' --hold 30 \
  > "$sdir/cap.stall.txt" &
stall_pid=$!
"$spamlab" client load --socket "$sdir/cap.sock" --seed 7 \
  > "$sdir/cap.client.txt" 2> "$sdir/cap.client.log" \
  || { echo "FAIL: load failed against --max-conns 1"; \
       cat "$sdir/cap.client.log"; exit 1; }
wait "$stall_pid" || { echo "FAIL: cap stall probe errored"; exit 1; }
cmp -s "$sdir/sj1.client.txt" "$sdir/cap.client.txt" \
  || { echo "FAIL: client stdout differs under admission shedding"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/cap.client.txt" | head -20; exit 1; }
sheds=0
for _ in 1 2 3 4 5; do
  if "$spamlab" client stats --socket "$sdir/cap.sock" \
       > "$sdir/cap.stats.txt" 2> /dev/null; then
    sheds=$(grep '^shed.connections ' "$sdir/cap.stats.txt" | cut -d' ' -f2)
    break
  fi
  sleep 0.2 # a lingering shed answer can bounce the stats probe once
done
[ "${sheds:-0}" -ge 1 ] \
  || { echo "FAIL: no shed connection accounted (shed.connections=$sheds)"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "FAIL: cap daemon exited nonzero on SIGTERM"; exit 1; }
echo "serve: $sheds conns shed with BUSY; load byte-identical"

say "chaos soak"
# The full deterministic chaos harness: baseline run, then the same
# schedule under seed-derived transient faults, overload limits and two
# crash-kill/restart cycles; asserts byte-identical client stdout, a
# verifying database and READY recovery.  See DESIGN.md §15.
"$spamlab" chaos --dir "$sdir/chaos" --seed 11 --clients 3 --users 2 \
  --train-size 48 --eval-size 24 --batch 6 --kills 2 > "$sdir/chaos.txt" \
  || { echo "FAIL: chaos soak failed"; cat "$sdir/chaos.txt"; exit 1; }
grep -qx 'chaos ok' "$sdir/chaos.txt" \
  || { echo "FAIL: chaos report lacks the 'chaos ok' verdict"; \
       cat "$sdir/chaos.txt"; exit 1; }
sed 's/^/  /' "$sdir/chaos.txt"

say "bench store smoke"
./_build/default/bench/main.exe store \
  --scale 0.02 --jobs 2 --timings "$timings" > /dev/null
grep -q '"id":"store-single-classify"' "$timings" \
  || { echo "FAIL: missing store-single-classify bench entry"; exit 1; }
for tier in t1k t10k t100k; do
  for phase in train classify-hot classify-cold evict; do
    grep -q "\"id\":\"store-$tier-$phase\"" "$timings" \
      || { echo "FAIL: missing store-$tier-$phase bench entry"; exit 1; }
  done
done
if grep -q '"seconds":0\.000000' "$timings" \
  || grep -q '"seconds":-' "$timings"; then
  echo "FAIL: non-positive store bench wall time"; exit 1
fi
echo "bench store OK"

say "bench classify smoke"
./_build/default/bench/main.exe classify \
  --scale 0.02 --jobs 2 --timings "$timings" > /dev/null
for id in classify-hot-cached classify-hot-uncached classify-hot-baseline \
  classify-warm-private classify-cold-refill \
  classify-tenant-fresh classify-tenant-trained; do
  grep -q "\"id\":\"$id\"" "$timings" \
    || { echo "FAIL: missing $id bench entry"; exit 1; }
done
if grep -q '"seconds":0\.000000' "$timings" \
  || grep -q '"seconds":-' "$timings"; then
  echo "FAIL: non-positive classify bench wall time"; exit 1
fi
echo "bench classify OK"

say "bench load smoke"
# Daemon start-up split into its stages on a generated db of 140k rows:
# the load, the first intern freeze, launch-to-first-PING.
./_build/default/bench/main.exe load \
  --scale 0.02 --jobs 2 --timings "$timings" > /dev/null
for id in load-parse load-freeze load-serve-ping; do
  grep -q "\"id\":\"$id\"" "$timings" \
    || { echo "FAIL: missing $id bench entry"; exit 1; }
done
if grep -q '"seconds":0\.000000' "$timings" \
  || grep -q '"seconds":-' "$timings"; then
  echo "FAIL: non-positive load bench wall time"; exit 1
fi
echo "bench load OK"

say "examples run"
# examples/ is the public-API tour: every executable examples/dune
# names must exit 0 and print something.
examples=$(tr '\n' ' ' < examples/dune | sed 's/.*(names \([^)]*\)).*/\1/')
test -n "$examples" || { echo "FAIL: no examples found in examples/dune"; exit 1; }
for ex in $examples; do
  out=$(./_build/default/examples/"$ex".exe) \
    || { echo "FAIL: examples/$ex.exe exited nonzero"; exit 1; }
  test -n "$out" || { echo "FAIL: examples/$ex.exe printed nothing"; exit 1; }
  echo "examples/$ex.exe OK: $(printf '%s\n' "$out" | wc -l) lines"
done

say "perfbench correctness checks"
# The benchmark checks its own results: daemon verdicts against an
# in-process reference, and (train-poisoned) the db and store bytes
# against a replay.  A short run of each workload must report
# "correct": true with no failed operation.  Each daemon must also
# peak under a memory ceiling.  classify-bulk: a CLASSIFY allocates
# nothing on the major heap, so the daemon stays near its start-up
# size.  On a 2-CPU host (OCaml 5.1.1) this run peaked at 40.7-40.9
# MiB (35.5 MiB since the tables below left the heap), and at
# 82.2-83.2 MiB while each request copied its body and built clue
# records; the ceiling sits between.  train-poisoned: the
# count and intern tables live off the OCaml heap, so the GC's
# headroom scales with the ~30 MiB left on it.  On the same host this
# run peaked at 106.3-121.8 MiB over 15 runs, and at 147.1-188.7 MiB
# over 9 runs while the tables were int arrays on the heap; the
# ceiling sits between.  The peak grows with the work done in the 2 s,
# so it reads higher on a less loaded host (about 120 against 188 MiB
# at 4.8k trained msgs/s, 107 against 155 at 2.8k).
peak_rss_ceiling_mb() {
  case "$1" in
    classify-bulk) echo 56 ;;
    train-poisoned) echo 135 ;;
  esac
}
for workload in classify-bulk train-poisoned; do
  python3 perfbench/run.py --workload "$workload" --seed 3 --seconds 2 \
    --trace 0 > "$sdir/perfbench.$workload.txt" \
    || { echo "FAIL: perfbench $workload exited nonzero"; \
         cat "$sdir/perfbench.$workload.txt"; exit 1; }
  tail -n 1 "$sdir/perfbench.$workload.txt" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
    || { echo "FAIL: perfbench $workload result is not correct with 0 failed:"; \
         tail -n 1 "$sdir/perfbench.$workload.txt"; exit 1; }
  echo "perfbench $workload: correct, 0 failed"
  ceiling=$(peak_rss_ceiling_mb "$workload")
  tail -n 1 "$sdir/perfbench.$workload.txt" | python3 -c '
import json, sys
rss = json.loads(sys.stdin.read())["metrics"]["peak_rss_mb"]["value"]
print("perfbench %s: peak_rss_mb %.1f (ceiling %s)" % (sys.argv[1], rss, sys.argv[2]))
sys.exit(0 if rss <= float(sys.argv[2]) else 1)' "$workload" "$ceiling" \
    || { echo "FAIL: $workload peak_rss_mb over $ceiling MiB"; exit 1; }
done

say "ci.sh: all checks passed"
