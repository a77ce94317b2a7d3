#!/bin/sh
# CI entry point: build, test, (optionally) check formatting, then run
# one tiny traced experiment and validate the emitted JSONL trace.
# Everything here must pass before a change lands.
set -eu

say() { printf '\n== %s ==\n' "$1"; }

say "dune build"
dune build

say "dune runtest"
dune runtest

say "format check"
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ocamlformat not installed; skipping (formatting is advisory)"
fi

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
# the focused-attack path, roni the defense path.
j1=$(mktemp /tmp/spamlab-ci-jobs1.XXXXXX.txt)
j4=$(mktemp /tmp/spamlab-ci-jobs4.XXXXXX.txt)
trap 'rm -f "$trace" "$timings" "$j1" "$j4"' EXIT
for exp in fig1 fig2 roni; do
  ./_build/default/bin/spamlab.exe experiment "$exp" \
    --scale 0.05 --jobs 1 > "$j1"
  ./_build/default/bin/spamlab.exe experiment "$exp" \
    --scale 0.05 --jobs 4 > "$j4"
  diff -u "$j1" "$j4" \
    || { echo "FAIL: $exp output differs between --jobs 1 and --jobs 4"; exit 1; }
  echo "$exp: jobs 1 == jobs 4"
done

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
# snapshot cache must never influence a verdict, a clue, or the
# published database.
export SPAMLAB_NO_PROB_CACHE=1
run_leg snc 4
unset SPAMLAB_NO_PROB_CACHE
cmp -s "$sdir/sj1.client.txt" "$sdir/snc.client.txt" \
  || { echo "FAIL: client stdout differs with the prob cache disabled"; \
       diff -u "$sdir/sj1.client.txt" "$sdir/snc.client.txt" | head -20; exit 1; }
cmp -s "$sdir/sj1.db" "$sdir/snc.db" \
  || { echo "FAIL: published db differs with the prob cache disabled"; exit 1; }
echo "serve: cached == uncached (client stdout, db)"
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
# buffer against the restarted daemon; after the explicit publish
# (which compacts every shard to canonical bytes) the store must be
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

say "fault sites listing"
"$spamlab" fault sites > "$sdir/sites.txt"
# Every site the gates below (and the suites above) arm must be in the
# operator-facing listing; a check call site missing from the catalogue
# is undocumented chaos surface.
for site in serve.deadline serve.publish serve.read serve.accept \
  store.journal.append intern.grow pool.task score.cache.fill \
  checkpoint.record; do
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

say "perfbench correctness checks"
# The benchmark checks its own results: daemon verdicts against an
# in-process reference, and (train-poisoned) the db and store bytes
# against a replay.  A short run of each workload must report
# "correct": true with no failed operation.
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
done

say "ci.sh: all checks passed"
