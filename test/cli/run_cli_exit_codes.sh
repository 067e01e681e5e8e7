#!/usr/bin/env bash
# CLI exit-code contract test for the batch driver, gsino_run, and its
# subcommands (run, lint, audit, diff, explain, gen, table); the daemon's
# contract lives in run_serve.sh.
#
# Exercises the failure classes reachable from a batch command line and
# asserts the documented exit status (see README "Failure modes &
# degradation"): 0 ok/degraded, 1 findings or regression breach,
# 2 usage or input error, 5 internal (injected worker crash GSL0022,
# non-finite value GSL0023), 7 stream i/o failure (GSL0032).
#
# Every invocation also checks that no uncaught exception leaked: a
# typed failure prints exactly one GSL-coded line, never an OCaml
# "Fatal error" banner or a backtrace.  A refused command line (stdout
# clash, bad GSINO_FAULTS, unknown circuit, unreadable journal, snapshot
# or policy) is that one line with GSL0029.
set -u

RUN=$(realpath "$1")
POLICY=$(realpath "$2")
BASELINE=$(realpath "$3")
FIXTURE=$(realpath "$4")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

failures=0

# expect CODE DESC -- cmd args...
expect() {
  local want="$1" desc="$2"
  shift 3
  "$@" >stdout.log 2>stderr.log
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $desc: exit $got, expected $want"
    sed 's/^/  stderr: /' stderr.log
    failures=$((failures + 1))
  elif grep -qE "Fatal error|Raised at|Raised by" stderr.log; then
    echo "FAIL $desc: uncaught exception reached the CLI"
    sed 's/^/  stderr: /' stderr.log
    failures=$((failures + 1))
  else
    echo "ok   $desc (exit $got)"
  fi
}

# stderr of the last expect must contain every given pattern
expect_stderr() {
  local pat
  for pat in "$@"; do
    if ! grep -q -- "$pat" stderr.log; then
      echo "FAIL stderr missing '$pat'"
      sed 's/^/  stderr: /' stderr.log
      failures=$((failures + 1))
    fi
  done
}

# stderr of the last expect must hold exactly one GSL0029 line: a
# command line refused as a usage error, exit 2
expect_usage_line() {
  local n
  n=$(grep -c "^GSL0029 E " stderr.log)
  if [ "$n" -ne 1 ]; then
    echo "FAIL stderr holds $n GSL0029 lines, expected 1"
    sed 's/^/  stderr: /' stderr.log
    failures=$((failures + 1))
  fi
}

# stdout of the last expect must contain every given pattern
expect_stdout() {
  local pat
  for pat in "$@"; do
    if ! grep -q "$pat" stdout.log; then
      echo "FAIL stdout missing '$pat'"
      sed 's/^/  stdout: /' stdout.log
      failures=$((failures + 1))
    fi
  done
}

# stderr of the last expect must not contain the given pattern
expect_stderr_lacks() {
  if grep -q -- "$1" stderr.log; then
    echo "FAIL stderr contains '$1'"
    sed 's/^/  stderr: /' stderr.log
    failures=$((failures + 1))
  fi
}

# a metric series must exist in a snapshot file
expect_metric() {
  local file="$1" name="$2"
  if ! grep -q "\"$name\"" "$file"; then
    echo "FAIL $file: missing metric $name"
    failures=$((failures + 1))
  fi
}

# the value of a label-less counter in a snapshot file (empty if absent)
metric_value() {
  grep -o "\"name\":\"$2\",\"labels\":{},\"kind\":\"counter\",\"value\":[0-9]*" "$1" \
    | grep -o '[0-9]*$'
}

# a label-less counter must be positive in a snapshot file
expect_metric_positive() {
  local v
  v=$(metric_value "$1" "$2")
  if [ -z "$v" ] || [ "$v" -le 0 ]; then
    echo "FAIL $1: $2 = ${v:-missing}, expected > 0"
    failures=$((failures + 1))
  fi
}

# a label-less counter must be present and equal in two snapshot files
expect_same_metric() {
  local a b
  a=$(metric_value "$1" "$3")
  b=$(metric_value "$2" "$3")
  if [ -z "$a" ] || [ "$a" != "$b" ]; then
    echo "FAIL $3: ${a:-missing} in $1, ${b:-missing} in $2"
    failures=$((failures + 1))
  else
    echo "ok   $3 equal in $1 and $2 ($a)"
  fi
}

base=(-c ibm01 -s 0.02 --seed 7 -q)

# ---- exit 0: clean runs ----
expect 0 "gsino_run clean" -- "$RUN" run "${base[@]}" --jobs 1 \
  --metrics clean.json
expect 0 "gsino_run lint clean" -- "$RUN" lint "${base[@]}"
expect 0 "gsino_run audit clean" -- "$RUN" audit "${base[@]}" --metrics audit.json
expect_metric audit.json "analyze.runs"
expect_metric audit.json "analyze.cut_overflows"
expect_metric audit.json "analyze.findings"
# the flow's pre-route audit pass is an exit-0 no-op on a healthy instance
expect 0 "gsino_run --audit clean" -- "$RUN" run "${base[@]}" --jobs 1 --audit \
  --metrics audited.json
# ... and its Formula-3 fit solves record privately, so the flows'
# sino.* series do not count them
expect_same_metric clean.json audited.json "sino.instances"
# the flows read the models computed at build time: no LU solve runs
expect 0 "run reaches no simulator (matrix.lu fault inert)" -- \
  env GSINO_FAULTS="matrix.lu=raise" "$RUN" run "${base[@]}" --jobs 1

# ---- exit 2: usage / input errors ----
printf 'gsino-netlist v1\nname bad\ngrid 4 4 10\nnet 0 0 0 9 9\n' >bad.nl
expect 2 "gsino_run parse error (GSL0020)" -- "$RUN" run -q --netlist bad.nl
expect_stderr "GSL0020" "line 4" "9 9"
expect 2 "gsino_run lint parse error (GSL0020)" -- "$RUN" lint -q --netlist bad.nl
expect_stderr "GSL0020"
expect 2 "gsino_run audit parse error (GSL0020)" -- "$RUN" audit -q --netlist bad.nl
expect_stderr "GSL0020"
# an unreadable netlist is the same typed input error, not a bare message
expect 2 "gsino_run missing netlist (GSL0020)" -- \
  "$RUN" run -q --netlist missing.nl
expect_stderr "GSL0020" "missing.nl"
expect 2 "gsino_run lint missing netlist (GSL0020)" -- \
  "$RUN" lint -q --netlist missing.nl
expect_stderr "GSL0020"
expect 2 "gsino_run audit missing netlist (GSL0020)" -- \
  "$RUN" audit -q --netlist missing.nl
expect_stderr "GSL0020"
expect 2 "malformed GSINO_FAULTS spec" -- \
  env GSINO_FAULTS="bogus" "$RUN" run "${base[@]}"
expect_stderr "GSINO_FAULTS"
expect_usage_line
# a mistyped site would inject nothing: refused, naming the known sites
expect 2 "GSINO_FAULTS unknown site" -- \
  env GSINO_FAULTS="matrix.luu=nan" "$RUN" run "${base[@]}"
expect_stderr "GSINO_FAULTS" "unknown site" "matrix.lu, phase2.solve"
expect_usage_line
expect 2 "gsino_run unknown circuit (GSL0029)" -- "$RUN" run -c ibm99 -s 0.02 -q
expect_stderr "unknown circuit ibm99"
expect_usage_line
expect 2 "gsino_run diff missing snapshot" -- "$RUN" diff missing.json clean.json
expect_usage_line
# a missing positional is checked by gsino_run diff itself (exit 2, not
# cmdliner's 124)
expect 2 "gsino_run diff without CURRENT" -- "$RUN" diff clean.json
expect_stderr "BASELINE and CURRENT snapshots are required"
expect_stderr_lacks "uncaught exception"
expect_usage_line
# two artifact sinks may not both claim stdout: one coded usage error,
# exit 2, before any work starts
expect 2 "conflicting stdout sinks (GSL0029)" -- \
  "$RUN" run "${base[@]}" --metrics - --trace -
expect_stderr "GSL0029" "--trace" "--metrics"
expect_usage_line
expect 2 "conflicting stdout sinks journal+report (GSL0029)" -- \
  "$RUN" run "${base[@]}" --journal - --report -
expect_stderr "GSL0029" "--journal" "--report"
expect_usage_line

# ---- exit 124: option values cmdliner refuses before any work ----
# --scale and --rate are checked by their converters, like a malformed
# --jobs: cmdliner's usage error names the option and its range before
# any routing (the scale used to fail inside the generator, the rate
# after preparing the netlist, and a NaN rate ran every flow with no
# sensitive pair)
expect 124 "gsino_run --scale outside (0, 1]" -- "$RUN" run -c ibm01 --scale=2 -q
expect_stderr "option '--scale'" "not a number in (0, 1\]"
expect 124 "gsino_run --rate outside [0, 1]" -- "$RUN" run -c ibm01 -s 0.02 -r 1.5 -q
expect_stderr "option '-r'" "not a number in \[0, 1\]"
expect 124 "gsino_run --rate nan" -- "$RUN" run -c ibm01 -s 0.02 -r nan -q
expect_stderr "option '-r'" "not a number in \[0, 1\]"

# ---- journal + explain round trip ----
expect 0 "gsino_run --journal" -- "$RUN" run "${base[@]}" --jobs 2 \
  --journal j.jsonl
if [ ! -s j.jsonl ]; then
  echo "FAIL --journal wrote no events"
  failures=$((failures + 1))
fi
expect 0 "gsino_run explain default views" -- "$RUN" explain j.jsonl --top 3
expect_stdout "net.route" "panel.solve" "Top 3 nets by route churn" \
  "Panel signatures"
expect 0 "gsino_run explain --by-signature" -- "$RUN" explain j.jsonl --by-signature
expect_stdout "unique"
expect 0 "gsino_run explain --net provenance" -- "$RUN" explain j.jsonl --net 0
expect_stdout "Provenance of net 0" "net.budget" "net.route"
expect 2 "gsino_run explain missing journal" -- "$RUN" explain missing.jsonl
expect_usage_line
printf '{"schema":"gsino-journal-v0"}\n' >old.jsonl
expect 2 "gsino_run explain unsupported schema" -- "$RUN" explain old.jsonl
expect_stderr "unsupported schema"
expect_usage_line
# a key given twice, or nesting past the parser's bound, makes a journal
# or a snapshot unreadable (exit 2), never an internal error
printf '{"schema":"gsino-journal-v1"}\n{"ev":"net.route","dim":{"net":"1","net":"2"}}\n' \
  >dupkey.jsonl
expect 2 "gsino_run explain duplicated dim key" -- "$RUN" explain dupkey.jsonl
expect_stderr "line 2: dim: duplicate key net"
expect_usage_line
# numbers outside RFC 8259's grammar (+1, 01, .5, 1.) are not JSON
printf '{"schema":"gsino-journal-v1"}\n{"ev":"net.route","dim":{"net":"1"},"data":{"a":+1,"b":01,"c":.5,"d":1.}}\n' \
  >lenient.jsonl
expect 2 "gsino_run explain lenient numbers" -- "$RUN" explain lenient.jsonl
expect_stderr "bad number +1"
expect_usage_line
{ printf '{"schema":"gsino-journal-v1"}\n'; printf '[%.0s' $(seq 600); echo; } >deep.jsonl
expect 2 "gsino_run explain nesting past the bound" -- "$RUN" explain deep.jsonl
expect_stderr "nesting deeper than 512"
expect_usage_line
printf '{"schema":"gsino-metrics-v1","metrics":[{"name":"x","labels":{"a":"1","a":"2"},"kind":"counter","value":1}]}\n' \
  >dupkey.json
expect 2 "gsino_run diff duplicated label key" -- "$RUN" diff dupkey.json clean.json
expect_stderr "x.labels: duplicate key a"
expect_usage_line

# ---- exit 5: injected internal failures (GSL0022) ----
printf 'gsino-netlist v1\nname tiny\ngrid 4 4 10\nnet 0 0 0 1 1\n' >tiny.nl
expect 5 "io.load fault" -- \
  env GSINO_FAULTS="io.load=raise#123" "$RUN" run -q --netlist tiny.nl
expect_stderr "GSL0022" "io.load"
expect 5 "exec.worker fault (--jobs 2)" -- \
  env GSINO_FAULTS="exec.worker=raise#123" "$RUN" run "${base[@]}" --jobs 2
expect_stderr "GSL0022" "exec.worker"
expect 5 "refine.resolve fault" -- \
  env GSINO_FAULTS="refine.resolve=raise#123" "$RUN" run "${base[@]}" --jobs 1 \
  --metrics crash.json
expect_stderr "GSL0022" "refine.resolve"
# a crashed run must still flush its --metrics artifact for triage
expect_metric crash.json "guard.injected"
# ... and save its --panel-cache store: the fault fires in iSINO's
# refinement, after ID+NO and iSINO's Phase II solves were stored
expect 5 "gsino_run lint refine.resolve fault keeps the store" -- \
  env GSINO_FAULTS="refine.resolve=raise#123" "$RUN" lint "${base[@]}" \
  --kind all --jobs 1 --panel-cache crashstore
expect_stderr "GSL0022" "refine.resolve"
if [ -s crashstore/panels.v2 ] && [ "$(wc -l <crashstore/panels.v2)" -gt 1 ]; then
  echo "ok   crashed lint saved its panel store"
else
  echo "FAIL crashed lint left no panel store entries"
  failures=$((failures + 1))
fi
# an unwritable artifact sink leaves through the funnel like any other
# failure: GSL0022, exit 5
expect 5 "gsino_run unwritable --metrics (GSL0022)" -- \
  "$RUN" run "${base[@]}" --jobs 1 --metrics no-such-dir/m.json
expect_stderr "GSL0022" "no-such-dir/m.json"
expect_stderr_lacks "uncaught exception"
expect 5 "gsino_run audit unwritable --trace (GSL0022)" -- \
  "$RUN" audit "${base[@]}" --trace no-such-dir/t.json
expect_stderr "GSL0022" "no-such-dir/t.json"
expect_stderr_lacks "uncaught exception"
expect 5 "gsino_run gen unwritable output (GSL0022)" -- \
  "$RUN" gen -c ibm01 -s 0.02 -o no-such-dir/x.nl
expect_stderr "GSL0022" "no-such-dir/x.nl"
expect_stderr_lacks "uncaught exception"
# gsino_run table simulates the LSK table: a corrupted LU solve is
# caught at the source as the typed non-finite error (GSL0023), not as
# garbage noise values downstream
expect 5 "matrix.lu NaN corruption" -- \
  env GSINO_FAULTS="matrix.lu=nan" "$RUN" table
expect_stderr "GSL0023" "matrix.lu"

# ---- exit 0 degraded: retry ladder falls back, lint tags GSL0018 ----
expect 0 "phase2.solve fault degrades" -- \
  env GSINO_FAULTS="phase2.solve=raise#123" "$RUN" run "${base[@]}" --jobs 1 \
  --metrics degraded.json
expect_metric_positive degraded.json "guard.retries"
expect_metric_positive degraded.json "guard.fallbacks"
env GSINO_FAULTS="phase2.solve=raise#123" \
  "$RUN" lint "${base[@]}" --max-print 0 >lint.out 2>/dev/null
if ! grep -q "GSL0018" lint.out; then
  echo "FAIL degraded lint: no GSL0018 finding"
  failures=$((failures + 1))
else
  echo "ok   degraded lint emits GSL0018"
fi

# ---- exit 0 degraded: deadline expiry keeps best-so-far ----
expect 0 "deadline run degrades (within 2x wall budget)" -- \
  timeout 10 "$RUN" run "${base[@]}" --jobs 1 --deadline 1 \
  --metrics deadline.json
expect_metric deadline.json "guard.deadline_hits"

# ---- exit 7: stdout closed mid-run ----
# `head -1` closes the pipe after one line, so a later write fails: the
# run must leave through the funnel (GSL0032, exit 7) without the
# at-exit flush of the buffered stdout re-raising past it
expect 7 "gsino_run into a closed pipe (GSL0032)" -- bash -c \
  '"$0" "$@" | head -1 >/dev/null; exit "${PIPESTATUS[0]}"' \
  "$RUN" run "${base[@]}" --jobs 1
expect_stderr "GSL0032"
expect_stderr_lacks "uncaught exception"
# table writes all its lines at once, after its simulations: a reader
# that has already gone makes the first write fail (`| head -1` would
# race that single burst)
expect 7 "gsino_run table into a closed pipe (GSL0032)" -- bash -c \
  '"$0" "$@" | true; exit "${PIPESTATUS[0]}"' "$RUN" table
expect_stderr "GSL0032"
expect_stderr_lacks "uncaught exception"

# ---- exit 1: findings / regression breach ----
# provably infeasible fixture: over-capacity cuts (GSL0024) and Kth
# bounds unmeetable even fully shielded (GSL0026), proven before routing
expect 1 "gsino_run audit infeasible fixture" -- \
  "$RUN" audit --netlist "$FIXTURE" --rate 1.0 --hcap 6 --vcap 6 -q
expect_stdout "GSL0024" "GSL0026"
expect 0 "gsino_run diff identical snapshots" -- "$RUN" diff clean.json clean.json
expect 1 "gsino_run diff policy breach" -- \
  "$RUN" diff --policy "$POLICY" "$BASELINE" deadline.json

if [ "$failures" -gt 0 ]; then
  echo "$failures CLI exit-code check(s) failed"
  exit 1
fi
echo "all CLI exit-code checks passed"
