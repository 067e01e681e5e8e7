#!/usr/bin/env bash
# Serve-daemon contract test: the robustness claims reachable from the
# command line.
#
# - daemon starts, ping/stats/route round-trip, exit codes mirror the
#   batch drivers (0 ok, 1 findings, 5 injected internal, 7 client i/o)
# - an injected serve.request fault (GSINO_FAULTS) comes back as a
#   framed GSL0022 error on that request only — the daemon answers the
#   next well-formed request
# - a request deadline degrades the request (batch-compatible exit 1
#   with GSL findings), daemon unaffected
# - a malformed raw frame gets a typed GSL0030 reject, daemon unaffected
# - SIGTERM drains gracefully: exit 0, no orphaned socket file, the
#   daemon-lifetime serve.* metrics flushed — also when it arrives right
#   after the daemon's first pong
# - a --metrics path that cannot be written fails the drain through the
#   funnel: exit 5, GSL0022, no uncaught exception
#
# Every check also asserts no uncaught exception leaked (no OCaml
# "Fatal error" banner / backtrace on stderr).
set -u

SERVE=$(realpath "$1")

work=$(mktemp -d)
cd "$work"

DAEMON_PID=""
FAULT_PID=""
SINK_PID=""
EARLY_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  [ -n "$FAULT_PID" ] && kill -9 "$FAULT_PID" 2>/dev/null
  [ -n "$SINK_PID" ] && kill -9 "$SINK_PID" 2>/dev/null
  [ -n "$EARLY_PID" ] && kill -9 "$EARLY_PID" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

failures=0

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

wait_socket() {
  local sock="$1" i
  for i in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.1
  done
  echo "FAIL daemon never bound $sock"
  failures=$((failures + 1))
  return 1
}

base=(-c ibm01 -s 0.02 --seed 7)

# ---- main daemon ----
"$SERVE" daemon --socket main.sock -w 2 -j 1 --panel-cache pc \
  --metrics daemon-metrics.json -q &
DAEMON_PID=$!
wait_socket main.sock

expect 0 "ping" -- "$SERVE" ping --socket main.sock
expect 0 "stats" -- "$SERVE" stats --socket main.sock
expect 0 "route ok" -- "$SERVE" route --socket main.sock "${base[@]}" -k gsino
grep -q "gsino_serve: ok:" stdout.log || {
  echo "FAIL route: no summary line"; failures=$((failures + 1)); }

# deadline expiry degrades this request only: batch-compatible exit 1
# (Error-severity GSL findings on the degraded result), daemon alive
expect 1 "deadline-degraded route" -- \
  "$SERVE" route --socket main.sock "${base[@]}" -k gsino --deadline 1
expect 0 "ping after degraded request" -- "$SERVE" ping --socket main.sock

# malformed raw frame: typed GSL0030 reject, daemon keeps serving
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' >raw.out
import socket, struct
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect("main.sock")
s.sendall(struct.pack(">I", 16) + b"this is not json")
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
print(buf[4:].decode("utf-8", "replace"))
EOF
  if grep -q '"gsl": *30' raw.out || grep -q '"gsl":30' raw.out; then
    echo "ok   malformed frame gets framed GSL0030 reject"
  else
    echo "FAIL malformed frame: no framed GSL0030 reject"
    sed 's/^/  raw: /' raw.out
    failures=$((failures + 1))
  fi
  expect 0 "ping after malformed frame" -- "$SERVE" ping --socket main.sock
  # a rate outside [0, 1] is refused by the frame decoder (GSL0030),
  # before the daemon parses or prepares the netlist
  python3 - <<'EOF' >rate.out
import json, socket, struct
req = json.dumps({"schema": "gsino-serve-v1", "kind": "route",
                  "netlist": "gsino-netlist v1", "options": {"rate": 1.5}})
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect("main.sock")
s.sendall(struct.pack(">I", len(req)) + req.encode())
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
print(buf[4:].decode("utf-8", "replace"))
EOF
  if grep -q '"gsl": *30' rate.out && grep -q 'options.rate' rate.out; then
    echo "ok   daemon rate outside [0, 1] gets framed GSL0030 reject"
  else
    echo "FAIL daemon rate 1.5: no framed GSL0030 reject"
    sed 's/^/  raw: /' rate.out
    failures=$((failures + 1))
  fi
fi
# the client refuses the same rate before it connects
expect 124 "route --rate outside [0, 1]" -- \
  "$SERVE" route --socket main.sock "${base[@]}" -r 1.5
expect_stderr "option '-r'"

# ---- fault-injected daemon: the serve.request fault-matrix row ----
env GSINO_FAULTS="serve.request=raise#7" \
  "$SERVE" daemon --socket fault.sock -w 1 -j 1 -q &
FAULT_PID=$!
wait_socket fault.sock

expect 5 "injected serve.request fault is framed" -- \
  "$SERVE" route --socket fault.sock "${base[@]}" -k gsino
expect_stderr "GSL0022"
expect 0 "daemon still serves after injected fault" -- \
  "$SERVE" ping --socket fault.sock
expect 5 "fault still isolated on a second request" -- \
  "$SERVE" route --socket fault.sock "${base[@]}" -k gsino

kill -TERM "$FAULT_PID"
wait "$FAULT_PID"
code=$?
FAULT_PID=""
if [ "$code" -ne 0 ]; then
  echo "FAIL fault daemon drain: exit $code"
  failures=$((failures + 1))
else
  echo "ok   fault daemon drains clean (exit 0)"
fi

# ---- client i/o failure: unreachable daemon is a typed exit 7 ----
expect 7 "unreachable daemon" -- "$SERVE" ping --socket no-such.sock
expect_stderr "GSL0032"

# ---- graceful drain: SIGTERM, exit 0, no orphaned socket ----
expect 0 "stats before drain" -- "$SERVE" stats --socket main.sock
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
code=$?
DAEMON_PID=""
if [ "$code" -ne 0 ]; then
  echo "FAIL SIGTERM drain: daemon exit $code"
  failures=$((failures + 1))
else
  echo "ok   SIGTERM drain exits 0"
fi
if [ -e main.sock ]; then
  echo "FAIL drain left an orphaned socket"
  failures=$((failures + 1))
else
  echo "ok   drained daemon unlinked its socket"
fi
if grep -q "serve.served" daemon-metrics.json; then
  echo "ok   daemon-lifetime serve.* metrics flushed"
else
  echo "FAIL daemon metrics missing serve.* series"
  failures=$((failures + 1))
fi
if [ -f pc/panels.v2 ]; then
  echo "ok   drain flushed the on-disk panel cache"
else
  echo "FAIL drain did not flush the panel cache"
  failures=$((failures + 1))
fi

# ---- unwritable --metrics: the drain's flush fails through the funnel ----
"$SERVE" daemon --socket sink.sock -w 1 -j 1 -q \
  --metrics no-such-dir/d.json 2>sink_stderr.log &
SINK_PID=$!
wait_socket sink.sock
expect 0 "ping the unwritable-metrics daemon" -- "$SERVE" ping --socket sink.sock
kill -TERM "$SINK_PID"
wait "$SINK_PID"
code=$?
SINK_PID=""
if [ "$code" -ne 5 ]; then
  echo "FAIL unwritable daemon --metrics: exit $code, expected 5"
  sed 's/^/  stderr: /' sink_stderr.log
  failures=$((failures + 1))
elif ! grep -q "GSL0022" sink_stderr.log \
  || grep -q "uncaught exception" sink_stderr.log; then
  echo "FAIL unwritable daemon --metrics: want GSL0022, no uncaught exception"
  sed 's/^/  stderr: /' sink_stderr.log
  failures=$((failures + 1))
else
  echo "ok   unwritable daemon --metrics fails at drain (exit 5, GSL0022)"
fi

# ---- early drain: SIGTERM at once after the first pong ----
# (the daemon may still be spawning worker domains; a drain that hangs
# is killed after 20 s and counted as a failure)
for i in 1 2 3 4 5; do
  "$SERVE" daemon --socket early.sock -w 2 -j 1 -q &
  EARLY_PID=$!
  for _ in $(seq 1 200); do
    "$SERVE" ping --socket early.sock >/dev/null 2>&1 && break
    sleep 0.05
  done
  kill -TERM "$EARLY_PID"
  for _ in $(seq 1 400); do
    kill -0 "$EARLY_PID" 2>/dev/null || break
    sleep 0.05
  done
  kill -9 "$EARLY_PID" 2>/dev/null
  wait "$EARLY_PID"
  code=$?
  EARLY_PID=""
  if [ "$code" -ne 0 ]; then
    echo "FAIL early SIGTERM $i: daemon exit $code"
    failures=$((failures + 1))
  elif [ -e early.sock ]; then
    echo "FAIL early SIGTERM $i: socket left behind"
    failures=$((failures + 1))
  else
    echo "ok   early SIGTERM $i drains (exit 0, socket unlinked)"
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "$failures serve check(s) failed"
  exit 1
fi
echo "all serve checks passed"
