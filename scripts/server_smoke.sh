#!/usr/bin/env bash
# Server smoke test: boot a real topkd with the c17 model preloaded,
# run one query per op over the wire, and byte-diff each response
# against the committed goldens in testdata/golden/ — the wire format
# carries no timing or cache counters, so the bytes are fully
# deterministic. Finishes with a graceful SIGTERM drain, asserting the
# /readyz ladder: 200 while serving, 503 from the moment draining
# starts.
#
# Usage: scripts/server_smoke.sh [-update]   (-update rewrites goldens)
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=${1:-}
WORK=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/topkd" ./cmd/topkd
"$WORK/topkd" -addr 127.0.0.1:0 -preload c17=testdata/c17.ckt \
  -drain-wait 1s >"$WORK/topkd.log" 2>&1 &
PID=$!

ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's|.*listening on http://\([^/]*\)/.*|\1|p' "$WORK/topkd.log")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "server_smoke: topkd never became ready" >&2
  cat "$WORK/topkd.log" >&2
  exit 1
fi

curl -fsS "http://$ADDR/healthz" >/dev/null
curl -fsS "http://$ADDR/debug/metrics" >/dev/null

# Readiness ladder, serving side: /readyz answers 200 once boot-time
# preloads are done (the listener is up earlier, answering 503).
for _ in $(seq 1 100); do
  READY=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
  [ "$READY" = 200 ] && break
  sleep 0.1
done
[ "$READY" = 200 ] || { echo "server_smoke: /readyz $READY after boot, want 200" >&2; exit 1; }

check() { # name path body
  local name=$1 path=$2 body=$3
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$body" "http://$ADDR$path" >"$WORK/$name.json"
  if [ "$UPDATE" = "-update" ]; then
    cp "$WORK/$name.json" "testdata/golden/smoke_$name.json"
  else
    diff -u "testdata/golden/smoke_$name.json" "$WORK/$name.json" || {
      echo "server_smoke: $name response drifted from golden" >&2
      exit 1
    }
  fi
}
mkdir -p testdata/golden
check addition    /v1/models/c17/query '{"op":"addition","k":2}'
check elimination /v1/models/c17/query '{"op":"elimination","k":2}'
check whatif      /v1/models/c17/query '{"op":"whatif","fix":[0]}'
check sweep       /v1/models/c17/sweep '{"op":"addition","k":1,"workers":2}'

# Malformed input still answers structured 4xx on the live wire.
code=$(curl -s -o "$WORK/bad.json" -w '%{http_code}' -X POST \
  -H 'Content-Type: application/json' -d '{"op":"bogus"}' \
  "http://$ADDR/v1/models/c17/query")
[ "$code" = 400 ] || { echo "server_smoke: bad op returned $code, want 400" >&2; exit 1; }
grep -q '"unknown-op"' "$WORK/bad.json" || {
  echo "server_smoke: bad-op body lacks typed code:" >&2
  cat "$WORK/bad.json" >&2
  exit 1
}

# Readiness ladder, drain side: the -drain-wait window holds /readyz
# at 503 while requests still complete, so load balancers stop routing
# before anything is rejected.
kill -TERM "$PID"
DRAINED=
for _ in $(seq 1 20); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz" || true)
  [ "$code" = 503 ] && { DRAINED=1; break; }
  sleep 0.05
done
[ -n "$DRAINED" ] || { echo "server_smoke: /readyz never went 503 during drain" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -H 'Content-Type: application/json' -d '{"op":"addition","k":1}' \
  "http://$ADDR/v1/models/c17/query" || true)
[ "$code" = 200 ] || {
  echo "server_smoke: drain-window query got $code, want 200 during -drain-wait" >&2
  exit 1
}
wait "$PID"
grep -q 'stopped' "$WORK/topkd.log" || {
  echo "server_smoke: no graceful-stop marker in log" >&2
  cat "$WORK/topkd.log" >&2
  exit 1
}
echo "server_smoke: OK"
