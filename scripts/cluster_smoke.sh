#!/usr/bin/env sh
# Smoke test for the cluster stack: boot three esdserve nodes and an
# esdrouter fronting them with R=2 replication, drive load through the
# router, SIGTERM one node mid-fleet, drive load again (zero
# client-visible errors — the retry/failover budget must absorb the
# loss), and validate the /statusz ring section. CI runs this
# (make cluster-smoke); it needs nothing beyond the go toolchain.
set -eu

BASE_PORT="${BASE_PORT:-18180}"
ROUTER_TCP="${ROUTER_TCP:-18190}"
ROUTER_HTTP="${ROUTER_HTTP:-18191}"
BIN="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/esdserve" ./cmd/esdserve
go build -o "$BIN/esdrouter" ./cmd/esdrouter
go build -o "$BIN/esdload" ./cmd/esdload
go build -o "$BIN/esdtop" ./cmd/esdtop

# Three backend nodes: TCP data path + HTTP for /readyz probing.
NODES=""
i=0
while [ "$i" -lt 3 ]; do
  HTTP=$((BASE_PORT + i * 2))
  TCP=$((BASE_PORT + i * 2 + 1))
  "$BIN/esdserve" -addr "127.0.0.1:$HTTP" -tcp-addr "127.0.0.1:$TCP" \
    -scheme esd -shards 2 >"$BIN/node$i.log" 2>&1 &
  eval "NODE${i}_PID=$!"
  PIDS="$PIDS $!"
  NODES="${NODES}${NODES:+,}127.0.0.1:$TCP@127.0.0.1:$HTTP=node$i"
  i=$((i + 1))
done

"$BIN/esdrouter" -tcp-addr "127.0.0.1:$ROUTER_TCP" -addr "127.0.0.1:$ROUTER_HTTP" \
  -nodes "$NODES" -replication 2 -probe 250ms >"$BIN/router.log" 2>&1 &
ROUTER_PID=$!
PIDS="$PIDS $ROUTER_PID"

# Wait for the router data path (which implies at least one ready node).
i=0
until "$BIN/esdload" -addr "127.0.0.1:$ROUTER_TCP" -proto tcp -n 1 -workers 1 \
  -stats=false -flush=false >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "cluster-smoke: router never came up" >&2
    cat "$BIN/router.log" >&2
    for n in 0 1 2; do cat "$BIN/node$n.log" >&2; done
    exit 1
  fi
  sleep 0.1
done

echo "cluster-smoke: routed load, full fleet"
"$BIN/esdload" -addr "127.0.0.1:$ROUTER_TCP" -proto tcp -n 2000 -workers 4 \
  -writes 0.6 -dup 0.4 -space 4096

# The fleet-aggregated status view and the fleet dashboard.
if command -v curl >/dev/null 2>&1 && command -v python3 >/dev/null 2>&1; then
  echo "cluster-smoke: /statusz/cluster fleet aggregation"
  code=$(curl -s -o "$BIN/cluster.out" -w '%{http_code}' "http://127.0.0.1:$ROUTER_HTTP/statusz/cluster")
  if [ "$code" != 200 ]; then
    echo "cluster-smoke: GET /statusz/cluster returned $code" >&2
    cat "$BIN/cluster.out" >&2
    exit 1
  fi
  python3 - "$BIN/cluster.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cs = json.load(f)
assert len(cs["members"]) == 3, cs
assert cs["reachable_members"] == 3, cs
assert cs["shards"] == 6, "fleet shard sum wrong: %r" % cs["shards"]
for m in cs["members"]:
    assert m["reachable"] and m["status"]["ready"], m
dev = cs["device"]
assert dev and dev["media_writes"] > 0, dev
print("cluster-smoke: fleet view OK — %d/%d members, %d shards, %d media writes"
      % (cs["reachable_members"], len(cs["members"]), cs["shards"], dev["media_writes"]))
EOF
else
  echo "cluster-smoke: curl/python3 not found, skipping /statusz/cluster check"
fi

echo "cluster-smoke: esdtop -router -once"
"$BIN/esdtop" -router -once -addr "http://127.0.0.1:$ROUTER_HTTP" >"$BIN/esdtop.out"
if ! grep -q "members reachable" "$BIN/esdtop.out"; then
  echo "cluster-smoke: esdtop -router rendered no fleet section:" >&2
  cat "$BIN/esdtop.out" >&2
  exit 1
fi

echo "cluster-smoke: killing node1"
kill -TERM "$NODE1_PID"
wait "$NODE1_PID" || true

# With R=2, losing one node must be invisible: esdload exits nonzero on
# any client-visible error, so this run IS the assertion.
echo "cluster-smoke: routed load, one node down"
"$BIN/esdload" -addr "127.0.0.1:$ROUTER_TCP" -proto tcp -n 2000 -workers 4 \
  -writes 0.6 -dup 0.4 -space 4096

# The router's /statusz ring section must reflect the loss.
if command -v curl >/dev/null 2>&1; then
  echo "cluster-smoke: /statusz ring section"
  code=$(curl -s -o "$BIN/statusz.out" -w '%{http_code}' "http://127.0.0.1:$ROUTER_HTTP/statusz")
  if [ "$code" != 200 ]; then
    echo "cluster-smoke: GET /statusz returned $code" >&2
    cat "$BIN/statusz.out" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$BIN/statusz.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    st = json.load(f)
assert st["epoch"] == 1, st
assert st["replication"] == 2, st
assert len(st["nodes"]) == 3, st
assert st["healthy_nodes"] == 2, "killed node still counted healthy: %r" % st
by_name = {n["name"]: n for n in st["nodes"]}
assert not by_name["node1"]["healthy"], by_name
assert by_name["node0"]["healthy"] and by_name["node2"]["healthy"], by_name
assert by_name["node0"]["writes"] > 0 and by_name["node2"]["writes"] > 0, by_name
print("cluster-smoke: ring section OK — epoch %d, %d/%d healthy, failovers=%d"
      % (st["epoch"], st["healthy_nodes"], len(st["nodes"]), st["failovers"]))
EOF
  else
    echo "cluster-smoke: python3 not found, skipping ring validation"
  fi
else
  echo "cluster-smoke: curl not found, skipping /statusz check"
fi

# Graceful drain of the router and remaining nodes.
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "cluster-smoke: esdrouter exited $STATUS" >&2
  cat "$BIN/router.log" >&2
  exit 1
fi
if ! grep -q "drained clean" "$BIN/router.log"; then
  echo "cluster-smoke: no clean-drain marker in router log:" >&2
  cat "$BIN/router.log" >&2
  exit 1
fi
echo "cluster-smoke: OK"
