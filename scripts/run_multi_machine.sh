#!/usr/bin/env bash
# Deploy an RCC cluster across machines (or, with --local, across
# processes on this machine) using the rcc-node binary's replica/client
# subcommands and generated deployment files.
#
# Replica i listens on the i-th entry of --hosts; the client streams run
# from the invoking machine against all replicas. Each node serves its
# clients through the readiness-driven edge event loop: --io-threads
# sets the sweep-thread pool width, --max-clients the admission cap
# (connections past it are rejected with the zero-digest ClientReject so
# clients fail over to another replica).
#
# Remote mode expects the rcc-node binary already present on every host
# at --binary (build with `cargo build --release -p rcc-network` and
# distribute target/release/rcc-node); configs are copied with scp.
#
# Examples:
#   # four machines, one replica each, 8 client streams from here:
#   scripts/run_multi_machine.sh \
#     --hosts 10.0.0.1:7100,10.0.0.2:7100,10.0.0.3:7100,10.0.0.4:7100 \
#     --clients 8 --duration-ms 30000 --io-threads 4 --max-clients 8192
#
#   # the same topology as local processes (smoke-testing the script):
#   scripts/run_multi_machine.sh --local --duration-ms 5000

set -euo pipefail

HOSTS="127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103"
CLIENTS=4
DURATION_MS=10000
INSTANCES=2
BATCH_SIZE=100
CRYPTO="mac"
SEED=42
WINDOW=4
IO_THREADS=2
MAX_CLIENTS=4096
BINARY="./target/release/rcc-node"
SSH_USER=""
LOCAL=0

usage() {
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
    cat <<EOF

flags:
  --hosts H1:P1,H2:P2,...   replica addresses, one per replica (default: 4x localhost)
  --clients N               client streams driven from this machine (default $CLIENTS)
  --duration-ms D           run time per node and client (default $DURATION_MS)
  --instances M             consensus instances (default $INSTANCES)
  --batch-size B            transactions per batch (default $BATCH_SIZE)
  --crypto none|mac|pk      frame authentication mode (default $CRYPTO)
  --seed S                  deployment seed (default $SEED)
  --window W                per-client closed-loop window (default $WINDOW)
  --io-threads T            client-edge sweep threads per node (default $IO_THREADS)
  --max-clients L           client-edge admission cap per node (default $MAX_CLIENTS)
  --binary PATH             rcc-node path, local and remote (default $BINARY)
  --ssh-user U              user for ssh/scp in remote mode
  --local                   run every replica as a local process instead of over ssh
  -h, --help                this text
EOF
    exit "${1:-0}"
}

while [ $# -gt 0 ]; do
    case "$1" in
        --hosts) HOSTS="$2"; shift 2 ;;
        --clients) CLIENTS="$2"; shift 2 ;;
        --duration-ms) DURATION_MS="$2"; shift 2 ;;
        --instances) INSTANCES="$2"; shift 2 ;;
        --batch-size) BATCH_SIZE="$2"; shift 2 ;;
        --crypto) CRYPTO="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --window) WINDOW="$2"; shift 2 ;;
        --io-threads) IO_THREADS="$2"; shift 2 ;;
        --max-clients) MAX_CLIENTS="$2"; shift 2 ;;
        --binary) BINARY="$2"; shift 2 ;;
        --ssh-user) SSH_USER="$2"; shift 2 ;;
        --local) LOCAL=1; shift ;;
        -h|--help) usage 0 ;;
        *) echo "unknown flag: $1" >&2; usage 1 ;;
    esac
done

IFS=',' read -r -a ADDRS <<<"$HOSTS"
N=${#ADDRS[@]}
if [ "$N" -lt 4 ]; then
    echo "need at least 4 replica addresses (3f+1, f>=1); got $N" >&2
    exit 1
fi

PEERS=""
for addr in "${ADDRS[@]}"; do
    PEERS="${PEERS:+$PEERS, }\"$addr\""
done

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/rcc-deploy.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT

# One deployment file per replica: shared system knobs + this node's
# identity, listen address, and edge configuration.
write_config() {
    local index="$1" out="$2"
    cat >"$out" <<EOF
# generated by scripts/run_multi_machine.sh
n = $N
instances = $INSTANCES
batch_size = $BATCH_SIZE
crypto = "$CRYPTO"
seed = $SEED

replica = $index
listen = "${ADDRS[$index]}"
peers = [$PEERS]
io_threads = $IO_THREADS
max_clients = $MAX_CLIENTS
EOF
}

# The client subcommand needs the shared system/peers view but no
# replica identity.
CLIENT_CONFIG="$WORKDIR/client.toml"
cat >"$CLIENT_CONFIG" <<EOF
# generated by scripts/run_multi_machine.sh
n = $N
instances = $INSTANCES
batch_size = $BATCH_SIZE
crypto = "$CRYPTO"
seed = $SEED
peers = [$PEERS]
EOF

echo "== $N replicas, $CLIENTS client streams, ${DURATION_MS} ms"
echo "== edge: $IO_THREADS I/O threads, admission cap $MAX_CLIENTS per node"

REPLICA_PIDS=()
for index in $(seq 0 $((N - 1))); do
    config="$WORKDIR/replica-$index.toml"
    write_config "$index" "$config"
    host="${ADDRS[$index]%%:*}"
    if [ "$LOCAL" -eq 1 ]; then
        "$BINARY" replica --config "$config" --duration-ms "$DURATION_MS" \
            >"$WORKDIR/replica-$index.log" 2>&1 &
        REPLICA_PIDS+=("$!")
    else
        target="${SSH_USER:+$SSH_USER@}$host"
        remote_config="/tmp/rcc-replica-$index.toml"
        scp -q "$config" "$target:$remote_config"
        # shellcheck disable=SC2029 — the remote paths expand client-side on purpose.
        ssh "$target" "'$BINARY' replica --config '$remote_config' --duration-ms '$DURATION_MS'" \
            >"$WORKDIR/replica-$index.log" 2>&1 &
        REPLICA_PIDS+=("$!")
    fi
done

# Give listeners a moment before the clients dial in.
sleep 1

CLIENT_PIDS=()
for stream in $(seq 0 $((CLIENTS - 1))); do
    "$BINARY" client --config "$CLIENT_CONFIG" --stream "$stream" \
        --window "$WINDOW" \
        --duration-ms "$DURATION_MS" >"$WORKDIR/client-$stream.log" 2>&1 &
    CLIENT_PIDS+=("$!")
done

STATUS=0
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid" || STATUS=1
done
for pid in "${REPLICA_PIDS[@]}"; do
    wait "$pid" || STATUS=1
done

echo "== replica summaries"
for index in $(seq 0 $((N - 1))); do
    echo "-- replica $index"
    tail -n 3 "$WORKDIR/replica-$index.log"
done
echo "== client summaries"
for stream in $(seq 0 $((CLIENTS - 1))); do
    tail -n 1 "$WORKDIR/client-$stream.log"
done

if [ "$STATUS" -ne 0 ]; then
    echo "== FAILED: a replica or client exited non-zero (logs in $WORKDIR)" >&2
    # Keep the evidence around on failure.
    trap - EXIT
    exit 1
fi
echo "== OK"
