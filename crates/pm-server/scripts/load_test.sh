#!/usr/bin/env bash
# Load-tests pm-server over concurrent TCP connections.
#
# Spawns one `pm-scenarios serve --tcp` server (done internally by the
# `load` subcommand) and floods it with thousands of small election
# sessions from concurrent client threads. The run fails unless:
#
#   * fairness holds — every submitted session completes with a unique
#     leader (no client starves another's sessions);
#   * memory stays bounded — the server's session budget sits deliberately
#     below the client count, clients absorb the retryable `Busy`
#     rejection with backoff, and the final `stats` verb confirms the
#     live-session count never outgrew the budget.
#   * latency stays interactive — the client times every round trip (one
#     write per request, Nagle off), prints p50/p99 per verb, and fails if
#     the p99 `Run` round trip exceeds 38 ms, below the 40 ms delayed-ACK
#     floor a Nagle-stalled transport pays on every request.
#
# Usage: scripts/load_test.sh [SESSIONS] [CLIENTS]
set -euo pipefail

SESSIONS="${1:-2000}"
CLIENTS="${2:-32}"

cd "$(dirname "$0")/../../.."
cargo build --release -p pm-server --bins
exec ./target/release/pm-scenarios load --sessions "$SESSIONS" --clients "$CLIENTS"
