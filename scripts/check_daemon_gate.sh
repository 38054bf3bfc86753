#!/usr/bin/env bash
# Bench-smoke gate for the live capture-to-alarm daemon (hids::Daemon).
#
# One micro_daemon run against an existing Release build. The binary is
# self-verifying (it exits non-zero if the daemon's alarm set diverges from
# the batch pipeline), and this script adds the operational gates:
#
#   - inline drain throughput must stay above MIN_PKTS_PER_SEC: the pure
#     processing path (flow table -> extractor -> bin scan -> rollover) must
#     keep up with capture; a regression here means the agent falls behind
#     live traffic and the bounded queue starts shedding coverage.
#   - pcap drain throughput must stay above MIN_PCAP_PKTS_PER_SEC: the same
#     trace as pcap bytes through Daemon::consume_pcap, i.e. the pcap
#     parser plus the processing path, which is what a real capture costs.
#   - Storm time-to-detection must stay under TTD_MAX_MINUTES: a zombie
#     switched on after the warm-up/training weeks must raise its first
#     alert within the bound (the detection-latency contract of fig 5's
#     attack experiment, run through the online path).
#
# Usage: scripts/check_daemon_gate.sh [build-dir]
# Env:   WEEKS (default 3), MIN_PKTS_PER_SEC (default 1000000),
#        MIN_PCAP_PKTS_PER_SEC (default 2000000), TTD_MAX_MINUTES (default 720),
#        OUT_DIR (default .)
set -euo pipefail

BUILD_DIR="${1:-build}"
WEEKS="${WEEKS:-3}"
MIN_PKTS_PER_SEC="${MIN_PKTS_PER_SEC:-1000000}"
MIN_PCAP_PKTS_PER_SEC="${MIN_PCAP_PKTS_PER_SEC:-2000000}"
TTD_MAX_MINUTES="${TTD_MAX_MINUTES:-720}"
OUT_DIR="${OUT_DIR:-.}"

BIN="${BUILD_DIR}/bench/micro_daemon"
if [ ! -x "${BIN}" ]; then
  echo "FAIL: ${BIN} not built (cmake --build ${BUILD_DIR} --target micro_daemon)" >&2
  exit 1
fi

echo "== daemon smoke: ${WEEKS} weeks, floors ${MIN_PKTS_PER_SEC} pkts/s in memory," \
     "${MIN_PCAP_PKTS_PER_SEC} pkts/s from pcap, TTD <= ${TTD_MAX_MINUTES} min =="
"${BIN}" --weeks "${WEEKS}" \
    --min-pkts-per-sec "${MIN_PKTS_PER_SEC}" \
    --min-pcap-pkts-per-sec "${MIN_PCAP_PKTS_PER_SEC}" \
    --ttd-max-minutes "${TTD_MAX_MINUTES}" \
    --json "${OUT_DIR}/BENCH_daemon_smoke.json"

echo "OK: daemon bit-identical to the batch pipeline, drain above" \
     "${MIN_PKTS_PER_SEC} pkts/s, pcap drain above ${MIN_PCAP_PKTS_PER_SEC} pkts/s," \
     "Storm detected within ${TTD_MAX_MINUTES} minutes"
