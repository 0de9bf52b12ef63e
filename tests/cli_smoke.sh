#!/usr/bin/env bash
# CLI smoke test for the serving commands (ctest `cli_smoke`):
#   tests/cli_smoke.sh <path-to-gcm> <work-dir>
set -euo pipefail

GCM="$1"
DIR="$2"
rm -rf "$DIR" && mkdir -p "$DIR" && cd "$DIR"

fail() { echo "cli_smoke: FAIL $*" >&2; exit 1; }

"$GCM" train --out model.txt >/dev/null

# 400 lines: one in 8 bulk, one in 8 a raw signature (the default
# model has 10 signature networks), one in 8 malformed, the rest
# named (network, device) pairs.
NETS=(mobilenet_v2_1.0 squeezenet_1.1 mnasnet_a1 mobilenet_v3_small)
mapfile -t DEVS < <("$GCM" list-devices | awk 'NR <= 12 { print $1 }')
for i in $(seq 0 399); do
    named="\"network\": \"${NETS[i % 4]}\", \"device\": \"${DEVS[i % 12]}\""
    case $((i % 8)) in
    0) echo "{\"id\": \"b$i\", $named, \"priority\": \"bulk\"}" ;;
    3) echo "{\"id\": \"s$i\", \"network\": \"squeezenet_1.1\", \"signature\": [$((i % 50 + 1)).5, 2, 3, 4, 5, 6, 7, 8, 9, 10]}" ;;
    5) echo "{\"id\": \"bad$i\"" ;;
    *) echo "{\"id\": \"r$i\", $named}" ;;
    esac
done >stream.txt

for w in 1 4; do
    "$GCM" serve --model model.txt --in stream.txt --out "w$w.txt" \
        --workers "$w" 2>/dev/null
done
[ "$(wc -l <w1.txt)" -eq 400 ] || fail "want 400 response lines"
cmp -s w1.txt w4.txt || fail "--workers 1 and --workers 4 responses differ"
if grep -q -e '"overloaded"' -e '"degraded"' w1.txt; then
    fail "gcm serve degraded or shed a request"
fi
grep -q '"ok": true' w1.txt || fail "no successful response"
grep -q '"bad_request"' w1.txt || fail "malformed lines were not rejected"

"$GCM" loadgen --model model.txt --requests 300 >/dev/null ||
    fail "closed gcm loadgen"
"$GCM" loadgen --model model.txt --requests 300 --arrivals open \
    >/dev/null || fail "open gcm loadgen"

rc=0
"$GCM" list-networks --threads abc >/dev/null 2>err.txt || rc=$?
[ "$rc" -eq 1 ] || fail "--threads abc exited $rc, want 1"
grep -q '^error: ' err.txt || fail "--threads abc printed no error: line"

echo "cli_smoke: OK"
