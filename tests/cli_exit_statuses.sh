#!/usr/bin/env bash
# The CLI's exit statuses, its byte-pinned outputs and its streaming memory
# bound, as CI's "CLI exit statuses" step checks them. Run from anywhere:
#
#     bash tests/cli_exit_statuses.sh
#
# It runs under `set -eo pipefail`, as a GitHub Actions `shell: bash` step
# does, so the first failing command or check fails the script. Its files go
# under $RUNNER_TEMP, or under a fresh `mktemp -d` directory, removed on exit,
# when that is unset. When no `nps2` is on PATH, a shim that runs
# `python -m nps2.cli` goes first on PATH, with this repository's src on
# PYTHONPATH: the RSS check starts `nps2` from Python, so a shell function
# would not do.
set -eo pipefail

if [ -z "$RUNNER_TEMP" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
if ! command -v nps2 > /dev/null; then
  repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
  mkdir -p "$RUNNER_TEMP/bin"
  printf '#!/bin/sh\nexec python -m nps2.cli "$@"\n' > "$RUNNER_TEMP/bin/nps2"
  chmod +x "$RUNNER_TEMP/bin/nps2"
  export PATH="$RUNNER_TEMP/bin:$PATH" PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
fi

nps2 sweep --n 8 > /dev/null
# 37 patterns of NPS2-II n=8: 4 rounds x (8 + 8*7 + 28*6) surviving packets
nps2 sweep --n 8 --trace "$RUNNER_TEMP/t.jsonl" --report "$RUNNER_TEMP/r.json"
test "$(wc -l < "$RUNNER_TEMP/t.jsonl")" -eq 928
# the bytes themselves are pinned, not only their run-to-run equality
echo "a455da0254f1475d05e8755ebafea9cb884caf5504c74faabb6cf5aedeba8d29  $RUNNER_TEMP/t.jsonl" | sha256sum -c -
# GF(2^16) runs are byte-stable apart from generated_at and leave no temp file
for k in 1 2; do
  nps2 run --n 8 --field-m 16 --field-poly 1100b --sessions 50 --fail-random 2 \
    --seed 3 --trace "$RUNNER_TEMP/g$k.jsonl" --report "$RUNNER_TEMP/g$k.json" > /dev/null
  sed '/"generated_at"/d' "$RUNNER_TEMP/g$k.json" > "$RUNNER_TEMP/g$k.scrubbed"
done
cmp "$RUNNER_TEMP/g1.jsonl" "$RUNNER_TEMP/g2.jsonl"
cmp "$RUNNER_TEMP/g1.scrubbed" "$RUNNER_TEMP/g2.scrubbed"
# generated_at, the one line every pin scrubs, is a UTC time to the second
grep -qE '^  "generated_at": "[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\+00:00",$' "$RUNNER_TEMP/g1.json"
echo "6ac1055a30c35a3b5cd1551395539602b2fc12b80e31d627cf0bc756ff259fb1  $RUNNER_TEMP/g1.jsonl" | sha256sum -c -
echo "2afa829ffa7c05956fb6c0813dd29b2f3222ee196b0b90c1042edc89248f9444  $RUNNER_TEMP/g1.scrubbed" | sha256sum -c -
# both pinned runs give the pinned bytes under any hash seed
for seed in 0 1 12345; do
  PYTHONHASHSEED=$seed nps2 sweep --n 8 --trace "$RUNNER_TEMP/h.jsonl" > /dev/null
  echo "a455da0254f1475d05e8755ebafea9cb884caf5504c74faabb6cf5aedeba8d29  $RUNNER_TEMP/h.jsonl" | sha256sum -c -
  PYTHONHASHSEED=$seed nps2 run --n 8 --field-m 16 --field-poly 1100b --sessions 50 \
    --fail-random 2 --seed 3 --trace "$RUNNER_TEMP/hg.jsonl" --report "$RUNNER_TEMP/hg.json" > /dev/null
  sed '/"generated_at"/d' "$RUNNER_TEMP/hg.json" > "$RUNNER_TEMP/hg.scrubbed"
  echo "6ac1055a30c35a3b5cd1551395539602b2fc12b80e31d627cf0bc756ff259fb1  $RUNNER_TEMP/hg.jsonl" | sha256sum -c -
  echo "2afa829ffa7c05956fb6c0813dd29b2f3222ee196b0b90c1042edc89248f9444  $RUNNER_TEMP/hg.scrubbed" | sha256sum -c -
done
# the same run from a config file holding every key, each named as its flag is
cat > "$RUNNER_TEMP/all.json" <<EOF
{"mode": "run", "scheme": "nps2-ii", "n": 8, "field_m": 16, "field_poly": "1100b",
 "field_gen": "2", "sessions": 50, "fail": null, "fail_random": 2, "seed": 3,
 "trace": "$RUNNER_TEMP/c.jsonl", "report": "$RUNNER_TEMP/c.json"}
EOF
nps2 --config "$RUNNER_TEMP/all.json" > /dev/null
sed '/"generated_at"/d' "$RUNNER_TEMP/c.json" > "$RUNNER_TEMP/c.scrubbed"
echo "6ac1055a30c35a3b5cd1551395539602b2fc12b80e31d627cf0bc756ff259fb1  $RUNNER_TEMP/c.jsonl" | sha256sum -c -
echo "2afa829ffa7c05956fb6c0813dd29b2f3222ee196b0b90c1042edc89248f9444  $RUNNER_TEMP/c.scrubbed" | sha256sum -c -
test -z "$(find "$RUNNER_TEMP" -name '*.tmp')"
# NPS2-I at n=34 cycles through 17 protection pairs: 40 sessions x 34 rounds x 32 live paths
for k in 1 2; do
  nps2 run --scheme nps2-i --n 34 --sessions 40 --fail-random 2 --seed 3 \
    --trace "$RUNNER_TEMP/i$k.jsonl" --report "$RUNNER_TEMP/i$k.json" > /dev/null
  sed '/"generated_at"/d' "$RUNNER_TEMP/i$k.json" > "$RUNNER_TEMP/i$k.scrubbed"
done
test "$(wc -l < "$RUNNER_TEMP/i1.jsonl")" -eq 43520
cmp "$RUNNER_TEMP/i1.jsonl" "$RUNNER_TEMP/i2.jsonl"
cmp "$RUNNER_TEMP/i1.scrubbed" "$RUNNER_TEMP/i2.scrubbed"
echo "1a8af0064fca8daeaac99130dead3921f25489b1632f7d3700755bbc68ebf8bd  $RUNNER_TEMP/i1.jsonl" | sha256sum -c -
echo "3d436c3563bcf5a85241e4545ef56191af0c2fed4ac722d79f7b5d45ba660bb1  $RUNNER_TEMP/i1.scrubbed" | sha256sum -c -
# every 0/1/2 pattern of NPS2-I n=12: 12 rounds x (12 + 12*11 + 66*10) surviving packets
for k in 1 2; do
  nps2 sweep --scheme nps2-i --n 12 \
    --trace "$RUNNER_TEMP/s$k.jsonl" --report "$RUNNER_TEMP/s$k.json" > /dev/null
  sed '/"generated_at"/d' "$RUNNER_TEMP/s$k.json" > "$RUNNER_TEMP/s$k.scrubbed"
done
test "$(wc -l < "$RUNNER_TEMP/s1.jsonl")" -eq 9648
cmp "$RUNNER_TEMP/s1.jsonl" "$RUNNER_TEMP/s2.jsonl"
cmp "$RUNNER_TEMP/s1.scrubbed" "$RUNNER_TEMP/s2.scrubbed"
echo "a306b53a47580d2cae278f35efb314bcbcaa529f6895d9d79c80c5bf6b4181d3  $RUNNER_TEMP/s1.jsonl" | sha256sum -c -
echo "0f265f7603c2ef4d2dd2b18e8e714c2df28e6a5818d1283056a4989ba5149416  $RUNNER_TEMP/s1.scrubbed" | sha256sum -c -
# hex widths 1 (GF(2^3)) and 3 (GF(2^12)), which no other pin reaches: 20 sessions x
# 4 rounds x 3 live paths, and 20 sessions x 10 rounds x 8 live paths
nps2 run --n 6 --field-m 3 --field-poly b --sessions 20 --fail-random 2 --seed 3 \
  --trace "$RUNNER_TEMP/w1.jsonl" --report "$RUNNER_TEMP/w1.json" > /dev/null
sed '/"generated_at"/d' "$RUNNER_TEMP/w1.json" > "$RUNNER_TEMP/w1.scrubbed"
test "$(wc -l < "$RUNNER_TEMP/w1.jsonl")" -eq 240
echo "da9c17dcfa39ce6cd8ac33d9c4cf958b992682aa33a39eed3decbc2777d62339  $RUNNER_TEMP/w1.jsonl" | sha256sum -c -
echo "a394ed14ee5574707385db10fb4574ebc555c3fb08fac8e6e2ba39beabfdf92b  $RUNNER_TEMP/w1.scrubbed" | sha256sum -c -
nps2 run --scheme nps2-i --n 10 --field-m 12 --field-poly 1053 --sessions 20 --fail-random 2 \
  --seed 3 --trace "$RUNNER_TEMP/w3.jsonl" --report "$RUNNER_TEMP/w3.json" > /dev/null
sed '/"generated_at"/d' "$RUNNER_TEMP/w3.json" > "$RUNNER_TEMP/w3.scrubbed"
test "$(wc -l < "$RUNNER_TEMP/w3.jsonl")" -eq 1600
echo "2c0828353f6b76a671812e3279daebeab15cef7bf133fb5d3fef35aaafbc85f9  $RUNNER_TEMP/w3.jsonl" | sha256sum -c -
echo "2ad5c94ed4e5b4f833ac30fa89f3121a023b0560ade8babf88c49582913a86ab  $RUNNER_TEMP/w3.scrubbed" | sha256sum -c -
# one GF(2^16) session at n=512, where path numbers pass 256 and NPS2-II's paths
# shift to unit r-1 after their protection round: 512 rounds x 510 live paths,
# and 256 rounds x 510
nps2 run --scheme nps2-i --n 512 --field-m 16 --field-poly 1100b --fail 3,500 \
  --trace "$RUNNER_TEMP/l1.jsonl" --report "$RUNNER_TEMP/l1.json" > /dev/null
sed '/"generated_at"/d' "$RUNNER_TEMP/l1.json" > "$RUNNER_TEMP/l1.scrubbed"
test "$(wc -l < "$RUNNER_TEMP/l1.jsonl")" -eq 261120
echo "96cc068d2364a7e0f3d204370fd4bc48fcf846d3852bfc1d5c5823dfe4368e27  $RUNNER_TEMP/l1.jsonl" | sha256sum -c -
echo "a9570591a4cb90f5a0b8b6f694b7c2f17d4db67d4c3c54d1ce639e45981b1a42  $RUNNER_TEMP/l1.scrubbed" | sha256sum -c -
nps2 run --scheme nps2-ii --n 512 --field-m 16 --field-poly 1100b --fail 3,500 \
  --trace "$RUNNER_TEMP/l2.jsonl" --report "$RUNNER_TEMP/l2.json" > /dev/null
sed '/"generated_at"/d' "$RUNNER_TEMP/l2.json" > "$RUNNER_TEMP/l2.scrubbed"
test "$(wc -l < "$RUNNER_TEMP/l2.jsonl")" -eq 130560
echo "36b166c664895bc70580a8d26d75d4b65ae54ea81a7f6316a4a7330e3d555a11  $RUNNER_TEMP/l2.jsonl" | sha256sum -c -
echo "231d379cc6c10a46f5386c8f70aaebfe704a964e780f24de88607a95c4da57c7  $RUNNER_TEMP/l2.scrubbed" | sha256sum -c -
nps2 sweep --scheme nps2-i --n 5 --sessions 5 > /dev/null
nps2 dump-schedule > /dev/null
# the schedule dumps are pinned too, text and JSON, for both schemes
nps2 dump-schedule --scheme nps2-i --n 7 > "$RUNNER_TEMP/d1.txt"
echo "e53b966e46eb5dd925f7cd714550f4bbe98f6d4e3d30c87d450c132910e102eb  $RUNNER_TEMP/d1.txt" | sha256sum -c -
nps2 dump-schedule --scheme nps2-i --n 7 --json > "$RUNNER_TEMP/d2.json"
echo "aa984f85970f8972939d9fdf44cf501f656c1a151725878ff5aeda8e7ddf50a9  $RUNNER_TEMP/d2.json" | sha256sum -c -
nps2 dump-schedule --scheme nps2-ii --n 8 > "$RUNNER_TEMP/d3.txt"
echo "ddd296eed1c4ebc31564e99ceff05851579399beb052081ed1efa2baecde2b80  $RUNNER_TEMP/d3.txt" | sha256sum -c -
nps2 dump-schedule --scheme nps2-ii --n 8 --json > "$RUNNER_TEMP/d4.json"
echo "49c8bf3e77b0197df060bb156832340abe190fd176bddc0f430a3e2d21c7edb1  $RUNNER_TEMP/d4.json" | sha256sum -c -
nps2 dump-rows --json > /dev/null
rows=$(nps2 dump-rows --n 6 --field-m 3 --field-poly b)
echo "$rows" | grep -qxF 'row_weighted: 1 2 4 3'
code=0; nps2 dump-rows --n 300 2> /dev/null || code=$?
test "$code" -eq 2
# integer strings are ASCII digits without "_", which int() would read as 10
code=0; nps2 dump-rows --n 1_0 2> /dev/null || code=$?
test "$code" -eq 2
code=0; nps2 run --n 6 --fail 1,2,5 > /dev/null || code=$?
test "$code" -eq 1
echo '{"n": "abc"}' > "$RUNNER_TEMP/bad.json"
code=0; nps2 --config "$RUNNER_TEMP/bad.json" || code=$?
test "$code" -eq 2
printf '\xff\xfe{"n": 8}' > "$RUNNER_TEMP/not-utf8.json"
code=0; nps2 --config "$RUNNER_TEMP/not-utf8.json" || code=$?
test "$code" -eq 2
# a config naming a directory or holding no JSON object, and zero sessions: each exits 2
# with one error line after the usage, no traceback, no stdout and no output written
mkdir "$RUNNER_TEMP/e" "$RUNNER_TEMP/cfgdir"
echo '[1, 2]' > "$RUNNER_TEMP/array.json"
exits_2() {  # the message, then the arguments
  message=$1; shift
  code=0; nps2 "$@" --trace "$RUNNER_TEMP/e/t.jsonl" --report "$RUNNER_TEMP/e/r.json" \
    > "$RUNNER_TEMP/e.out" 2> "$RUNNER_TEMP/e.err" || code=$?
  test "$code" -eq 2
  test ! -s "$RUNNER_TEMP/e.out"
  test "$(grep -cv -e '^usage:' -e '^ ' "$RUNNER_TEMP/e.err")" -eq 1
  grep -q "^nps2: error: .*$message" "$RUNNER_TEMP/e.err"
  test "$(grep -c Traceback "$RUNNER_TEMP/e.err")" -eq 0
  test -z "$(ls -A "$RUNNER_TEMP/e")"
}
exits_2 "cannot read config file" --config "$RUNNER_TEMP/cfgdir"
exits_2 "must hold a JSON object" --config "$RUNNER_TEMP/array.json"
exits_2 "--sessions must be positive" --sessions 0
# the command is the only action flag, and each setting has one config key
code=0; nps2 --sweep 2> /dev/null || code=$?
test "$code" -eq 2
code=0; nps2 sweep --n 4 --fail 2 2> /dev/null || code=$?
test "$code" -eq 2
echo '{"field": {"m": 8}}' > "$RUNNER_TEMP/nested.json"
code=0; nps2 --config "$RUNNER_TEMP/nested.json" || code=$?
test "$code" -eq 2
# a report naming the trace's file would replace the trace: refused, nothing written
code=0; nps2 run --n 6 --fail 2 --trace "$RUNNER_TEMP/x.json" --report "$RUNNER_TEMP/x.json" || code=$?
test "$code" -eq 2
test ! -e "$RUNNER_TEMP/x.json"
test -z "$(find "$RUNNER_TEMP" -name '*.tmp')"
# an output naming the config file would replace it: refused, the file left as it was
echo '{"seed": 1}' > "$RUNNER_TEMP/c6.json"
cp "$RUNNER_TEMP/c6.json" "$RUNNER_TEMP/c6.copy"
code=0; nps2 run --n 6 --fail 2 --config "$RUNNER_TEMP/c6.json" --trace "$RUNNER_TEMP/c6.json" || code=$?
test "$code" -eq 2
cmp "$RUNNER_TEMP/c6.json" "$RUNNER_TEMP/c6.copy"
test -z "$(find "$RUNNER_TEMP" -name '*.tmp')"
# an empty output path is refused, not read as no trace or as a report to stdout
code=0; (cd "$RUNNER_TEMP" && nps2 run --n 6 --fail 2 --trace "") 2> /dev/null || code=$?
test "$code" -eq 2
test -z "$(find "$RUNNER_TEMP" -name '*.tmp')"
# a file's mode is read only without a command, as a flag hides its key's file value
echo '{"mode": "bogus"}' > "$RUNNER_TEMP/mode.json"
nps2 dump-rows --config "$RUNNER_TEMP/mode.json" > /dev/null
code=0; nps2 --config "$RUNNER_TEMP/mode.json" 2> /dev/null || code=$?
test "$code" -eq 2
# an option the action never reads is refused: a dump writes no report, only a dump reads --json
code=0; nps2 dump-rows --report "$RUNNER_TEMP/d.json" 2> /dev/null || code=$?
test "$code" -eq 2
test ! -e "$RUNNER_TEMP/d.json"
code=0; nps2 run --n 4 --json 2> /dev/null || code=$?
test "$code" -eq 2
nps2 run --n 6 --fail 2 --trace /dev/null --report /dev/null > /dev/null
# outputs are opened before the first session and placed after the report:
# a failed stdout report leaves no trace, and a write error names its device
code=0; nps2 run --n 6 --fail 2 --trace "$RUNNER_TEMP/f.jsonl" > /dev/full || code=$?
test "$code" -eq 2
test ! -e "$RUNNER_TEMP/f.jsonl"
code=0; nps2 run --n 6 --fail 2 --trace /dev/full 2> "$RUNNER_TEMP/full.err" > /dev/null || code=$?
test "$code" -eq 2
grep -qF 'cannot write /dev/full' "$RUNNER_TEMP/full.err"
# the reports printed to stdout are pinned too, apart from generated_at
nps2 sweep --n 8 --sessions 3 | sed '/"generated_at"/d' > "$RUNNER_TEMP/o1.scrubbed"
echo "d58c90cc38a2c123db52129f11e4b52eece1a30b48fe7e2ffddace769245bc0f  $RUNNER_TEMP/o1.scrubbed" | sha256sum -c -
nps2 run --n 8 --sessions 3 --fail-random 2 --seed 5 | sed '/"generated_at"/d' > "$RUNNER_TEMP/o2.scrubbed"
echo "e3defaef92f49c8185722b0c4eb1b688d79f4164dcea4ad9d32ebe6908e6d89d  $RUNNER_TEMP/o2.scrubbed" | sha256sum -c -
# the CLI streams its sessions: 20x the sessions peaks at the same RSS
python - "$RUNNER_TEMP" <<'EOF'
import resource, subprocess, sys

# a GF(2^16) run's tables add little over the import's own peak; RUSAGE_CHILDREN
# is a running maximum, so that floor is measured before any run
subprocess.run([sys.executable, "-c", "import nps2.cli"], check=True)
floor = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux

def peak_kib(sessions):
    subprocess.run(
        ["nps2", "run", "--n", "8", "--field-m", "16", "--field-poly", "1100b",
         "--fail-random", "2", "--sessions", str(sessions),
         "--trace", f"{sys.argv[1]}/m.jsonl", "--report", f"{sys.argv[1]}/m.json"],
        check=True, stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux

small, large = peak_kib(200), peak_kib(4000)
print(f"peak RSS: {small} KiB at 200 sessions, {large} KiB at 4000")
print(f"peak RSS: {floor} KiB importing nps2.cli")
assert small - floor < 1536, (floor, small)
assert large - small < 1024, (small, large)
EOF
