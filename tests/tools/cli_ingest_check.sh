#!/bin/sh
# Copyright 2026 The dpcube Authors.
#
# CLI-level checks of the data and release file codec:
#   - a corrupt data value makes `release` exit 1 and name the line;
#   - an out-of-domain mask makes `inspect` exit 1;
#   - a write to a full device makes `release` exit 1;
#   - `release --seed 3` at 1 and 4 threads matches the checked-in
#     release byte for byte, apart from the build-seconds line.
#
# usage: cli_ingest_check.sh PATH_TO_DPCUBE PATH_TO_EXPECTED_RELEASE
set -eu

bin=$1
expected=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect_exit1 NAME TEXT CMD...: CMD exits 1 and its stderr holds TEXT.
expect_exit1() {
  name=$1
  text=$2
  shift 2
  status=0
  "$@" > "$dir/out.txt" 2> "$dir/err.txt" || status=$?
  [ "$status" -eq 1 ] || fail "$name: exit $status, want 1"
  grep -q -- "$text" "$dir/err.txt" ||
    fail "$name: stderr lacks '$text': $(cat "$dir/err.txt")"
}

printf 'a,b\n1,1\n4294967296,1\n' > "$dir/overflow.csv"
printf 'a,b\n3x,0\n' > "$dir/garbage.csv"
for bad in overflow:3 garbage:2; do
  file=${bad%%:*}
  line=${bad##*:}
  expect_exit1 "release on $file.csv" "line $line:" \
    "$bin" release --schema a:4,b:2 --data "$dir/$file.csv" --workload Q1 \
    --method F+ --epsilon 1.0 --seed 3 --out "$dir/unused.csv"
done

printf '# dpcube-release d=3\nmask,cell,value\n40,0,1\n40,1,1\n40,2,1\n40,3,1\n' \
  > "$dir/domain.csv"
expect_exit1 "inspect of mask 40 at d=3" "outside the d=3 domain" \
  "$bin" inspect --release "$dir/domain.csv"

"$bin" synth --dataset nltcs --rows 500 --seed 7 --out "$dir/data.csv" \
  > /dev/null
schema=$(head -1 "$dir/data.csv" | tr ',' '\n' | sed 's/$/:2/' | paste -sd, -)

if [ -w /dev/full ]; then
  expect_exit1 "release --out /dev/full" "/dev/full" \
    "$bin" release --schema "$schema" --data "$dir/data.csv" --workload Q1 \
    --method F+ --epsilon 1.0 --seed 3 --out /dev/full
fi

for threads in 1 4; do
  "$bin" release --schema "$schema" --data "$dir/data.csv" --workload Q2 \
    --method F+ --epsilon 1.0 --seed 3 --threads "$threads" \
    --out "$dir/raw.csv" > /dev/null
  grep -v '^# dpcube-build-seconds' "$dir/raw.csv" > "$dir/t$threads.csv"
  cmp -s "$dir/t$threads.csv" "$expected" ||
    fail "release --seed 3 --threads $threads differs from $expected"
done
echo "data and release file checks hold"
