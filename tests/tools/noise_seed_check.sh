#!/bin/sh
# Copyright 2026 The dpcube Authors.
#
# The noise-seed contract of `dpcube release` and `dpcube integral`:
# two runs without --seed draw different noise (the seed comes from the
# OS), and two runs with the same --seed are identical apart from the
# archived wall-clock build timings.
#
# usage: noise_seed_check.sh PATH_TO_DPCUBE
set -eu

bin=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$bin" synth --dataset nltcs --rows 500 --seed 7 --out "$dir/data.csv" \
  > /dev/null
schema=$(head -1 "$dir/data.csv" | tr ',' '\n' | sed 's/$/:2/' | paste -sd, -)

# run VERB NAME [--seed S]: one release into $dir/NAME.csv, without the
# timing line.
run() {
  verb=$1
  name=$2
  shift 2
  if [ "$verb" = release ]; then
    "$bin" release --schema "$schema" --data "$dir/data.csv" --workload Q1 \
      --method F+ --epsilon 1.0 --threads 1 --out "$dir/raw.csv" "$@" \
      > /dev/null
  else
    "$bin" integral --schema "$schema" --data "$dir/data.csv" --workload Q1 \
      --epsilon 1.0 --out "$dir/raw.csv" "$@" > /dev/null
  fi
  grep -v '^# dpcube-build-seconds' "$dir/raw.csv" > "$dir/$name.csv"
}

for verb in release integral; do
  run "$verb" unseeded1
  run "$verb" unseeded2
  if cmp -s "$dir/unseeded1.csv" "$dir/unseeded2.csv"; then
    echo "FAIL: two unseeded '$verb' runs produced identical noise" >&2
    exit 1
  fi
  run "$verb" seeded1 --seed 3
  run "$verb" seeded2 --seed 3
  if ! cmp -s "$dir/seeded1.csv" "$dir/seeded2.csv"; then
    echo "FAIL: two '$verb --seed 3' runs differ" >&2
    exit 1
  fi
done
echo "noise seed contract holds for release and integral"
