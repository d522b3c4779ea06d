#!/usr/bin/env bash
# Usage: bash .github/same-as-base.sh BASE
#
# A change that declares no numerics change keeps every output byte-identical
# to its base commit's, on the same machine. This runs each command below in a
# detached worktree of BASE and in this checkout's working tree (uncommitted
# edits count), and prints one line per comparison: "identical", or "differ"
# and a diff, base first; a side that prints no figure differs. If any differ,
# it exits 1 unless CHANGES.md gains a line that starts with "NUMERICS:".
# A local run regenerates demos/out in the checkout.
set -euo pipefail
[ "$#" -eq 1 ] || { echo "usage: bash .github/same-as-base.sh BASE" >&2; exit 2; }
base_commit=$1
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" 2> /dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base_commit"
declare -A root=([base]="$tmp/base" [change]="$PWD")
workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
differ=0

# both COMMAND...: run in each tree, from its root; the output, cut short if
# the command fails, goes to $tmp/base.txt and $tmp/change.txt
both() {
  for side in base change; do
    (cd "${root[$side]}" && PYTHONPATH=src "$@" > "$tmp/$side.txt") || true
  done
}

# verdict LABEL TEST...: "identical" if TEST succeeds, else "differ" and the
# start of what TEST printed
verdict() {
  if "${@:2}" > "$tmp/why.txt" 2>&1; then
    echo "$1: identical"
  else
    echo "$1: differ"
    head -n 20 "$tmp/why.txt"
    differ=1
  fi
}

# same PATTERN: both sides printed the same lines that match PATTERN, and some
same() {
  sed -n "/$1/p" "$tmp/base.txt" > "$tmp/base.lines"
  sed -n "/$1/p" "$tmp/change.txt" > "$tmp/change.lines"
  diff "$tmp/base.lines" "$tmp/change.lines" && [ -s "$tmp/base.lines" ]
}

# A plain run covers every input of its workload, so its output_sha256
# compares across commits. The structural events and the epochs are not in
# the hashed output files, so a traced run counts them. Only counts compare:
# a traced run hashes the inputs it reached, which differ between commits,
# and it counts input 0's epochs alone.
for workload in $workloads; do
  for seed in 0 7; do
    both python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1
    verdict "$workload seed $seed output_sha256" same '^output_sha256: '
  done
  both python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 --trace 1
  verdict "$workload seed 0 event counts" same '^  engine\.events\.'
  verdict "$workload seed 0 epoch counts" \
    same '^  \(engine\.train\|engine\.smooth\|baseline\|baseline\.train_batch_som\)\.epochs = '
done

# The perfbench workloads run at most 5 paired runs each, so nothing above
# reaches the 20-run protocols: smoothing 20 runs in lockstep searches many
# runs' rows again in one batched GEMM call, and the cluster protocol holds
# runs that train to the epoch cap. The normalized iris protocol sizes each
# run's lattice from the scaled full dataset (12 x 5, where raw iris sizes
# 15 x 4), which the baseline's initial map must be built from too.
printf '%s\n' "dataset = data/iris.csv" "label_column = species" "runs = 20" > "$tmp/iris20.cfg"
{ cat "$tmp/iris20.cfg"; echo "normalize = true"; } > "$tmp/iris20norm.cfg"
printf '%s\n' "dataset = cluster" "runs = 20" > "$tmp/cluster20.cfg"
for protocol in iris20 iris20norm cluster20; do
  for side in base change; do
    (cd "${root[$side]}" && PYTHONPATH=src python3 -m amsom.cli bench "$tmp/$protocol.cfg" \
      --out "$tmp/$protocol-$side" > /dev/null) || true
  done
  verdict "$protocol bench outputs" diff -r "$tmp/$protocol-base" "$tmp/$protocol-change"
done

# Both sides run on one machine, so the trained demos compare too, which CI's
# smoke step cannot do against the committed files.
for demo in train_iris cluster_benchmark lattice_gallery moving_lattice; do
  both python3 -W error::RuntimeWarning "demos/$demo.py"
done
verdict "demos/out" diff -r "${root[base]}/demos/out" demos/out

if [ "$differ" = 1 ]; then
  added=$(git diff "$base_commit" -- CHANGES.md)
  if grep -q '^+NUMERICS:' <<< "$added"; then
    echo "outputs differ; CHANGES.md declares a numerics change"
  else
    echo "outputs differ from the base commit and CHANGES.md declares no numerics change"
    exit 1
  fi
fi
