# The `run:` line `gcs_sim sim` prints replays the run exactly: evaluating
# it again writes a byte-identical --trace-csv and the same stdout, the
# `wrote` lines aside.
#   usage: sh replay_check.sh PATH/TO/gcs_sim.exe
set -eu
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
gcs_sim() { "$exe" "$@"; }
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
gcs_sim sim --nodes 8 --topology ring --delay uniform --seed 7 \
  --rho 0.0512345678 --horizon 60.123456789 --churn 0.3123456789 \
  --new-edge 0,4,12.3456789 \
  --faults 'crash@10.123456789:2;restart@20.5:2!;dup@5.25-30.987654321:0>1' \
  --audit --trace-csv "$dir/a.csv" > "$dir/a.out"
line=$(sed -n 's/^run: //p' "$dir/a.out")
test -n "$line"
eval "$line --trace-csv \"\$dir/b.csv\"" > "$dir/b.out"
cmp "$dir/a.csv" "$dir/b.csv"
grep -v '^wrote ' "$dir/a.out" > "$dir/a.kept"
grep -v '^wrote ' "$dir/b.out" > "$dir/b.kept"
cmp "$dir/a.kept" "$dir/b.kept"
