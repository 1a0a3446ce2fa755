#!/bin/sh
# CI gate: warning-strict build and the full test suite under the ci
# dune profile (what `make check` runs), so a plain `./ci.sh` is the
# one command a CI job needs. Every golden file (the paper's
# experiments, the examples, the scale crawl, the analyzer over every
# generated site, every bench suite's counters, the planner and
# executor pins) is a dune `diff` rule that `dune runtest` checks; what
# follows are the smoke runs at scale, the invariants they must keep
# and the views bench's wall-clock bound.
set -eu

cd "$(dirname "$0")"

# The smoke runs write their output to /tmp/ci_*.$$ and the views bench
# runs in $bench_dir; remove them however the script exits.
bench_dir=
cleanup() {
  rm -f /tmp/ci_*.$$
  if [ -n "$bench_dir" ]; then rm -rf "$bench_dir"; fi
}
trap cleanup EXIT

echo "== dune build (ci profile) =="
dune build --profile ci @all

echo "== dune runtest (ci profile) =="
dune runtest --profile ci

echo "== smoke scale: 2-domain serve over a scaled site =="
dune exec --profile ci bin/webviews_cli.exe -- serve \
  --profs 300 --courses 600 --queries 32 --domains 2 --latency \
  | tail -n 12

echo "== no re-downloads: working set beyond the LRU, every page fetched once =="
# 12,087 distinct pages against the 8,192-entry LRU: a page whose tuple
# is stored must never go back to the wire, so GETs = distinct URLs
dune exec --profile ci bin/webviews_cli.exe -- serve \
  --depts 100 --profs 8000 --courses 12000 --queries 24 --domains 2 --latency \
  > /tmp/ci_redownload.$$
gets=$(sed -n 's/^wire: \([0-9]*\) GETs.*/\1/p' /tmp/ci_redownload.$$)
distinct=$(sed -n 's/^distinct URLs on the wire: \([0-9]*\)$/\1/p' /tmp/ci_redownload.$$)
echo "wire GETs: $gets, distinct URLs on the wire: $distinct"
[ -n "$gets" ] && [ "$gets" = "$distinct" ] \
  || { echo "pages downloaded more than once ($gets GETs for $distinct distinct URLs)"; exit 1; }

echo "== smoke churn: live mutations, generous budget, zero SLA violations =="
dune exec --profile ci bin/webviews_cli.exe -- churn \
  --depts 2 --profs 6 --courses 10 --churn-rate 0.2 --budget 500 \
  --max-age 30 --queries 24 --fail-on-violation \
  | tail -n 8

echo "== churn budget: every wire request is charged exactly once =="
# pages get deleted, so view scans meet links whose target the store
# dropped; they skip them instead of fetching them unpaid, and the
# units spent are exactly HEADs x 1 + GETs x 10 (the default costs)
dune exec --profile ci bin/webviews_cli.exe -- churn \
  --depts 10 --profs 200 --courses 400 --churn-rate 0.3 --budget 4 \
  --max-age 6 --queries 400 > /tmp/ci_churn_budget.$$
gets=$(sed -n 's/^wire: \([0-9]*\) GETs, [0-9]* HEADs.*/\1/p' /tmp/ci_churn_budget.$$)
heads=$(sed -n 's/^wire: [0-9]* GETs, \([0-9]*\) HEADs.*/\1/p' /tmp/ci_churn_budget.$$)
spent=$(sed -n 's/^budget: \([0-9.]*\) units spent.*/\1/p' /tmp/ci_churn_budget.$$)
deletes=$(sed -n 's/^policy: .* delete \([0-9]*\),.*/\1/p' /tmp/ci_churn_budget.$$)
echo "wire: $gets GETs, $heads HEADs; budget: $spent units spent; $deletes pages deleted"
[ -n "$gets" ] && [ -n "$heads" ] && [ "${deletes:-0}" -gt 0 ] \
  && [ "$spent" = "$((heads + 10 * gets)).0" ] \
  || { echo "budget spent ($spent) is not HEADs + 10 x GETs ($heads + 10 x $gets)"; exit 1; }

echo "== views bench: planning at 500 views within 2x of 10 views =="
# a wall-clock bound, so it is checked here and not under `dune runtest`
# (which diffs the suite's counters against BENCH_views.json); run in a
# temp dir so the committed BENCH_views_timing.json stays as it is
bench_dir=$(mktemp -d)
(cd "$bench_dir" && "$OLDPWD/_build/default/bench/main.exe" views > views.log) \
  || { tail -n 3 "$bench_dir/views.log"; echo "bench views failed"; exit 1; }
tail -n 3 "$bench_dir/views.log"

echo "== smoke views: one view-substituted query end to end =="
dune exec --profile ci bin/webviews_cli.exe -- query --views \
  "SELECT p.PName, p.Email FROM Professor p" > /tmp/ci_views_smoke.$$
head -n 4 /tmp/ci_views_smoke.$$
grep -q "view Professor" /tmp/ci_views_smoke.$$ \
  || { echo "view substitution missing from query --views"; exit 1; }

echo "== smoke bindings: form-only query planned and executed via a composition of forms =="
dune exec --profile ci bin/webviews_cli.exe -- query --site formsite \
  "SELECT P.PName, P.Office FROM Course C, Professor P WHERE C.Dept = 'cs' AND C.Instructor = P.PName" \
  > /tmp/ci_bindings_smoke.$$
# (written to the file first: `tee | head` lets head's early exit kill
# tee before the result rows reach the file)
head -n 10 /tmp/ci_bindings_smoke.$$
# the plan must reach the data through parameterized calls (no
# navigation exists on the form-only site) ...
grep -q "⇒ DeptPage" /tmp/ci_bindings_smoke.$$ \
  || { echo "no call composition in the form-only plan"; exit 1; }
# ... and return exactly the generator's rows (11 at the default
# seed/sizes; any mismatch changes the count or the rendering)
grep -q "(11 rows)" /tmp/ci_bindings_smoke.$$ \
  || { echo "form-only query rows diverged from the expected answer"; exit 1; }
# a covered-but-unanswerable query must fail check with E0111 (exit 2)
status=0
dune exec --profile ci bin/webviews_cli.exe -- check --site formsite --json \
  "SELECT P.PName FROM Professor P WHERE P.Office = 'Bldg A, room 100'" \
  > /tmp/ci_bindings_check.$$ 2>&1 || status=$?
[ "$status" = 2 ] \
  || { echo "check exited $status, not 2, on an unanswerable form-only query"; exit 1; }
grep -q '"code":"E0111"' /tmp/ci_bindings_check.$$ \
  || { echo "E0111 missing from check --json"; exit 1; }

echo "== ci: all green =="
