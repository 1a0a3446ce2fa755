#!/bin/sh
# CI gate: warning-strict build and the full test suite under the ci
# dune profile, then the static analyzer over every generated site via
# `make check` (which itself runs the ci-profile build and tests, so a
# plain `./ci.sh` is the one command a CI job needs).
set -eu

cd "$(dirname "$0")"

echo "== dune build (ci profile) =="
dune build --profile ci @all

echo "== dune runtest (ci profile) =="
dune runtest --profile ci

echo "== make check (static analyzer) =="
make check

echo "== make analyze (semantic analyzer, fails on E06xx) =="
make analyze

echo "== smoke scale: 2-domain serve over a scaled site =="
dune exec --profile ci bin/webviews_cli.exe -- serve \
  --profs 300 --courses 600 --queries 32 --domains 2 --latency \
  | tail -n 12

echo "== smoke churn: live mutations, generous budget, zero SLA violations =="
dune exec --profile ci bin/webviews_cli.exe -- churn \
  --depts 2 --profs 6 --courses 10 --churn-rate 0.2 --budget 500 \
  --max-age 30 --queries 24 --fail-on-violation \
  | tail -n 8

echo "== smoke views: one view-substituted query end to end =="
dune exec --profile ci bin/webviews_cli.exe -- query --views \
  "SELECT p.PName, p.Email FROM Professor p" > /tmp/ci_views_smoke.$$
head -n 4 /tmp/ci_views_smoke.$$
grep -q "view Professor" /tmp/ci_views_smoke.$$ \
  || { echo "view substitution missing from query --views"; rm -f /tmp/ci_views_smoke.$$; exit 1; }
rm -f /tmp/ci_views_smoke.$$

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
  || { echo "no call composition in the form-only plan"; rm -f /tmp/ci_bindings_smoke.$$; exit 1; }
# ... and return exactly the generator's rows (11 at the default
# seed/sizes; any mismatch changes the count or the rendering)
grep -q "(11 rows)" /tmp/ci_bindings_smoke.$$ \
  || { echo "form-only query rows diverged from the expected answer"; rm -f /tmp/ci_bindings_smoke.$$; exit 1; }
rm -f /tmp/ci_bindings_smoke.$$
# a covered-but-unanswerable query must fail analyze with E0111 (exit 2)
if dune exec --profile ci bin/webviews_cli.exe -- analyze --site formsite --format=json \
     "SELECT P.PName FROM Professor P WHERE P.Office = 'Bldg A, room 100'" \
     > /tmp/ci_bindings_analyze.$$ 2>&1; then
  echo "analyze accepted an unanswerable form-only query"; rm -f /tmp/ci_bindings_analyze.$$; exit 1
fi
grep -q '"code":"E0111"' /tmp/ci_bindings_analyze.$$ \
  || { echo "E0111 missing from analyze --format=json"; rm -f /tmp/ci_bindings_analyze.$$; exit 1; }
rm -f /tmp/ci_bindings_analyze.$$

echo "== smoke lint gate: a bad query is a coded diagnostic with exit 2, never an exception =="
for cmd in query explain plan run; do
  status=0
  dune exec --profile ci bin/webviews_cli.exe -- $cmd "SELECT p.Nope FROM Professor p" \
    > /tmp/ci_lint_gate.$$ 2>&1 || status=$?
  [ "$status" -eq 2 ] \
    || { echo "$cmd exited $status on an unknown attribute (want 2)"; rm -f /tmp/ci_lint_gate.$$; exit 1; }
  grep -q "E0304" /tmp/ci_lint_gate.$$ \
    || { echo "E0304 missing from $cmd"; rm -f /tmp/ci_lint_gate.$$; exit 1; }
done
status=0
dune exec --profile ci bin/webviews_cli.exe -- query "SELEC p.PName FROM Professor p" \
  > /tmp/ci_lint_gate.$$ 2>&1 || status=$?
[ "$status" -eq 2 ] && grep -q "E0308" /tmp/ci_lint_gate.$$ \
  || { echo "syntax error not reported as E0308 with exit 2"; rm -f /tmp/ci_lint_gate.$$; exit 1; }
# a form-only query no composition of forms answers: E0111 (or, past
# the lint, an empty plan space E0309), exit 2, never an exception
for cmd in query plan explain run; do
  status=0
  dune exec --profile ci bin/webviews_cli.exe -- $cmd --site formsite \
    "SELECT P.PName FROM Professor P" > /tmp/ci_lint_gate.$$ 2>&1 || status=$?
  [ "$status" -eq 2 ] \
    || { echo "$cmd exited $status on a form-only query (want 2)"; rm -f /tmp/ci_lint_gate.$$; exit 1; }
  grep -q "E0111\|E0309" /tmp/ci_lint_gate.$$ \
    || { echo "E0111/E0309 missing from $cmd"; rm -f /tmp/ci_lint_gate.$$; exit 1; }
done
# a bad workload line is a coded diagnostic with its line number
printf 'SELECT p.PName FROM Professor p\nSELECT p.Nope FROM Professor p\n' \
  > /tmp/ci_lint_workload.$$
status=0
dune exec --profile ci bin/webviews_cli.exe -- serve --workload /tmp/ci_lint_workload.$$ \
  > /tmp/ci_lint_gate.$$ 2>&1 || status=$?
[ "$status" -eq 2 ] && grep -q ":2: error\[E0304\]" /tmp/ci_lint_gate.$$ \
  || { echo "bad serve --workload line not reported as E0304 with exit 2"; rm -f /tmp/ci_lint_gate.$$ /tmp/ci_lint_workload.$$; exit 1; }
rm -f /tmp/ci_lint_workload.$$
# a site size the generators cannot build is a usage error (exit 124)
status=0
dune exec --profile ci bin/webviews_cli.exe -- query --depts 0 \
  "SELECT p.PName FROM Professor p" > /tmp/ci_lint_gate.$$ 2>&1 || status=$?
[ "$status" -eq 124 ] \
  || { echo "--depts 0 exited $status (want 124)"; rm -f /tmp/ci_lint_gate.$$; exit 1; }
rm -f /tmp/ci_lint_gate.$$

echo "== ci: all green =="
