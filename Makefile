.PHONY: build test check analyze ci bench bench-kernel bench-fetch bench-exec bench-server bench-analyze bench-churn bench-views bench-bindings bench-all examples clean

build:
	dune build @all

test:
	dune runtest

# Strict gate: warning-clean build, full test suite, and the static
# analyzer over every site in the site table (schema + view lint plus sample
# queries — including every SQL query the examples/ programs run;
# nonzero exit on any error-severity diagnostic).
check:
	dune build --profile ci @all
	dune runtest --profile ci
	dune exec --profile ci bin/webviews_cli.exe -- check --site university \
	  "SELECT p.PName, p.Email FROM Professor p, ProfDept pd WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'" \
	  "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci WHERE c.CName = ci.CName" \
	  "SELECT p.PName, p.Rank FROM Professor p, ProfDept d WHERE p.PName = d.PName AND d.DName = 'Computer Science'" \
	  "SELECT p.PName FROM Professor p" \
	  "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = 'Fall' AND p.Rank = 'Full'"
	dune exec --profile ci bin/webviews_cli.exe -- check --site catalog \
	  "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'" \
	  "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50" \
	  "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND p.Price >= 400" \
	  "SELECT p.PName FROM Product p WHERE p.Price > 495"
	dune exec --profile ci bin/webviews_cli.exe -- check --site bibliography
	dune exec --profile ci bin/webviews_cli.exe -- check --site formsite \
	  "SELECT P.PName, P.Office FROM Course C, Professor P WHERE C.Dept = 'cs' AND C.Instructor = P.PName"

# Semantic analyzer gate: `webviews analyze --format=json` over the
# same query set the examples/ programs run (mirrored above in
# `check`) — satisfiability (E0601), redundant-occurrence
# minimization (W0602), view subsumption (W0603), trivial
# answerability (W0604), and the planner's equivalence dedup. The
# subcommand exits 2 on any error-severity finding, so `set -e` /
# make fail on E06xx.
analyze:
	dune exec --profile ci bin/webviews_cli.exe -- analyze --site university --format=json \
	  "SELECT p.PName, p.Email FROM Professor p, ProfDept pd WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'" \
	  "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci WHERE c.CName = ci.CName" \
	  "SELECT p.PName, p.Rank FROM Professor p, ProfDept d WHERE p.PName = d.PName AND d.DName = 'Computer Science'" \
	  "SELECT p.PName FROM Professor p" \
	  "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = 'Fall' AND p.Rank = 'Full'"
	dune exec --profile ci bin/webviews_cli.exe -- analyze --site catalog --format=json \
	  "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'" \
	  "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50" \
	  "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND p.Price >= 400" \
	  "SELECT p.PName FROM Product p WHERE p.Price > 495"
	dune exec --profile ci bin/webviews_cli.exe -- analyze --site bibliography --format=json
	dune exec --profile ci bin/webviews_cli.exe -- analyze --site formsite --format=json \
	  "SELECT P.PName, P.Office FROM Course C, Professor P WHERE C.Dept = 'cs' AND C.Instructor = P.PName"

# Regenerate every experiment of the paper plus bechamel timings.
bench:
	dune exec bench/main.exe -- all

# Microbenchmarks of the in-memory relational kernel (equi_join,
# distinct, unnest, nest at 1k/10k/100k rows). Writes BENCH_kernel.json
# in the current directory; commit it so the perf trajectory is
# tracked across PRs.
bench-kernel:
	dune exec bench/main.exe -- kernel

# Fetch-engine benchmark: the two literal plans of example 7.2 through
# the resilient fetch engine over a simulated network — batched-window
# speedup and exactness under a 10% transient failure rate. Writes
# BENCH_fetch.json in the current directory; commit it so the
# trajectory is tracked across PRs.
bench-fetch:
	dune exec bench/main.exe -- fetch

# Streaming executor benchmark: the example 7.2 pointer-join /
# pointer-chase pair through the streaming physical plans versus the
# legacy materializing evaluator — page-access identity, peak resident
# rows, and the LIMIT 1 early-exit saving. Writes BENCH_exec.json in
# the current directory; commit it so the trajectory is tracked across
# PRs.
bench-exec:
	dune exec bench/main.exe -- exec

# Concurrent server benchmark: workloads of 1/8/64 queries through
# the cooperative scheduler behind one shared page cache versus each
# query isolated on its own engine — cross-query GET coalescing ratio,
# makespan, fairness percentiles, result identity, plus a
# deadline-under-faults degradation scenario, plus the multicore
# domain sweep (a ~10^5-page site, 10^3 mixed scan/selective
# queries, 1/2/4/8 domains:
# makespan speedup curve, queue-wait vs service percentiles, stored
# tuples, byte-identity across domain counts). Writes
# BENCH_server.json in the current directory; commit it so the
# trajectory is tracked across PRs.
bench-server:
	dune exec bench/main.exe -- server

# Every benchmark that writes a BENCH_*.json.
# Semantic-analyzer benchmark: filter-tree view-subsumption lookup vs
# a naive pairwise scan at 10/100/500 registered views, analysis +
# planning time and candidate-set size vs registry size, and
# minimized-vs-raw best-plan page accesses on the three sites. Writes
# BENCH_analyze.json in the current directory; commit it so the
# trajectory is tracked across PRs.
bench-analyze:
	dune exec bench/main.exe -- analyze

# Live-churn benchmark: the freshness/wire frontier (wire budget vs
# mean/95p answer staleness at churn {0, low, high}, incremental
# maintenance vs the full-refresh baseline, determinism and
# domain-count-invariance). Writes BENCH_churn.json in the current
# directory; commit it so the trajectory is tracked across PRs.
# Exits nonzero if incremental is not strictly fresher at every fixed
# nonzero-churn budget.
bench-churn:
	dune exec bench/main.exe -- churn

# Views-as-access-paths benchmark: the same query planned and executed
# with and without registered views offered to the cost model — wire
# economics (HEAD=1 vs GET=10) on the three sites with byte-identity
# checks, the stale-view rejection case, and planning time vs registry
# size 10/100/500 with filter-tree vs naive view-match check counts.
# Writes BENCH_views.json in the current directory; commit it so the
# trajectory is tracked across PRs. Exits nonzero if no view win
# exists, results diverge, a stale view is chosen, or planning at 500
# views exceeds 2x the 10-view time.
bench-views:
	dune exec bench/main.exe -- views

# Binding-pattern benchmark: the equivalent-rewriting search timed at
# 10/100/500 registered path views (real forms plus vocabulary-hooked
# decoy services), then the headline form-only query executed — GETs
# of the discovered composition vs the full-materialization oracle,
# with a byte-identity check against generator ground truth. Writes
# BENCH_bindings.json in the current directory; commit it so the
# trajectory is tracked across PRs. Exits nonzero if any search size
# finds no rewriting, rows diverge, or the oracle wins the wire.
bench-bindings:
	dune exec bench/main.exe -- bindings

bench-all: bench-kernel bench-fetch bench-exec bench-server bench-analyze bench-churn bench-views bench-bindings

# The CI entry point: ./ci.sh (strict gate + full test suite under the
# ci dune profile).
ci:
	./ci.sh

examples:
	dune exec examples/quickstart.exe

clean:
	dune clean
