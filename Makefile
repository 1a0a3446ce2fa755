.PHONY: build test check ci bench bench-kernel bench-fetch bench-exec bench-server bench-analyze bench-churn bench-views bench-bindings bench-all examples clean

build:
	dune build @all

# Every suite and every golden file: each pinned output (the paper's
# experiments, the examples, the scale crawl, every bench suite's
# counters in BENCH_<suite>.json, the planner and executor pins) is a
# dune `diff` rule in test/dune. Accept a deliberate change with
# `dune promote`.
test:
	dune runtest

# Strict gate: warning-clean build and the full test suite under the
# ci profile. The suite runs the analyzer (`check`, text and --json)
# over a query set per site of the site table (test/dune's check_pins
# rule): schema, registry and dead-view lint plus, per sample query
# (including every SQL query the examples/ programs run), the query
# lint, satisfiability (E0601), redundant-occurrence minimization
# (W0602), view subsumption (W0603), trivial answerability (W0604),
# binding patterns (E0111) and planning with the planner's equivalence
# dedup. `check` exits 2 on any error-severity diagnostic, which fails
# that rule, and its output is diffed against test/check_pins.expected.
check:
	dune build --profile ci @all
	dune runtest --profile ci

# Regenerate every experiment of the paper plus bechamel timings.
bench:
	dune exec bench/main.exe -- all

# Microbenchmarks of the in-memory relational kernel (equi_join,
# distinct, unnest at 1k/10k/100k rows) and of the executor's
# Hash_join, Project and Stream_unnest on the same relations (exec_*).
# It runs the bechamel pass three times (~3 min) and records each
# entry's median ns_per_run with the passes' min_ns and max_ns, so a
# run-to-run swing shows beside the figure. Wall times only, so it
# writes BENCH_kernel_timing.json in the current directory and nothing
# diffs it; commit it so the perf trajectory is tracked across PRs.
bench-kernel:
	dune exec bench/main.exe -- kernel

# Fetch-engine benchmark: the two literal plans of example 7.2 through
# the resilient fetch engine over a simulated network — batched-window
# speedup and exactness under a 10% transient failure rate. Writes
# BENCH_fetch.json in the current directory; `dune runtest` diffs a
# fresh run against the committed file.
bench-fetch:
	dune exec bench/main.exe -- fetch

# Streaming executor benchmark: the example 7.2 pointer-join /
# pointer-chase pair through the streaming physical plans versus the
# legacy materializing evaluator — page-access identity, peak resident
# rows, and the LIMIT 1 early-exit saving. Writes BENCH_exec.json in
# the current directory; `dune runtest` diffs a fresh run against the
# committed file.
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
# tuples, byte-identity across domain counts). Every ms is simulated,
# so it writes one file, BENCH_server.json, in the current directory;
# `dune runtest` diffs a fresh run against the committed file.
bench-server:
	dune exec bench/main.exe -- server

# Semantic-analyzer benchmark: filter-tree view-subsumption lookup vs
# a naive pairwise scan at 10/100/500 registered views (checks and
# agreement), and minimized-vs-raw best-plan page accesses on the three
# sites. Writes the counters to BENCH_analyze.json, which `dune runtest`
# diffs against the committed file, and the lookup wall times to
# BENCH_analyze_timing.json.
bench-analyze:
	dune exec bench/main.exe -- analyze

# Live-churn benchmark: the freshness/wire frontier (wire budget vs
# mean/95p answer staleness at churn {0, low, high}, incremental
# maintenance vs the full-refresh baseline, determinism and
# domain-count-invariance). Writes BENCH_churn.json in the current
# directory; `dune runtest` diffs a fresh run against the committed
# file. Exits nonzero if incremental is not strictly fresher at every fixed
# nonzero-churn budget.
bench-churn:
	dune exec bench/main.exe -- churn

# Views-as-access-paths benchmark: the same query planned and executed
# with and without registered views offered to the cost model — wire
# economics (HEAD=1 vs GET=10) on the three sites with byte-identity
# checks, the stale-view rejection case, and planning time vs registry
# size 10/100/500 with filter-tree vs naive view-match check counts.
# Writes the counters to BENCH_views.json, which `dune runtest` diffs
# against the committed file, and the wall times (plan ms per registry
# size, the 500/10 ratio) to BENCH_views_timing.json. Exits nonzero if
# no view win exists, results diverge, a stale view is chosen, or
# planning at 500 views exceeds 2x the 10-view time.
bench-views:
	dune exec bench/main.exe -- views

# Binding-pattern benchmark: the equivalent-rewriting search at
# 10/100/500 registered path views (real forms plus vocabulary-hooked
# decoy services), then the headline form-only query executed — GETs
# of the discovered composition vs the full-materialization oracle,
# with a byte-identity check against generator ground truth. Writes the
# counters (search states, rewritings, GETs) to BENCH_bindings.json,
# which `dune runtest` diffs against the committed file, and the search
# and planning wall times to BENCH_bindings_timing.json. Exits nonzero
# if any search size finds no rewriting, rows diverge, or the oracle
# wins the wire.
bench-bindings:
	dune exec bench/main.exe -- bindings

# Every benchmark that writes a BENCH_*.json.
bench-all: bench-kernel bench-fetch bench-exec bench-server bench-analyze bench-churn bench-views bench-bindings

# The CI entry point: ./ci.sh (strict gate + full test suite, golden
# files included, under the ci dune profile, then the smoke runs at
# scale, their invariants and the views bench's wall-clock bound).
ci:
	./ci.sh

examples:
	dune exec examples/quickstart.exe

clean:
	dune clean
