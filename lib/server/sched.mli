(** The cooperative multi-query scheduler of the concurrent server.

    Admitted queries interleave as batch-sized quanta over the
    resumable cursors of {!Webviews.Exec}, each reading through one
    page source, by default {!Shared_cache.source}. The
    interleaving is a deterministic function of
    the workload, the config and the netmodel seed — no wall-clock
    reads, no OS threads — so every run replays exactly.

    Time is the simulated clock of the shared fetch engine (it only
    advances on network activity; without a netmodel it stays at 0 and
    deadlines never fire). A query past its deadline is finalized with
    the rows it has pulled so far — graceful degradation, not an
    error — and when the network (or the open circuit breaker) makes a
    page unreachable, a source built with [Shared_cache.source ~stale]
    serves the stored tuple instead. The cache counts each query's
    stale and missing pages; the scheduler reads those counts into the
    query's completeness report when it finalizes the query.

    Domains and lanes. With [config.domains = D] the scheduler models
    a D-domain server by greedy list scheduling at quantum
    granularity: every quantum's simulated fetch cost is charged to
    the lane with the earliest frontier (deterministic tie-break by
    index), starting no earlier than the end of the same query's
    previous quantum — a query's own chain stays sequential, any free
    domain picks up the next runnable quantum. Scheduler
    {e decisions} — admission, pick order, fetch order, netmodel
    draws, deadline cuts (checked against the domain-independent
    global fetch clock) — are those of the sequential run at every D,
    so results, distinct-GET sets and the sharing ledger are
    byte-identical across domain counts; only the time accounting fans
    out. Makespan is the largest lane frontier; D = 1 reproduces the
    single-clock numbers exactly. Real domains run the pure stages
    (window extraction, planning) through {!Pool}. *)

type policy =
  | Round_robin  (** rotate through residents in admission order *)
  | Priority  (** highest [spec.priority] first, round-robin within *)

type config = {
  concurrency : int;  (** resident-query cap (admission control) *)
  quantum : int;  (** [Exec.step] calls per scheduler turn *)
  policy : policy;
  max_resident_rows : int;
      (** stop admitting while residents buffer more rows than this *)
  domains : int;  (** simulated execution lanes; 1 = sequential *)
}

val config :
  ?concurrency:int -> ?quantum:int -> ?policy:policy ->
  ?max_resident_rows:int -> ?domains:int -> unit -> config
(** Defaults: 8 residents, quantum 4, round-robin, 100k rows, 1 domain. *)

val default_config : config

type spec = {
  qid : int;  (** dense, unique; results are reported in qid order *)
  label : string;  (** usually the SQL text *)
  expr : Webviews.Nalg.expr;  (** the plan to run (typically the planner's best) *)
  priority : int;
  deadline_ms : float option;  (** budget of simulated ms, admission-relative *)
}

val plan_workload :
  ?pool:Pool.t -> ?views:Webviews.Planner.view_context ->
  ?bindings:(Webviews.Conjunctive.t -> Webviews.Nalg.expr list) ->
  Adm.Schema.t -> Webviews.Stats.t -> Webviews.View.registry ->
  Workload.entry list -> spec list
(** Plan each workload entry with {!Webviews.Planner.plan_sql} and
    number the specs in order. Each distinct SQL text is planned once
    (workloads draw from small template pools); the distinct texts
    plan in parallel when a pool is given. With [views], registered
    materialized views compete as access paths, and a winning spec
    carries the view occurrence in its [expr] — run such specs with a
    [source_for] whose sources carry that store's answerer. With
    [bindings] (see {!Webviews.Planner.enumerate}), rewritings over
    parameterized entry points compete too — the only access path on
    form-only sites. *)

type completeness = {
  complete : bool;
      (** cursor exhausted with no deadline cut, no stale serves and
          no pages lost — the result is the full fresh answer *)
  deadline_hit : bool;
  stale_pages : int;  (** pages served from the materialized store *)
  missing_pages : int;  (** pages neither fetchable nor stored *)
}

(** Per-query freshness SLA verdict, filled in by a churn runtime
    through {!run}'s [probe] (the scheduler itself only carries it):
    [Fresh] — no entry the answer used had changed on the live site;
    [Stale_within_sla] — some had, but every served entry was younger
    than its view's [max_age]; [Violated] — a stale entry older than
    its [max_age] was served. *)
type freshness_verdict = Fresh | Stale_within_sla | Violated

type freshness = {
  verdict : freshness_verdict;
  pages_served : int;  (** store entries this answer used *)
  stale_served : int;  (** entries whose live page had already changed *)
  mean_staleness : float;  (** mean age of the stale entries, site ticks *)
  max_staleness : int;  (** oldest stale entry served, site ticks *)
  checks_denied : int;  (** freshness checks skipped: wire budget gone *)
  pages_missing : int;  (** entries gone from both the site and the store *)
}

type result = {
  qid : int;
  label : string;
  rows : Adm.Relation.t;  (** partial unless [completeness.complete] *)
  completeness : completeness;
  freshness : freshness option;  (** present only under a churn runtime *)
  elapsed_ms : float;  (** simulated lane-model time: admit → final *)
  service_ms : float;  (** lane time this query's own fetching consumed *)
  wait_ms : float;  (** [elapsed - service]: queueing behind other quanta *)
  lane : int;  (** lane of the query's latest charged quantum *)
  steps : int;
}

type report = {
  results : result list;  (** in qid order *)
  ledger : Shared_cache.ledger;  (** the cross-query sharing proof *)
  fetch : Websim.Fetcher.report;  (** shared-engine work, as a delta *)
  makespan_ms : float;  (** largest lane frontier *)
  p50_ms : float;  (** per-query elapsed percentiles (fairness) *)
  p95_ms : float;
  p50_service_ms : float;  (** own fetch work: the latency floor *)
  p95_service_ms : float;
  p50_wait_ms : float;  (** queueing behind other quanta *)
  p95_wait_ms : float;
  domains : int;
  lane_busy_ms : float list;  (** per-lane accumulated busy time *)
  peak_resident_queries : int;
  peak_resident_rows : int;
  turns : int;
}

val run :
  ?on_result:(result -> unit) ->
  ?keep_rows:bool ->
  ?on_turn:(turn:int -> resident:spec list -> unit) ->
  ?source_for:(spec -> Webviews.Eval.source option) ->
  ?probe:(qid:int -> freshness option) ->
  config -> Shared_cache.t -> Adm.Schema.t -> spec list -> report
(** Run the workload to completion (every query finishes or hits its
    deadline). Each query reads through
    [Shared_cache.source cache ~query:qid schema] unless [source_for]
    gives it another source. [on_result] observes each result at
    finalization time (digesting, streaming out); with
    [keep_rows:false] the report then stores each result with an empty
    relation (header preserved) so 10^3-query runs do not retain 10^7
    rows. The [cache] is not reset: a pre-warmed or reused cache
    simply yields more sharing, visible in the ledger.

    The churn hooks: [on_turn] fires between quanta at the top of
    every scheduler turn, keyed by the turn counter alone (the turn
    sequence is identical at every domain count, so anything it does
    is domain-count-invariant); mutation traffic and the maintenance
    lane run here. [source_for] is the one way to give a query another
    source ([Shared_cache.source ~stale], or one backed by a maintained
    store); on [None] the default above is used. It is called as the
    query is admitted, and the plan is lowered and started against the
    returned source, whose [views] answers its view scans. The
    completeness report counts only what the cache's source served, so
    a substitute that is a cache source reports what the default does.
    [probe] is asked for a
    {!freshness} record when a query finalizes. *)

val percentile : float -> float list -> float
(** Nearest-rank percentile; 0.0 on the empty list, NaN-quantile safe. *)

val verdict_to_string : freshness_verdict -> string
val pp_report : report Fmt.t
