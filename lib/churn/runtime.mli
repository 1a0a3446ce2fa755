(** The live-churn runtime: mutation traffic, the maintenance lane and
    the query workload interleaved on one scheduler.

    Queries are answered from a {!Webviews.Matview} store (Algorithm 3:
    the local store is the view, URLCheck is its freshness protocol),
    all wire traffic — query-time checks and the maintenance lane —
    goes through one shared fetch engine, and the site mutates
    underneath via a seeded {!Traffic} generator driven from
    {!Server.Sched}'s [on_turn] hook: one scheduler turn = one site
    tick. Everything is a deterministic function of (site, workload
    seed, churn seed, config) and is domain-count-invariant, because
    churn work keys off the turn counter alone.

    Three maintenance policies close the bench triangle:
    - [Incremental] — the {!Maintain} engine spends the wire budget on
      HEAD-revalidations (GET only on proven change), plus budgeted
      query-time URLCheck for over-age entries;
    - [Full_refresh] — the paper's periodic whole-view pass: the same
      budget accrues until it covers a full recrawl, then the store is
      rebuilt in one burst; queries serve the store unchecked;
    - [No_maintenance] — the frozen store, as a floor. *)

type policy = Incremental | Full_refresh | No_maintenance

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type config = {
  profile : Profile.t;
  churn_seed : int;
  sla : Sla.t;
  budget_per_turn : float;  (** wire units refilled each turn *)
  costs : Budget.costs;
  policy : policy;
  query_check : bool;
      (** [Incremental] only: URLCheck over-age entries at query time
          (budgeted); [false] = queries always serve the store and
          freshness is maintenance's job alone *)
}

val config :
  ?profile:Profile.t -> ?churn_seed:int -> ?sla:Sla.t -> ?budget_per_turn:float ->
  ?costs:Budget.costs -> ?policy:policy -> ?query_check:bool -> unit -> config
(** Defaults: {!Profile.low}, seed 42, default SLA (max_age 100),
    budget 8 units/turn, default costs, [Incremental], query_check on.
    Maintenance runs {!Maintain.config}'s defaults. *)

type report = {
  sched : Server.Sched.report;  (** per-query results incl. freshness *)
  policy : policy;
  ticks : int;  (** site ticks = scheduler turns driven *)
  mutations : (Traffic.kind * int) list;
  mutations_total : int;
  maintenance : Maintain.counters;
  full_refreshes : int;
  budget_spent : float;
  budget_denied : int;
  verdicts : (string * int) list;  (** per-query verdict histogram *)
  violations : int;
  mean_staleness : float;
      (** mean over queries of (stale-age mass / pages served) — the
          "answer staleness" the bench frontier plots, in site ticks *)
  p95_staleness : float;  (** p95 over per-query max stale age *)
  store_pages : int;  (** store size at the end of the run *)
  views_chosen : (string * int) list;
      (** registered views the planned workload answers from, with how
          many specs chose each — the signal the maintenance lane's
          relevance ordering consumes *)
  wire : Websim.Fetcher.report;  (** serve-phase wire delta *)
}

val run :
  ?sched:Server.Sched.config -> ?pool:Server.Pool.t ->
  ?bindings:(Webviews.Conjunctive.t -> Webviews.Nalg.expr list) ->
  config -> Adm.Schema.t ->
  Webviews.Stats.t -> Webviews.View.registry -> Websim.Http.t ->
  Server.Workload.entry list -> report
(** Materialize the store over [http] (through a fresh cache-less
    shared fetcher — the store is the only freshness layer), plan the
    workload — with the registered views over that store competing as
    cost-priced access paths ({!Webviews.Viewstore}), their
    revalidation HEADs and forced GETs drawn from the same wire budget
    as every other freshness check — then run it under churn. The
    report's staleness numbers are oracle truth: they compare served
    entries against the live site's Last-Modified, which only the
    report (never the queries or the maintenance engine) is allowed to
    see. *)

val pp_report : report Fmt.t
