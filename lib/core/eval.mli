(** Evaluation of computable NALG expressions over a {e page source} —
    the live site over HTTP, a crawled instance, or the materialized
    store of Section 8. Evaluation is lower-then-run: {!Physplan.lower}
    compiles the logical tree into a streaming physical plan and
    {!Exec.run} executes it with pull-based cursors (same results and
    distinct page accesses as relation-at-a-time evaluation, but
    pipelined fetching, incremental link dedup and bounded intermediate
    state). Lowering is total on well-typed expressions, so this is
    the only evaluator on the production path; {!eval_legacy} is a
    test oracle. *)

exception Not_computable of string

type source = Exec.source = {
  fetch : scheme:string -> url:string -> Adm.Value.tuple option;
      (** the page tuple for a URL, or [None] when the page is gone *)
  prefetch : scheme:string -> string list -> unit;
      (** batch hint: a navigation is about to fetch these URLs *)
  window : int;
      (** prefetch window the streaming executor hands to [prefetch] *)
}

val fetcher_source : Adm.Schema.t -> Websim.Fetcher.t -> source
(** Pages through the resilient fetch engine: cache, retries, circuit
    breaker, and per-navigation batches whose simulated latencies
    overlap under the fetcher's window. *)

val live_source : ?cache:bool -> Adm.Schema.t -> Websim.Http.t -> source
(** Downloads pages with GET and wraps them. With [cache] (default),
    each URL is downloaded at most once per source — the cost model
    counts {e distinct} network accesses. Backed by {!fetcher_source}
    over a perfect-network fetcher. *)

val instance_source : Websim.Crawler.instance -> source
(** Reads a crawled instance; no network. *)

val pages_relation :
  Adm.Schema.t -> source -> scheme:string -> alias:string -> string list ->
  Adm.Relation.t
(** The page relation of a URL set, attributes qualified by [alias].
    URLs whose page is gone are skipped (dangling links tolerated). *)

val eval :
  ?limit:int -> ?views:Exec.views -> Adm.Schema.t -> source -> Nalg.expr ->
  Adm.Relation.t
(** Lower and run. With [limit], the executor stops pulling (and
    fetching pages) once that many rows are produced — the early-exit
    protocol. [views] lets [External] leaves that name a registered
    materialized view lower to [View_scan] and answer from the store.
    Raises {!Not_computable} like {!Physplan.lower}: on [External]
    leaves naming no registered view, non-entry-point [Entry] leaves,
    and unnests of an attribute that is not a declared list. *)

val eval_legacy : Adm.Schema.t -> source -> Nalg.expr -> Adm.Relation.t
(** The original relation-at-a-time interpreter: every operator
    materializes its input, a navigation collects the distinct link
    values of the whole source before fetching. No production caller:
    kept only as the oracle for differential tests. *)

val eval_counted :
  ?limit:int -> Adm.Schema.t -> Websim.Http.t -> source -> Nalg.expr ->
  Adm.Relation.t * Websim.Http.stats
(** Evaluate and report the network work done. *)

type fetch_report = {
  result : Adm.Relation.t;
  fetch : Websim.Fetcher.report;
      (** merged cost ledger — page accesses and fetch-engine work —
          scoped to this evaluation as a delta *)
}

val eval_fetched :
  ?limit:int -> Adm.Schema.t -> Websim.Fetcher.t -> Nalg.expr -> fetch_report
(** Evaluate through the fetch engine and report the merged cost
    ledger ({!Websim.Fetcher.report}): page accesses and runtime
    counters (attempts, retries, cache traffic, simulated elapsed
    milliseconds) in one record. *)
