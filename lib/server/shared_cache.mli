(** The shared page-cache tier of the concurrent query server.

    All resident queries fetch through one {!Websim.Fetcher.t}; its
    LRU is the wire-level single-flight table — the first query to
    need a URL pays the network GET, every later request from any
    query is a cache hit. This module adds (1) the accounting that
    proves the sharing: per-query distinct request sets and the global
    distinct wire set, summarized by the {!ledger} invariant

    {[ cross_query_hits = sum_per_query - distinct_gets ]}

    and (2) an extracted-tuple store indexed by a dense URL id: wrapping
    a page is paid once per distinct (scheme, url), and every read
    looks in the store first, so a page whose tuple is stored is never
    downloaded again, whatever the LRU has evicted. Prefetched windows
    send only their missing pages to the wire and are extracted in
    parallel on the {!Pool}; the scheduler thread, the only one that
    touches the store, publishes the results, so nothing is locked.
    Per-query request sets are bitsets over the same URL ids, so
    10^3-query ledgers over 10^5-page sites stay small.

    Resident queries read through {!source}, the one page source over
    the cache; beside each query's request set the cache counts the
    pages that query was served stale or lost ({!degraded}). Nothing
    is ever invalidated: a stored tuple is trusted for the cache's
    lifetime, so the cache belongs over a site that does not change
    while it serves. Over a changing site queries read the
    materialized store instead, whose HEAD-then-GET protocol
    ({!Webviews.Matview}) is the only freshness layer. *)

type t

val wrap : ?pool:Pool.t -> Websim.Fetcher.t -> t
(** Share an existing fetch engine. Its LRU only has to hold a
    prefetched window until it is extracted: stored tuples outlive
    eviction. Failed pages are never stored: a 404 is shared only
    while the LRU keeps it, and an unreachable page is retried. [pool]
    enables parallel extraction of prefetched windows. *)

val create :
  ?pool:Pool.t -> ?config:Websim.Fetcher.config ->
  ?netmodel:Websim.Netmodel.t -> Websim.Http.t -> t
(** [wrap] over a fresh fetcher ({!Websim.Fetcher.create}). *)

val fetcher : t -> Websim.Fetcher.t

val attach_views : ?answerer:Webviews.Exec.views -> t -> Webviews.Viewstore.t -> unit
(** Expose a registered-view store to resident queries: the scheduler
    lowers view occurrences in admitted plans to [View_scan] and
    resolves them through [answerer] (default
    {!Webviews.Viewstore.answerer}, i.e. scans revalidate under the
    store's own HEAD budget — pass an answerer wrapped with wire gates
    to put a maintenance budget in charge instead). *)

val views : t -> Webviews.Viewstore.t option
(** The attached registered-view store, if any. *)

val view_answerer : t -> Webviews.Exec.views option
(** The executor-facing lens over {!views}. *)

val report : t -> Websim.Fetcher.report
(** The shared engine's merged cost ledger (wire + engine). *)

val source :
  ?stale:Webviews.Matview.t -> t -> query:int -> Adm.Schema.t -> Webviews.Eval.source
(** The page source query [query] evaluates over: same wrapper
    protocol as [Eval.fetcher_source], routed through the shared
    engine and tuple tier with the query's identity attached. A read
    looks in the tuple store first (a stored tuple skips both the
    network and the HTML parse; the page access still counts in the
    ledger), then fetches and wraps. Failures are not stored: they
    re-consult the fetch engine exactly as a cache-less run would. A
    page the wire cannot deliver (retries exhausted, breaker open) is
    served from [stale]'s stored tuple when there is one and counted
    stale; any other failed read is counted missing.

    Prefetching records the window in [query]'s request set, fetches
    the pages whose tuple is not stored as one batch
    ({!Websim.Fetcher.get_batch}; a no-op on a cache-less fetcher) and
    stores their extracted tuples — extracted in parallel on the pool
    when one is attached. Extraction is pure and the tuples are stored
    in window order, so a pooled run perturbs neither clock nor fetch
    sequence. *)

val degraded : t -> query:int -> int * int
(** [(stale, missing)]: the pages {!source} has so far served [query]
    from the stale store, and the pages it could not serve at all. *)

val distinct_gets : t -> int
(** Distinct URLs requested across all queries — the wire set size. *)

val distinct_get_set : t -> string list
(** The wire set in first-request order. *)

val query_get_set : t -> query:int -> string list
(** The distinct URLs [query] requested, sorted. *)

type ledger = {
  distinct_gets : int;  (** distinct URLs on the wire, all queries *)
  sum_per_query : int;  (** what isolated execution would have paid *)
  per_query : (int * int) list;  (** (qid, distinct URLs it requested) *)
  cross_query_hits : int;
      (** first-time requests served because {e another} query already
          fetched the page; always [sum_per_query - distinct_gets] *)
  sharing_ratio : float;
      (** [distinct_gets / sum_per_query]; 1.0 = no overlap *)
}

val ledger : t -> ledger
val pp_ledger : ledger Fmt.t

(** The tuple store's size, in the shape of the former striped
    cache's report. There is one store and no lock, so [shards] is
    always 1, [lock_acquisitions] and [lock_contested] are always 0,
    and [max_shard_tuples] equals [tuples_cached]. *)
type contention = {
  shards : int;
  lock_acquisitions : int;
  lock_contested : int;
  tuples_cached : int;  (** stored (scheme, url) tuples *)
  max_shard_tuples : int;
}

val contention : t -> contention
