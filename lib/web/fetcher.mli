(** The resilient fetch engine used by the evaluator, the crawler and
    the materialized store. Over the perfect transport it is a strict
    pass-through (same GETs/HEADs/bytes, same order); layered on a
    {!Netmodel} it adds batched fetch windows (latencies of a
    navigation's URL batch overlap under a bounded in-flight width),
    request deduplication, retry with exponential backoff and seeded
    jitter, a per-site circuit breaker, and a bounded LRU page cache.
    All decisions replay deterministically from the model's seed.

    The cache deduplicates downloads and never revalidates: a cached
    page (or 404) is trusted for the fetcher's lifetime, so a caching
    fetcher belongs over a site that does not change while it runs.
    Freshness over a changing site is the materialized store's job
    (the HEAD-then-GET protocol of [Webviews.Matview]), over a cache-less
    fetcher. *)

type page = { body : string; last_modified : int }

type 'a fetched =
  | Fetched of 'a
  | Absent  (** definitive 404 *)
  | Unreachable  (** retries exhausted or circuit open *)

type config = {
  window : int;  (** in-flight width of a batch; 1 = sequential *)
  retries : int;  (** extra attempts after the first *)
  backoff_ms : float;  (** first retry delay *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  backoff_jitter : float;  (** delay noise, fraction of the delay *)
  breaker_threshold : int;  (** consecutive dead requests to trip; 0 = off *)
  breaker_cooldown_ms : float;  (** open-state duration before a probe *)
  cache_capacity : int;  (** LRU entries; 0 = no cache *)
}

val config :
  ?window:int -> ?retries:int -> ?backoff_ms:float -> ?backoff_factor:float ->
  ?backoff_jitter:float -> ?breaker_threshold:int -> ?breaker_cooldown_ms:float ->
  ?cache_capacity:int -> unit -> config

val default_config : config

(** {1 The merged fetch report}

    One ledger: the wire side ({!Http.stats}) and the engine's own
    counters merged into a single record. *)

type report = {
  gets : int;  (** full page downloads that reached the server *)
  heads : int;  (** light connections that reached the server *)
  not_found : int;
  bytes : int;  (** GET payload bytes *)
  head_bytes : int;  (** light-connection header bytes *)
  requests : int;  (** logical get/head calls, one per distinct URL of a batch *)
  attempts : int;  (** exchanges tried on the wire *)
  retries : int;  (** attempts beyond the first *)
  failed : int;  (** exchanges that died (5xx/timeout/truncated) *)
  gave_up : int;  (** requests that exhausted their retries *)
  breaker_trips : int;
  breaker_fastfails : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  batches : int;
  coalesced : int;
  elapsed_ms : float;  (** simulated wall-clock spent fetching *)
}

val report_diff : before:report -> after:report -> report
val pp_report : report Fmt.t

type t

val create : ?config:config -> ?netmodel:Netmodel.t -> Http.t -> t
(** Without [netmodel], the network is perfect: no latency, no faults,
    and every operation degenerates to its direct {!Http} call. *)

val http : t -> Http.t
val netmodel : t -> Netmodel.t option
val fetcher_config : t -> config

val window : t -> int
(** The configured in-flight width — the prefetch window size the
    streaming executor hands to {!prefetch}. *)

val caching : t -> bool
val elapsed_ms : t -> float
val now_ms : t -> float
val breaker_open : t -> bool

val open_breaker : t -> for_ms:float -> unit
(** Operational kill-switch: force the circuit open for [for_ms] of
    simulated time. Requests fast-fail as [Unreachable] until the
    cooldown elapses, then one probe goes through (Half-open), exactly
    as for an organically tripped breaker. *)

val report : t -> report
(** Merged snapshot of both ledgers: the wire totals of the underlying
    {!Http} connection plus this engine's counters. Use
    {!report_diff} to scope it to one evaluation. *)

val get : t -> string -> page fetched
(** One page download through cache, breaker and retries; advances the
    simulated clock by the request's duration. *)

val head : t -> string -> int fetched
(** One light connection through breaker and retries (never cached). *)

val get_batch : t -> string list -> (string * page fetched) list
(** Fetch the distinct URLs as one batch: latencies overlap under the
    configured window (list scheduling; a request occupies one slot
    including its retries and backoff waits), and the clock advances
    by the batch makespan. Results are keyed by URL in first-seen
    order; duplicates are coalesced. *)

val head_batch : t -> string list -> (string * int fetched) list
(** Light-connection batch: the distinct URLs' HEAD latencies overlap
    under the configured window, as {!get_batch}'s downloads do, and
    the clock advances by the makespan. Never cached; each request
    passes the circuit breaker individually. Results are keyed by URL
    in first-seen order; duplicates are coalesced. The materialized
    store's maintenance revalidation sweeps through this. *)

val prefetch : t -> string list -> unit
(** Warm the cache for an upcoming navigation ([get_batch], results
    dropped). A no-op on a cache-less fetcher. *)

val invalidate : t -> string -> unit
(** Drop [url] from the page cache (positive or negative entry alike)
    so the next access goes to the wire. The materialized store's
    re-download calls this after a HEAD has proved its copy out of
    date: a refresh through a caching fetcher must not be answered by
    the very entry the HEAD invalidated. *)
