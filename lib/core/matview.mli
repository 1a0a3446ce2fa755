(** Materialized views over the Web (paper Section 8). The whole ADM
    representation of the site is stored locally, one page-relation
    per page-scheme, with per-page access dates. Queries are planned
    by Algorithm 1 and evaluated over the local store; each page is
    checked with a light connection (HEAD) before its tuple is used,
    and re-downloaded only when it changed — Function 2 (URLCheck) and
    Algorithm 3 of the paper. Vanished links are deferred to the
    CheckMissing structure and purged by an off-line sweep. *)

type status = Unchecked | Checked | New | Missing

type counters = {
  mutable light_connections : int;
  mutable downloads : int;
  mutable local_hits : int;
  mutable new_pages : int;
  mutable missing_pages : int;
}

type t

val materialize : ?fetcher:Websim.Fetcher.t -> Adm.Schema.t -> Websim.Http.t -> t
(** Navigate the whole site once and store every page tuple. All
    network traffic goes through [fetcher] (default: a cache-less
    pass-through over [http] — the store's own HEAD protocol is the
    only freshness layer). Pass a fetcher layered on a {!Websim.Netmodel}
    to run the store over a faulty network: transient failures are
    retried, and when retries are exhausted the store serves its stale
    tuple instead of dropping the row, defers purging, and keeps
    unreachable pages in the CheckMissing backlog. *)

val fetcher : t -> Websim.Fetcher.t
val counters : t -> counters
val reset_counters : t -> unit
val stored_tuple : t -> scheme:string -> url:string -> Adm.Value.tuple option
val stored_pages : t -> string -> int
val total_pages : t -> int
val check_missing_backlog : t -> int
val status_of : t -> string -> status

val url_check : t -> scheme:string -> url:string -> Adm.Value.tuple option
(** Function 2: return the up-to-date tuple, downloading only when the
    light connection reports a change; [None] when the page is gone or
    flagged missing. The light connection's outcome is handled exactly
    as {!revalidate} handles it — a HEAD proving the entry current
    bumps its access date — and the per-query status flag records the
    result. *)

val now : t -> int
(** The site clock the store's access dates are measured against. *)

val entry_date : t -> scheme:string -> url:string -> int option
(** Access date (site-clock ticks) of the stored entry, if any. *)

val iter_entries : t -> (scheme:string -> url:string -> access_date:int -> unit) -> unit
(** Iterate every stored entry (unspecified order — sort before acting
    when determinism matters). *)

val iter_scheme : t -> string -> (url:string -> access_date:int -> unit) -> unit
(** {!iter_entries} over one page-scheme's entries. *)

val schemes : t -> string list
(** The page-schemes the store holds a table for (unspecified order). *)

val tuple_version : t -> string -> int
(** A counter per page-scheme, bumped whenever a tuple of that scheme
    is added, removed or replaced by a different tuple — never when
    only an access date moves (a current HEAD, or a re-download that
    extracts the tuple already stored). Anything computed from a
    scheme's stored tuples is still exact while its version is
    unchanged. *)

val revalidate :
  t -> scheme:string -> url:string -> [ `Current | `Refreshed | `Gone | `Unreachable | `Unknown ]
(** Maintenance-side URLCheck on one stored entry: a light connection,
    then a re-download only on a proven change ([`Refreshed], returned
    only when the GET really fetched the page). [`Current] bumps the
    access date; [`Gone] (404) drops the entry and enqueues it on
    CheckMissing for the sweep, exactly as {!url_check} does;
    [`Unreachable] = the HEAD, or the GET a change forced, could not
    get through, and the entry is kept as it was; [`Unknown] = nothing
    stored under that key. Per-query status flags are untouched. *)

val revalidate_batch :
  t ->
  (string * string) list ->
  (string * string * [ `Current | `Refreshed | `Gone | `Unreachable | `Unknown ]) list
(** {!revalidate} over a [(scheme, url)] batch: one windowed HEAD
    batch through the fetcher — the light-connection latencies overlap
    as a navigation's downloads do — then the per-entry bookkeeping.
    Keys with nothing stored come back [`Unknown] without wire
    traffic. *)

val download_entry : t -> scheme:string -> url:string -> Adm.Value.tuple option
(** Force-refresh one page: a wire GET (any fetcher-cached copy is
    invalidated first), wrap, store. Also admits a page not yet in the
    store. [None] when the page is definitively gone; when the GET
    cannot get through, the stored tuple (if any) is returned stale. *)

val query : ?max_age:int -> t -> Nalg.expr -> Adm.Relation.t
(** Algorithm 3: reset the per-query status flags and evaluate.
    [max_age] is a staleness tolerance in simulated clock ticks —
    entries younger than it are used without any connection (the
    paper's "controlled level of obsolescence"). *)

val eval_stored : t -> Nalg.expr -> Adm.Relation.t * int
(** Evaluate a plan over the stored tuples alone: no connection, no
    per-query status flag, and a link whose target is not stored is
    skipped. Returns the result and the number of stored pages read;
    each of them also counts as a local hit. *)

type query_report = {
  result : Adm.Relation.t;
  light_connections : int;
  downloads : int;
  local_hits : int;
}

val query_counted : ?max_age:int -> t -> Nalg.expr -> query_report

val sweep_limited : t -> limit:int -> int * int
(** Process at most [limit] CheckMissing entries (oldest kept at the
    back of the backlog list); returns [(purged, processed)]. The
    budgeted form of {!offline_sweep} used by the maintenance lane. *)

val offline_sweep : t -> int
(** Process CheckMissing off-line; returns the number of pages that
    were actually gone and got purged. Pages the store's fetcher
    reports [Unreachable] cannot be told gone from down: they are kept
    in the backlog for the next sweep instead of being purged. *)

val full_refresh : t -> unit
(** Recrawl the site and replace the store (the paper's periodic
    whole-view consistency pass). *)
