(* The resilient fetch engine: every page access of the evaluator, the
   crawler and the materialized store goes through here. Over the
   perfect transport it is a strict pass-through — same GETs, same
   HEADs, same bytes, in the same order — but layered on a {!Netmodel}
   it adds what querying the live web needs:

   - batched fetch windows: a navigation submits all distinct link
     URLs as one batch whose simulated latencies overlap under a
     bounded in-flight width, so pointer-join and pointer-chase plans
     now also differ in simulated wall-clock time, not just page count;
   - request deduplication/coalescing within a batch;
   - retry with exponential backoff and deterministic jitter;
   - a per-site circuit breaker that fails fast during an outage;
   - a bounded LRU page cache that deduplicates downloads and never
     revalidates: the materialized store's HEAD protocol
     ([Webviews.Matview]) is the only freshness layer.

   Every decision is driven by the seeded model, so runs replay
   exactly; structured counters expose the work done. *)

type page = { body : string; last_modified : int }

type 'a fetched =
  | Fetched of 'a
  | Absent (* definitive 404 *)
  | Unreachable (* retries exhausted or circuit open *)

type config = {
  window : int; (* in-flight width of a batch; 1 = sequential *)
  retries : int; (* extra attempts after the first *)
  backoff_ms : float; (* first retry delay *)
  backoff_factor : float; (* delay multiplier per further retry *)
  backoff_jitter : float; (* delay noise, fraction of the delay *)
  breaker_threshold : int; (* consecutive dead requests to trip; 0 = off *)
  breaker_cooldown_ms : float; (* open-state duration before a probe *)
  cache_capacity : int; (* LRU entries; 0 = no cache *)
}

let config ?(window = 8) ?(retries = 3) ?(backoff_ms = 50.0) ?(backoff_factor = 2.0)
    ?(backoff_jitter = 0.25) ?(breaker_threshold = 8) ?(breaker_cooldown_ms = 5000.0)
    ?(cache_capacity = 1024) () =
  {
    window = max 1 window;
    retries = max 0 retries;
    backoff_ms;
    backoff_factor;
    backoff_jitter;
    breaker_threshold;
    breaker_cooldown_ms;
    cache_capacity = max 0 cache_capacity;
  }

let default_config = config ()

type counters = {
  mutable requests : int; (* logical get/head calls, one per distinct URL of a batch *)
  mutable attempts : int; (* exchanges tried on the wire *)
  mutable retries : int; (* attempts beyond the first *)
  mutable gave_up : int; (* requests that exhausted their retries *)
  mutable breaker_trips : int;
  mutable breaker_fastfails : int; (* requests rejected while open *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable batches : int;
  mutable coalesced : int; (* duplicate URLs removed from batches *)
  mutable elapsed_ms : float; (* simulated wall-clock spent fetching *)
}

let fresh_counters () =
  {
    requests = 0;
    attempts = 0;
    retries = 0;
    gave_up = 0;
    breaker_trips = 0;
    breaker_fastfails = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    batches = 0;
    coalesced = 0;
    elapsed_ms = 0.0;
  }

(* ---- the merged fetch report ---- *)

(* The wire ledger ({!Http.stats}) and the engine ledger ([counters])
   overlap: [counters.attempts] is the engine-side view of the wire's
   GET/HEAD totals. [report] merges both into one record; exchanges
   that died on the wire are counted once, in [Http.stats.failed]. *)

type report = {
  (* wire (what crossed the network, from Http.stats) *)
  gets : int;
  heads : int;
  not_found : int;
  bytes : int;
  head_bytes : int;
  (* engine (what the fetch engine did to get there) *)
  requests : int;
  attempts : int;
  retries : int;
  failed : int; (* the one truth: exchanges that died on the wire *)
  gave_up : int;
  breaker_trips : int;
  breaker_fastfails : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  batches : int;
  coalesced : int;
  elapsed_ms : float;
}

let merge_report (s : Http.stats) (c : counters) : report =
  {
    gets = s.Http.gets;
    heads = s.Http.heads;
    not_found = s.Http.not_found;
    bytes = s.Http.bytes;
    head_bytes = s.Http.head_bytes;
    requests = c.requests;
    attempts = c.attempts;
    retries = c.retries;
    failed = s.Http.failed;
    gave_up = c.gave_up;
    breaker_trips = c.breaker_trips;
    breaker_fastfails = c.breaker_fastfails;
    cache_hits = c.cache_hits;
    cache_misses = c.cache_misses;
    cache_evictions = c.cache_evictions;
    batches = c.batches;
    coalesced = c.coalesced;
    elapsed_ms = c.elapsed_ms;
  }

let report_diff ~(before : report) ~(after : report) : report =
  {
    gets = after.gets - before.gets;
    heads = after.heads - before.heads;
    not_found = after.not_found - before.not_found;
    bytes = after.bytes - before.bytes;
    head_bytes = after.head_bytes - before.head_bytes;
    requests = after.requests - before.requests;
    attempts = after.attempts - before.attempts;
    retries = after.retries - before.retries;
    failed = after.failed - before.failed;
    gave_up = after.gave_up - before.gave_up;
    breaker_trips = after.breaker_trips - before.breaker_trips;
    breaker_fastfails = after.breaker_fastfails - before.breaker_fastfails;
    cache_hits = after.cache_hits - before.cache_hits;
    cache_misses = after.cache_misses - before.cache_misses;
    cache_evictions = after.cache_evictions - before.cache_evictions;
    batches = after.batches - before.batches;
    coalesced = after.coalesced - before.coalesced;
    elapsed_ms = after.elapsed_ms -. before.elapsed_ms;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "wire: %d GETs, %d HEADs, %d 404s, %d+%d bytes, %d failed@,\
     engine: %d requests, %d attempts (%d retries, %d gave up), cache %d/%d \
     (evict %d), %d batches (%d coalesced), breaker %d trips \
     (%d fastfails)@,elapsed: %.1f ms"
    r.gets r.heads r.not_found r.bytes r.head_bytes r.failed r.requests
    r.attempts r.retries r.gave_up r.cache_hits
    (r.cache_hits + r.cache_misses)
    r.cache_evictions r.batches r.coalesced r.breaker_trips
    r.breaker_fastfails r.elapsed_ms

(* ------------------------------------------------------------------ *)
(* Bounded LRU page cache                                              *)
(* ------------------------------------------------------------------ *)

type entry = Live of page | Gone (* negative entries cache 404s too *)

type node = {
  n_url : string;
  mutable entry : entry;
  mutable prev : node option;
  mutable next : node option;
}

type cache = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
}

let cache_create capacity = { capacity; table = Hashtbl.create 64; mru = None; lru = None }

let cache_unlink c n =
  (match n.prev with Some p -> p.next <- n.next | None -> c.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let cache_push_front c n =
  n.prev <- None;
  n.next <- c.mru;
  (match c.mru with Some f -> f.prev <- Some n | None -> c.lru <- Some n);
  c.mru <- Some n

let cache_touch c n =
  cache_unlink c n;
  cache_push_front c n

(* ------------------------------------------------------------------ *)
(* The fetcher                                                         *)
(* ------------------------------------------------------------------ *)

type breaker_state = Closed | Open_until of float | Half_open

type t = {
  http : Http.t;
  net : Netmodel.t option; (* None = the perfect network *)
  cfg : config;
  counters : counters;
  cache : cache;
  mutable breaker : breaker_state;
  mutable consecutive_dead : int; (* dead requests since last success *)
}

let create ?(config = default_config) ?netmodel http =
  {
    http;
    net = netmodel;
    cfg = config;
    counters = fresh_counters ();
    cache = cache_create config.cache_capacity;
    breaker = Closed;
    consecutive_dead = 0;
  }

let http t = t.http
let netmodel t = t.net
let fetcher_config t = t.cfg
let window t = t.cfg.window
let caching t = t.cfg.cache_capacity > 0
let elapsed_ms t = t.counters.elapsed_ms
let now_ms t = match t.net with Some nm -> Netmodel.now_ms nm | None -> 0.0
(* ---- retry loop (pure in simulated time: returns its duration) ---- *)

let backoff_delay t nm ~url ~attempt =
  let base = t.cfg.backoff_ms *. (t.cfg.backoff_factor ** float_of_int (attempt - 1)) in
  let u = Netmodel.uniform nm ~salt:"backoff" ~url ~attempt in
  base *. (1.0 +. (t.cfg.backoff_jitter *. ((2.0 *. u) -. 1.0)))

(* One full GET request: attempts + retries, without cache or breaker.
   Returns the result and the simulated duration (latencies, penalties
   and backoff waits). Over the perfect network this is exactly one
   [Http.get]. *)
let run_get t url : page fetched * float =
  match t.net with
  | None -> (
    t.counters.attempts <- t.counters.attempts + 1;
    match Http.get t.http url with
    | Some (body, last_modified) -> (Fetched { body; last_modified }, 0.0)
    | None -> (Absent, 0.0))
  | Some nm ->
    let rec go attempt dur =
      t.counters.attempts <- t.counters.attempts + 1;
      if attempt > 1 then t.counters.retries <- t.counters.retries + 1;
      let fail outcome dur =
        Http.record_failed t.http;
        if attempt > t.cfg.retries then begin
          t.counters.gave_up <- t.counters.gave_up + 1;
          (Unreachable, dur)
        end
        else begin
          ignore outcome;
          go (attempt + 1) (dur +. backoff_delay t nm ~url ~attempt)
        end
      in
      match Netmodel.fault nm ~url ~attempt with
      | Netmodel.Ok_response -> (
        match Http.get t.http url with
        | Some (body, last_modified) ->
          let lat =
            Netmodel.latency_ms nm ~kind:`Get ~url ~attempt ~bytes:(String.length body)
          in
          (Fetched { body; last_modified }, dur +. lat)
        | None -> (Absent, dur +. Netmodel.latency_ms nm ~kind:`Get ~url ~attempt ~bytes:0))
      | Netmodel.Truncated keep as o -> (
        (* the server answered but the transfer broke off: the partial
           bytes crossed the wire and are charged, then we retry *)
        match Http.get_partial t.http url ~keep with
        | None -> (Absent, dur +. Netmodel.latency_ms nm ~kind:`Get ~url ~attempt ~bytes:0)
        | Some (partial, _) ->
          let lat =
            Netmodel.latency_ms nm ~kind:`Get ~url ~attempt ~bytes:(String.length partial)
          in
          fail o (dur +. lat))
      | (Netmodel.Server_error _ | Netmodel.Timed_out) as o ->
        fail o (dur +. Netmodel.penalty_ms nm ~url ~attempt o)
    in
    go 1 0.0

let run_head t url : int fetched * float =
  match t.net with
  | None -> (
    t.counters.attempts <- t.counters.attempts + 1;
    match Http.head t.http url with
    | Some lm -> (Fetched lm, 0.0)
    | None -> (Absent, 0.0))
  | Some nm ->
    let rec go attempt dur =
      t.counters.attempts <- t.counters.attempts + 1;
      if attempt > 1 then t.counters.retries <- t.counters.retries + 1;
      match Netmodel.fault nm ~url ~attempt with
      | Netmodel.Ok_response -> (
        let lat = Netmodel.latency_ms nm ~kind:`Head ~url ~attempt ~bytes:0 in
        match Http.head t.http url with
        | Some lm -> (Fetched lm, dur +. lat)
        | None -> (Absent, dur +. lat))
      | (Netmodel.Server_error _ | Netmodel.Timed_out | Netmodel.Truncated _) as o ->
        (* a header either arrives or it does not: any fault kills it *)
        Http.record_failed t.http;
        if attempt > t.cfg.retries then begin
          t.counters.gave_up <- t.counters.gave_up + 1;
          (Unreachable, dur +. Netmodel.penalty_ms nm ~url ~attempt o)
        end
        else
          go (attempt + 1)
            (dur +. Netmodel.penalty_ms nm ~url ~attempt o +. backoff_delay t nm ~url ~attempt)
    in
    go 1 0.0

(* ---- circuit breaker (one per fetcher = per site) ---- *)

let breaker_allows t =
  match t.breaker with
  | Closed | Half_open -> true
  | Open_until until when now_ms t >= until ->
    t.breaker <- Half_open; (* cooled down: let one probe through *)
    true
  | Open_until _ ->
    t.counters.breaker_fastfails <- t.counters.breaker_fastfails + 1;
    false

let breaker_record t ~dead =
  if not dead then begin
    t.consecutive_dead <- 0;
    t.breaker <- Closed
  end
  else begin
    t.consecutive_dead <- t.consecutive_dead + 1;
    let trip =
      t.cfg.breaker_threshold > 0
      && (t.breaker = Half_open || t.consecutive_dead >= t.cfg.breaker_threshold)
    in
    if trip then begin
      t.counters.breaker_trips <- t.counters.breaker_trips + 1;
      t.breaker <- Open_until (now_ms t +. t.cfg.breaker_cooldown_ms)
    end
  end

let breaker_open t = match t.breaker with Open_until _ -> true | Closed | Half_open -> false

(* Operational kill-switch: force the circuit open for [for_ms] of
   simulated time, as an operator would to shed load from a site known
   to be down. Requests fast-fail until the cooldown elapses, then one
   probe goes through (Half-open) as for an organically tripped
   breaker. *)
let open_breaker t ~for_ms =
  t.counters.breaker_trips <- t.counters.breaker_trips + 1;
  t.breaker <- Open_until (now_ms t +. for_ms)

(* ---- cache ---- *)

let cache_store t url value =
  if caching t then begin
    let c = t.cache in
    (match Hashtbl.find_opt c.table url with
    | Some n ->
      n.entry <- value;
      cache_touch c n
    | None ->
      let n = { n_url = url; entry = value; prev = None; next = None } in
      Hashtbl.replace c.table url n;
      cache_push_front c n);
    while Hashtbl.length c.table > c.capacity do
      match c.lru with
      | None -> Hashtbl.reset c.table (* unreachable: table non-empty *)
      | Some victim ->
        cache_unlink c victim;
        Hashtbl.remove c.table victim.n_url;
        t.counters.cache_evictions <- t.counters.cache_evictions + 1
    done
  end

let entry_result = function Live p -> Fetched p | Gone -> Absent

let spend t ms =
  (match t.net with Some nm -> Netmodel.advance nm ms | None -> ());
  t.counters.elapsed_ms <- t.counters.elapsed_ms +. ms

(* Serve [url] from the cache: [None] = not cached. A cached page,
   live or 404, is trusted for the fetcher's lifetime. *)
let cache_lookup t url =
  if not (caching t) then None
  else
    match Hashtbl.find_opt t.cache.table url with
    | None -> None
    | Some n ->
      cache_touch t.cache n;
      t.counters.cache_hits <- t.counters.cache_hits + 1;
      Some (entry_result n.entry)

(* One page download through cache, breaker and retries: the result
   and its simulated duration (0 when served without the wire). The
   caller advances the clock. *)
let request_get t url : page fetched * float =
  match cache_lookup t url with
  | Some r -> (r, 0.0)
  | None ->
    if caching t then t.counters.cache_misses <- t.counters.cache_misses + 1;
    if not (breaker_allows t) then (Unreachable, 0.0)
    else begin
      let result, dur = run_get t url in
      breaker_record t ~dead:(result = Unreachable);
      (match result with
      | Fetched p -> cache_store t url (Live p)
      | Absent -> cache_store t url Gone
      | Unreachable -> ());
      (result, dur)
    end

(* One light connection through breaker and retries (never cached). *)
let request_head t url : int fetched * float =
  if not (breaker_allows t) then (Unreachable, 0.0)
  else begin
    let result, dur = run_head t url in
    breaker_record t ~dead:(result = Unreachable);
    (result, dur)
  end

(* ------------------------------------------------------------------ *)
(* Public fetch operations                                             *)
(* ------------------------------------------------------------------ *)

let single t request url =
  t.counters.requests <- t.counters.requests + 1;
  let result, dur = request t url in
  spend t dur;
  result

let get t url = single t request_get url
let head t url = single t request_head url

let distinct_urls urls =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun u ->
      if Hashtbl.mem seen u then false
      else begin
        Hashtbl.add seen u ();
        true
      end)
    urls

(* One batch of [urls]: one logical request per distinct URL, the
   duplicates counted as coalesced. The distinct URLs are submitted
   together and their simulated latencies overlap under the
   configured in-flight width — list scheduling onto [window] slots,
   each request (including its retries and backoff waits) occupying
   one slot. The batch costs its makespan, not the sum of its
   latencies. Results are keyed by URL in first-seen order. *)
let batch t request urls =
  let distinct = distinct_urls urls in
  let n = List.length distinct in
  t.counters.batches <- t.counters.batches + 1;
  t.counters.requests <- t.counters.requests + n;
  t.counters.coalesced <- t.counters.coalesced + (List.length urls - n);
  let slots = Array.make t.cfg.window 0.0 in
  let results =
    List.map
      (fun url ->
        let result, dur = request t url in
        let s = ref 0 in
        Array.iteri (fun i v -> if v < slots.(!s) then s := i) slots;
        slots.(!s) <- slots.(!s) +. dur;
        (url, result))
      distinct
  in
  spend t (Array.fold_left Float.max 0.0 slots);
  results

let get_batch t urls = batch t request_get urls

(* HEADs are never cached; each request passes the breaker
   individually, so a mid-batch trip fast-fails the rest. The
   materialized store's maintenance revalidation sweeps through
   this. *)
let head_batch t urls = batch t request_head urls

(* Warm the cache for an upcoming navigation. A no-op without a cache:
   prefetching would only duplicate the per-URL fetches. *)
let prefetch t urls = if caching t && urls <> [] then ignore (get_batch t urls)

(* Drop [url] from the page cache so the next access goes to the wire.
   Needed by the materialized store: once a HEAD has proved the page
   changed, re-downloading through a caching fetcher must not serve
   the very copy the HEAD just invalidated. *)
let invalidate t url =
  match Hashtbl.find_opt t.cache.table url with
  | None -> ()
  | Some n ->
    cache_unlink t.cache n;
    Hashtbl.remove t.cache.table url

let report t : report = merge_report (Http.snapshot t.http) t.counters
