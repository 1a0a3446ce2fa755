(* The shared page-cache tier of the concurrent query server.

   All resident queries fetch through one {!Websim.Fetcher.t}, so its
   LRU is the wire-level single-flight table: the first query to need
   a URL pays the network GET, every later request — from the same
   query or any other — is a cache hit. On top of that this module
   keeps two things, both indexed by a dense URL id:

   - the accounting that *proves* the sharing: per query, the distinct
     URLs that query requested, and globally the distinct URLs that
     went to the wire, so the ledger can state

         cross_query_hits = sum_per_query - distinct_gets

     — the number of page fetches the workload saved by running behind
     one cache instead of one cache per query. A URL gets its id at
     its first request, so the interned URLs *are* the wire set, in
     first-request order, which makes it comparable (sorted) against
     the union of isolated per-query GET sets in the QCheck property.

   - the extracted-tuple store: wrapping a page (HTML parse +
     scope-aware extraction) is paid once per distinct (scheme, url),
     and a page whose tuple is stored never goes back to the fetch
     engine — not even when the bounded LRU has long evicted its body.
     The store is the first lookup of every read, so a prefetched
     window sends only its missing pages to the wire; their bodies are
     extracted on the {!Pool} when one is attached, the workers
     returning tuples through the order-preserving [Pool.map] and the
     scheduler thread storing them. Only the scheduler thread touches
     the store, so it takes no lock.

   Every read of a resident query comes through [source], the one page
   source over the cache: tuple store, then the shared engine, then —
   for a page the wire cannot deliver — the stale tuple of a
   materialized store when the caller passes one. Next to each query's
   URL set the cache counts the pages it served that query stale and
   the pages it lost, which the scheduler reads into the query's
   completeness report. The cache holds pages only: a query that scans
   a registered view carries the answerer on its own source.

   Nothing in the cache is ever invalidated: a stored tuple is trusted
   for the cache's lifetime, like the LRU's bodies beneath it. Reads
   over a changing site go through the materialized store's
   HEAD-then-GET protocol instead ({!Webviews.Matview}), which is the
   only freshness layer.

   Scale note: per-query URL sets are bitsets over the URL ids, not
   string hash tables — at 10^3 queries over a 10^5-page site that is
   ~12 KiB per query instead of megabytes of string buckets. Ids are
   assigned on the scheduler thread in first-request order, so they
   are deterministic. *)

(* Growable bitset over dense URL ids; cardinality tracked eagerly so
   the ledger never scans. *)
module Bitset = struct
  type t = { mutable bits : Bytes.t; mutable card : int }

  let create () = { bits = Bytes.make 64 '\000'; card = 0 }

  let ensure b i =
    let need = (i lsr 3) + 1 in
    if need > Bytes.length b.bits then begin
      let grown = Bytes.make (max need (2 * Bytes.length b.bits)) '\000' in
      Bytes.blit b.bits 0 grown 0 (Bytes.length b.bits);
      b.bits <- grown
    end

  (* Set bit [i]; true when it was not set before. *)
  let add b i =
    ensure b i;
    let byte = i lsr 3 and mask = 1 lsl (i land 7) in
    let c = Char.code (Bytes.unsafe_get b.bits byte) in
    if c land mask = 0 then begin
      Bytes.unsafe_set b.bits byte (Char.chr (c lor mask));
      b.card <- b.card + 1;
      true
    end
    else false

  let cardinal b = b.card

  let iter f b =
    for byte = 0 to Bytes.length b.bits - 1 do
      let c = Char.code (Bytes.unsafe_get b.bits byte) in
      if c <> 0 then
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
        done
    done
end

(* One query's share of the cache: the URLs it requested, and the
   pages its source served from the stale store or could not serve. *)
type query = { requested : Bitset.t; mutable stale : int; mutable missing : int }

type t = {
  fetcher : Websim.Fetcher.t;
  pool : Pool.t option; (* parallel window extraction when present *)
  url_ids : int Adm.String_tbl.t; (* URL -> id, assigned at first request *)
  mutable urls : string array; (* id -> url, [0, n_urls): the wire set *)
  mutable tuples : (string * Adm.Value.tuple) list array;
      (* id -> (scheme, tuple) entries; successes only — failures are
         transient (retries, breaker) and re-consult the fetch engine *)
  mutable n_urls : int;
  mutable tuples_cached : int;
  queries : (int, query) Hashtbl.t;
  mutable cross_hits : int;
}

let wrap ?pool fetcher =
  {
    fetcher;
    pool;
    url_ids = Adm.String_tbl.create 1024;
    urls = Array.make 1024 "";
    tuples = Array.make 1024 [];
    n_urls = 0;
    tuples_cached = 0;
    queries = Hashtbl.create 16;
    cross_hits = 0;
  }

let create ?pool ?config ?netmodel http =
  wrap ?pool (Websim.Fetcher.create ?config ?netmodel http)

let fetcher t = t.fetcher
let report t = Websim.Fetcher.report t.fetcher

(* Assign the next dense id to a URL seen for the first time. *)
let intern t url =
  let id = t.n_urls in
  if id >= Array.length t.urls then begin
    let cap = 2 * Array.length t.urls in
    let urls = Array.make cap "" and tuples = Array.make cap [] in
    Array.blit t.urls 0 urls 0 id;
    Array.blit t.tuples 0 tuples 0 id;
    t.urls <- urls;
    t.tuples <- tuples
  end;
  t.urls.(id) <- url;
  t.n_urls <- id + 1;
  Adm.String_tbl.replace t.url_ids url id;
  id

let query_state t qid =
  match Hashtbl.find_opt t.queries qid with
  | Some q -> q
  | None ->
    let q = { requested = Bitset.create (); stale = 0; missing = 0 } in
    Hashtbl.replace t.queries qid q;
    q

(* Record that [query] needs [url] and return the URL's id.
   Distinctness is per query: a query re-requesting its own URL is
   ordinary cache behaviour, not sharing. A URL another query already
   put on the wire counts as one cross-query hit for this query. *)
let note t ~query url =
  let id, on_wire =
    match Adm.String_tbl.find_opt t.url_ids url with
    | Some id -> (id, true)
    | None -> (intern t url, false)
  in
  if Bitset.add (query_state t query).requested id && on_wire then t.cross_hits <- t.cross_hits + 1;
  id

(* ------------------------------------------------------------------ *)
(* The extracted-tuple store                                           *)
(* ------------------------------------------------------------------ *)

let find_tuple t id ~scheme =
  let rec find = function
    | [] -> None
    | (s, tuple) :: rest -> if String.equal s scheme then Some tuple else find rest
  in
  find t.tuples.(id)

let store_tuple t id ~scheme tuple =
  t.tuples.(id) <- (scheme, tuple) :: t.tuples.(id);
  t.tuples_cached <- t.tuples_cached + 1

(* Prefetch a window: every URL counts for the ledger, but only the
   pages whose tuple is not stored go to the fetch engine, as one
   batch. The batch's fresh bodies are extracted — on the pool when
   one is attached; extraction is pure, so the workers only return
   tuples and this (scheduler) thread stores them. Failed pages are
   left for the per-page read, which charges them exactly as a
   cache-less read would. *)
let prefetch_extract t ~query (schema : Adm.Schema.t) ~scheme urls =
  let missing =
    List.filter (fun url -> Option.is_none (find_tuple t (note t ~query url) ~scheme)) urls
  in
  if missing <> [] && Websim.Fetcher.caching t.fetcher then begin
    let pages =
      List.filter_map
        (function
          | url, Websim.Fetcher.Fetched page -> Some (url, page.Websim.Fetcher.body)
          | _, (Websim.Fetcher.Absent | Websim.Fetcher.Unreachable) -> None)
        (Websim.Fetcher.get_batch t.fetcher missing)
    in
    let ps = Adm.Schema.find_scheme_exn schema scheme in
    let extract (url, body) = Websim.Wrapper.extract ps ~url body in
    let tuples =
      match t.pool with Some pool -> Pool.map pool extract pages | None -> List.map extract pages
    in
    List.iter2
      (fun (url, _) tuple -> store_tuple t (Adm.String_tbl.find t.url_ids url) ~scheme tuple)
      pages tuples
  end

(* The per-query page source: same wrapper protocol as
   [Eval.fetcher_source], routed through the shared engine with the
   query's identity attached for the ledger. A read looks in the tuple
   store first; the network half must run on the scheduler thread (it
   advances the simulated clock). A page the wire cannot deliver is
   served from the [stale] store when it holds the tuple; the query's
   stale and missing counts record each degraded read. *)
let source ?stale t ~query (schema : Adm.Schema.t) : Webviews.Eval.source =
  let fetch ~scheme ~url =
    let id = note t ~query url in
    match find_tuple t id ~scheme with
    | Some tuple -> Some tuple
    | None -> (
      match Websim.Fetcher.get t.fetcher url with
      | Websim.Fetcher.Fetched page ->
        let ps = Adm.Schema.find_scheme_exn schema scheme in
        let tuple = Websim.Wrapper.extract ps ~url page.Websim.Fetcher.body in
        store_tuple t id ~scheme tuple;
        Some tuple
      | failed -> (
        let q = query_state t query in
        let stored =
          match (failed, stale) with
          | Websim.Fetcher.Unreachable, Some store ->
            Webviews.Matview.stored_tuple store ~scheme ~url
          | _ -> None
        in
        match stored with
        | Some tuple ->
          q.stale <- q.stale + 1;
          Some tuple
        | None ->
          q.missing <- q.missing + 1;
          None))
  in
  {
    Webviews.Eval.fetch;
    prefetch = (fun ~scheme urls -> prefetch_extract t ~query schema ~scheme urls);
    window = Websim.Fetcher.window t.fetcher;
    views = None;
  }

let degraded t ~query =
  match Hashtbl.find_opt t.queries query with
  | Some q -> (q.stale, q.missing)
  | None -> (0, 0)

let distinct_gets t = t.n_urls
let distinct_get_set t = List.init t.n_urls (fun id -> t.urls.(id))

let query_get_set t ~query =
  match Hashtbl.find_opt t.queries query with
  | None -> []
  | Some q ->
    let acc = ref [] in
    Bitset.iter (fun id -> acc := t.urls.(id) :: !acc) q.requested;
    List.sort String.compare !acc

(* ------------------------------------------------------------------ *)
(* Ledgers                                                             *)
(* ------------------------------------------------------------------ *)

type ledger = {
  distinct_gets : int;
  sum_per_query : int;
  per_query : (int * int) list; (* qid, distinct URLs it requested *)
  cross_query_hits : int;
  sharing_ratio : float;
}

let ledger t =
  let per_query =
    Hashtbl.fold (fun qid q acc -> (qid, Bitset.cardinal q.requested) :: acc) t.queries []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let sum_per_query = List.fold_left (fun acc (_, n) -> acc + n) 0 per_query in
  let distinct_gets = t.n_urls in
  {
    distinct_gets;
    sum_per_query;
    per_query;
    cross_query_hits = t.cross_hits;
    sharing_ratio =
      (if sum_per_query = 0 then 1.0
       else float_of_int distinct_gets /. float_of_int sum_per_query);
  }

let pp_ledger ppf l =
  Fmt.pf ppf
    "@[<v>distinct URLs on the wire: %d@,\
     sum of per-query distinct URLs: %d@,\
     cross-query hits: %d@,\
     sharing ratio: %.3f (1.000 = no sharing)@]"
    l.distinct_gets l.sum_per_query l.cross_query_hits l.sharing_ratio

type contention = {
  shards : int;
  lock_acquisitions : int;
  lock_contested : int;
  tuples_cached : int;
  max_shard_tuples : int;
}

let contention (t : t) =
  {
    shards = 1;
    lock_acquisitions = 0;
    lock_contested = 0;
    tuples_cached = t.tuples_cached;
    max_shard_tuples = t.tuples_cached;
  }
