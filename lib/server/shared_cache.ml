(* The shared page-cache tier of the concurrent query server.

   All resident queries fetch through one {!Websim.Fetcher.t}, so its
   LRU is the wire-level single-flight table: the first query to need
   a URL pays the network GET, every later request — from the same
   query or any other — is a cache hit. On top of that this module
   keeps two things:

   - the accounting that *proves* the sharing: per query, the distinct
     URLs that query requested, and globally the distinct URLs that
     went to the wire, so the ledger can state

         cross_query_hits = sum_per_query - distinct_gets

     — the number of page fetches the workload saved by running behind
     one cache instead of one cache per query. The wire set is kept in
     first-request order, which makes it comparable (sorted) against
     the union of isolated per-query GET sets in the QCheck property.

   - an extracted-tuple cache, sharded by URL hash with one mutex per
     shard: wrapping a page (HTML parse + scope-aware extraction) is
     paid once per distinct (scheme, url), not once per requesting
     query, and prefetched windows are extracted in parallel on the
     {!Pool} with each worker publishing into its shard under the
     stripe lock. Extraction is pure, so the shard contents are
     independent of which domain wrote an entry first; the lock
     acquisition/contention counters exist to *measure* the striping,
     not to order anything.

   Scale note: per-query URL sets are bitsets over a cache-local dense
   URL interning, not string hash tables — at 10^3 queries over a
   10^5-page site that is ~12 KiB per query instead of megabytes of
   string buckets. URL ids are assigned on the scheduler thread in
   first-request order, so they are deterministic. *)

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

type shard = {
  lock : Mutex.t;
  tuples : (string, Adm.Value.tuple) Hashtbl.t;
      (* key: scheme ^ "\x00" ^ url; successes only — failures are
         transient (retries, breaker) and re-consult the fetch engine *)
  wire : (string, unit) Hashtbl.t; (* this shard's slice of the wire set *)
  mutable acquisitions : int; (* lock takes, counted under the lock *)
  contested : int Atomic.t; (* takes that found the lock held *)
}

type t = {
  fetcher : Websim.Fetcher.t;
  pool : Pool.t option; (* parallel window extraction when present *)
  shards : shard array; (* power-of-two length *)
  mutable wire_count : int;
  mutable wire_rev : string list; (* wire set, newest first *)
  url_ids : (string, int) Hashtbl.t; (* cache-local dense URL interning *)
  mutable urls : string array; (* id -> url, [0, n_urls) *)
  mutable n_urls : int;
  queries : (int, Bitset.t) Hashtbl.t;
  mutable cross_hits : int;
  mutable views : Webviews.Viewstore.t option;
      (* registered-view store resident queries may answer from *)
  mutable view_answerer : Webviews.Exec.views option;
      (* the executor-facing lens over [views] (may carry wire gates) *)
}

let default_shards = 16

let make_shard () =
  {
    lock = Mutex.create ();
    tuples = Hashtbl.create 256;
    wire = Hashtbl.create 256;
    acquisitions = 0;
    contested = Atomic.make 0;
  }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let wrap ?(shards = default_shards) ?pool fetcher =
  let n = pow2_at_least (max 1 shards) 1 in
  {
    fetcher;
    pool;
    shards = Array.init n (fun _ -> make_shard ());
    wire_count = 0;
    wire_rev = [];
    url_ids = Hashtbl.create 1024;
    urls = Array.make 1024 "";
    n_urls = 0;
    queries = Hashtbl.create 16;
    cross_hits = 0;
    views = None;
    view_answerer = None;
  }

let create ?shards ?pool ?config ?netmodel http =
  wrap ?shards ?pool (Websim.Fetcher.create ?config ?netmodel http)

let fetcher t = t.fetcher
let report t = Websim.Fetcher.report t.fetcher
let shard_count t = Array.length t.shards

(* Attach a registered-view store so resident queries can answer from
   it: the scheduler lowers [External] view occurrences to [View_scan]
   and resolves them through [answerer]. The caller may pass an
   answerer wrapped with its own wire gates (a churn runtime's budget);
   by default scans revalidate under the store's own head budget. *)
let attach_views ?answerer t vs =
  t.views <- Some vs;
  t.view_answerer <-
    Some
      (match answerer with
      | Some a -> a
      | None -> Webviews.Viewstore.answerer vs)

let views t = t.views
let view_answerer t = t.view_answerer

(* FNV-1a: stable across runs, unlike Hashtbl.hash no dependence on
   stdlib internals, and cheap enough for the fetch path. *)
let url_hash url =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFFFFFFFFF) url;
  !h land max_int

let shard_of t url = t.shards.(url_hash url land (Array.length t.shards - 1))

let with_shard shard f =
  if not (Mutex.try_lock shard.lock) then begin
    Atomic.incr shard.contested;
    Mutex.lock shard.lock
  end;
  shard.acquisitions <- shard.acquisitions + 1;
  let r = f () in
  Mutex.unlock shard.lock;
  r

(* Dense URL id, assigned at first sight (scheduler thread only). *)
let url_id t url =
  match Hashtbl.find_opt t.url_ids url with
  | Some id -> id
  | None ->
    let id = t.n_urls in
    if id >= Array.length t.urls then begin
      let grown = Array.make (2 * Array.length t.urls) "" in
      Array.blit t.urls 0 grown 0 t.n_urls;
      t.urls <- grown
    end;
    t.urls.(id) <- url;
    t.n_urls <- id + 1;
    Hashtbl.replace t.url_ids url id;
    id

let query_set t qid =
  match Hashtbl.find_opt t.queries qid with
  | Some set -> set
  | None ->
    let set = Bitset.create () in
    Hashtbl.replace t.queries qid set;
    set

(* Record that [query] needs [url]. Distinctness is per query: a query
   re-requesting its own URL is ordinary cache behaviour, not sharing.
   A URL another query already put on the wire counts as one
   cross-query hit for this query. *)
let note t ~query url =
  let set = query_set t query in
  if Bitset.add set (url_id t url) then begin
    let shard = shard_of t url in
    let fresh =
      with_shard shard (fun () ->
          if Hashtbl.mem shard.wire url then false
          else begin
            Hashtbl.replace shard.wire url ();
            true
          end)
    in
    if fresh then begin
      t.wire_count <- t.wire_count + 1;
      t.wire_rev <- url :: t.wire_rev
    end
    else t.cross_hits <- t.cross_hits + 1
  end

let get t ~query url =
  note t ~query url;
  Websim.Fetcher.get t.fetcher url

let prefetch t ~query urls =
  List.iter (note t ~query) urls;
  Websim.Fetcher.prefetch t.fetcher urls

(* ------------------------------------------------------------------ *)
(* The extracted-tuple tier                                            *)
(* ------------------------------------------------------------------ *)

let tuple_key ~scheme ~url = scheme ^ "\x00" ^ url

let find_tuple t ~scheme ~url =
  let shard = shard_of t url in
  with_shard shard (fun () -> Hashtbl.find_opt shard.tuples (tuple_key ~scheme ~url))

let store_tuple t ~scheme ~url tuple =
  let shard = shard_of t url in
  with_shard shard (fun () -> Hashtbl.replace shard.tuples (tuple_key ~scheme ~url) tuple)

(* Drop one (scheme, url) from the tuple tier and the page LRU, so the
   next fetch re-downloads and re-extracts. The maintenance lane calls
   this when it proves a cached page changed or vanished. *)
let invalidate t ~scheme ~url =
  let shard = shard_of t url in
  with_shard shard (fun () -> Hashtbl.remove shard.tuples (tuple_key ~scheme ~url));
  Websim.Fetcher.invalidate t.fetcher url

type tuple_fetched =
  | Tuple of Adm.Value.tuple
  | Absent (* the page does not exist *)
  | Unreachable (* transport failed after retries, or breaker open *)

(* Fetch + wrap, through the tuple cache. The network half must run on
   the scheduler thread (it advances the simulated clock). *)
let fetch_tuple t ~query (schema : Adm.Schema.t) ~scheme ~url =
  match find_tuple t ~scheme ~url with
  | Some cached ->
    note t ~query url;
    (* the page access still counts for the ledger *)
    Tuple cached
  | None -> (
    match get t ~query url with
    | Websim.Fetcher.Fetched page ->
      let ps = Adm.Schema.find_scheme_exn schema scheme in
      let tuple = Websim.Wrapper.extract ps ~url page.Websim.Fetcher.body in
      store_tuple t ~scheme ~url tuple;
      Tuple tuple
    | Websim.Fetcher.Absent -> Absent
    | Websim.Fetcher.Unreachable -> Unreachable)

(* Prefetch a window and extract the fresh pages, on the pool when one
   is attached. Bodies are read out of the fetch engine's cache on the
   scheduler thread (cache reads touch the LRU order and must not
   race); extraction — the HTML parsing — is pure and fans out, each
   worker publishing its tuple under the shard stripe lock. *)
let prefetch_extract t ~query (schema : Adm.Schema.t) ~scheme urls =
  prefetch t ~query urls;
  match t.pool with
  | None -> ()
  | Some pool ->
    let ps = Adm.Schema.find_scheme_exn schema scheme in
    let fresh =
      List.filter_map
        (fun url ->
          match find_tuple t ~scheme ~url with
          | Some _ -> None
          | None -> (
            (* read-only peek: failed or evicted pages are left for the
               fetch path, which charges them exactly as a pool-less
               run would *)
            match Websim.Fetcher.cached_body t.fetcher url with
            | Some body -> Some (url, body)
            | None -> None))
        urls
    in
    if fresh <> [] then
      ignore
        (Pool.map pool
           (fun (url, body) ->
             store_tuple t ~scheme ~url (Websim.Wrapper.extract ps ~url body))
           fresh)

(* The per-query page source: same wrapper protocol as
   [Eval.fetcher_source], routed through the shared engine with the
   query's identity attached for the ledger. *)
let source t ~query (schema : Adm.Schema.t) : Webviews.Eval.source =
  let fetch ~scheme ~url =
    match fetch_tuple t ~query schema ~scheme ~url with
    | Tuple tuple -> Some tuple
    | Absent | Unreachable -> None
  in
  {
    Webviews.Eval.fetch;
    prefetch = (fun ~scheme urls -> prefetch_extract t ~query schema ~scheme urls);
    window = Websim.Fetcher.window t.fetcher;
  }

let distinct_gets t = t.wire_count
let distinct_get_set t = List.rev t.wire_rev

let query_get_set t ~query =
  match Hashtbl.find_opt t.queries query with
  | None -> []
  | Some set ->
    let acc = ref [] in
    Bitset.iter (fun id -> acc := t.urls.(id) :: !acc) set;
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
    Hashtbl.fold (fun qid set acc -> (qid, Bitset.cardinal set) :: acc) t.queries []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let sum_per_query = List.fold_left (fun acc (_, n) -> acc + n) 0 per_query in
  let distinct_gets = t.wire_count in
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

(* Striping report: how hard each stripe lock was worked, and whether
   anything ever waited on one. *)
type contention = {
  shards : int;
  lock_acquisitions : int;
  lock_contested : int;
  tuples_cached : int;
  max_shard_tuples : int;
}

let contention (t : t) =
  let acq = ref 0 and con = ref 0 and tup = ref 0 and mx = ref 0 in
  Array.iter
    (fun s ->
      acq := !acq + s.acquisitions;
      con := !con + Atomic.get s.contested;
      let n = Hashtbl.length s.tuples in
      tup := !tup + n;
      if n > !mx then mx := n)
    t.shards;
  {
    shards = Array.length t.shards;
    lock_acquisitions = !acq;
    lock_contested = !con;
    tuples_cached = !tup;
    max_shard_tuples = !mx;
  }

let pp_contention ppf c =
  Fmt.pf ppf "@[<v>shards: %d@,lock acquisitions: %d@,contested: %d@,tuples cached: %d (max/shard %d)@]"
    c.shards c.lock_acquisitions c.lock_contested c.tuples_cached c.max_shard_tuples
