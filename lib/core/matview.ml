(* Materialized views over the Web (Section 8).

   The whole ADM representation of the site is materialized locally:
   one nested page-relation per page-scheme, each tuple stored with
   the date we accessed it. Queries are planned exactly as for
   virtual views (Algorithm 1) and evaluated over the local store;
   before a tuple is used, the corresponding page is checked with a
   light connection (HTTP HEAD) and re-downloaded only when it
   changed — Function 2 (URLCheck) and Algorithm 3 of the paper.

   URLs carry a per-query status flag: none, checked, new or missing.
   Links that disappeared are deferred to the CheckMissing structure
   and processed by an off-line sweep. *)

module Tbl = Adm.String_tbl

type status = Unchecked | Checked | New | Missing

type entry = { tuple : Adm.Value.tuple; access_date : int }

type counters = {
  mutable light_connections : int;
  mutable downloads : int;
  mutable local_hits : int;
  mutable new_pages : int;
  mutable missing_pages : int;
}

type t = {
  schema : Adm.Schema.t;
  http : Websim.Http.t;
  fetcher : Websim.Fetcher.t;
      (* all network traffic goes through the fetch engine; the
         default is a cache-less pass-through, so the store's own
         HEAD protocol stays the only freshness layer *)
  tables : entry Tbl.t Tbl.t; (* scheme -> url -> entry *)
  versions : int Tbl.t;
      (* scheme -> tuple version: bumped when a tuple is added,
         removed or replaced by a different one, never when only an
         access date moves *)
  status : status Tbl.t; (* url -> per-query flag *)
  mutable check_missing : (string * string) list; (* (url, scheme) *)
  mutable max_age : int option;
      (* staleness tolerance: entries younger than this (in simulated
         clock ticks) are used without even a light connection — the
         paper's "controlled level of obsolescence" *)
  counters : counters;
}

let counters t = t.counters

let reset_counters t =
  t.counters.light_connections <- 0;
  t.counters.downloads <- 0;
  t.counters.local_hits <- 0;
  t.counters.new_pages <- 0;
  t.counters.missing_pages <- 0

let table t scheme =
  match Tbl.find_opt t.tables scheme with
  | Some tbl -> tbl
  | None ->
    let tbl = Tbl.create 64 in
    Tbl.add t.tables scheme tbl;
    tbl

let tuple_version t scheme = Option.value (Tbl.find_opt t.versions scheme) ~default:0
let bump t scheme = Tbl.replace t.versions scheme (tuple_version t scheme + 1)

(* Every change to the stored tuples goes through these two. A
   re-download that extracts the very tuple already stored (a page
   touched, or edited outside its extracted attributes) only moves the
   access date, so it leaves the version alone. *)
let store_tuple t ~scheme ~url tuple ~access_date =
  let tbl = table t scheme in
  let unchanged =
    match Tbl.find_opt tbl url with
    | Some e -> Adm.Value.equal_tuple e.tuple tuple
    | None -> false
  in
  Tbl.replace tbl url { tuple; access_date };
  if not unchanged then bump t scheme

let remove_tuple t ~scheme ~url =
  let tbl = table t scheme in
  if Tbl.mem tbl url then begin
    Tbl.remove tbl url;
    bump t scheme
  end

let stored_tuple t ~scheme ~url =
  match Tbl.find_opt (table t scheme) url with
  | Some e -> Some e.tuple
  | None -> None

let stored_pages t scheme = Tbl.length (table t scheme)

let total_pages t = Tbl.fold (fun _ tbl acc -> acc + Tbl.length tbl) t.tables 0

let check_missing_backlog t = List.length t.check_missing

let now t = Websim.Site.clock (Websim.Http.site t.http)

(* Navigate the whole site once through the store's fetcher, wrap the
   pages, and store them as nested tuples dated now: the initial
   materialization and the paper's periodic whole-view pass alike. *)
let load t =
  let now = now t in
  let instance = Websim.Crawler.crawl_via t.fetcher t.schema in
  List.iter
    (fun (scheme, rel) ->
      List.iter
        (fun tuple ->
          match Adm.Value.find tuple Adm.Page_scheme.url_attr with
          | Some (Adm.Value.Link url) ->
            store_tuple t ~scheme ~url:(Adm.Value.Atom.str url) tuple ~access_date:now
          | _ -> ())
        (Adm.Relation.rows rel))
    instance.Websim.Crawler.relations

let materialize ?fetcher (schema : Adm.Schema.t) (http : Websim.Http.t) : t =
  let fetcher =
    match fetcher with
    | Some f -> f
    | None ->
      Websim.Fetcher.create ~config:(Websim.Fetcher.config ~cache_capacity:0 ()) http
  in
  let t =
    {
      schema;
      http = Websim.Fetcher.http fetcher;
      fetcher;
      tables = Tbl.create 16;
      versions = Tbl.create 16;
      status = Tbl.create 256;
      check_missing = [];
      max_age = None;
      counters =
        { light_connections = 0; downloads = 0; local_hits = 0; new_pages = 0; missing_pages = 0 };
    }
  in
  load t;
  t

let status_of t url =
  match Tbl.find_opt t.status url with Some s -> s | None -> Unchecked

let set_status t url s = Tbl.replace t.status url s

(* Mark the outgoing-link differences between the stored tuple and a
   freshly downloaded one: links that appeared are [New], links that
   vanished are [Missing] (Function 2, lines 7–10). *)
let diff_outlinks t ps ~old_tuple ~new_tuple =
  let links tuple =
    match tuple with
    | None -> []
    | Some tp -> List.map fst (Websim.Crawler.outlinks ps tp)
  in
  let old_links = links old_tuple in
  let new_links = links (Some new_tuple) in
  List.iter
    (fun u ->
      if not (List.mem u old_links) then begin
        set_status t u New;
        t.counters.new_pages <- t.counters.new_pages + 1
      end)
    new_links;
  List.iter
    (fun u ->
      if not (List.mem u new_links) then begin
        set_status t u Missing;
        t.counters.missing_pages <- t.counters.missing_pages + 1
      end)
    old_links

let fetcher t = t.fetcher

(* Re-download one page, wrap it and store the tuple dated now. A
   failed GET leaves the store as it was. *)
let download t ~scheme ~url : Adm.Value.tuple Websim.Fetcher.fetched =
  (* drop any cached copy first: a caching fetcher would otherwise
     answer the re-download with the very body the preceding HEAD
     just proved out of date *)
  Websim.Fetcher.invalidate t.fetcher url;
  match Websim.Fetcher.get t.fetcher url with
  | Websim.Fetcher.Absent -> Websim.Fetcher.Absent
  | Websim.Fetcher.Unreachable -> Websim.Fetcher.Unreachable
  | Websim.Fetcher.Fetched { Websim.Fetcher.body; last_modified = _ } ->
    t.counters.downloads <- t.counters.downloads + 1;
    let ps = Adm.Schema.find_scheme_exn t.schema scheme in
    let tuple = Websim.Wrapper.extract ps ~url body in
    let old_tuple = stored_tuple t ~scheme ~url in
    diff_outlinks t ps ~old_tuple ~new_tuple:tuple;
    store_tuple t ~scheme ~url tuple ~access_date:(now t);
    Websim.Fetcher.Fetched tuple

let entry_date t ~scheme ~url =
  match Tbl.find_opt (table t scheme) url with
  | Some e -> Some e.access_date
  | None -> None

let iter_entries t f =
  Tbl.iter
    (fun scheme tbl ->
      Tbl.iter (fun url entry -> f ~scheme ~url ~access_date:entry.access_date) tbl)
    t.tables

let schemes t = Tbl.fold (fun scheme _ acc -> scheme :: acc) t.tables []

let iter_scheme t scheme f =
  Option.iter
    (Tbl.iter (fun url entry -> f ~url ~access_date:entry.access_date))
    (Tbl.find_opt t.tables scheme)

(* The one handler of a light connection's outcome on a stored entry,
   shared by query-time URLCheck and maintenance: a 404 drops the
   entry and defers the definitive purge to the CheckMissing sweep; a
   newer Last-Modified forces the re-download; an unchanged page gets
   its access date bumped to now. [`Refreshed] means a GET really
   fetched the new page: when the transport fails it the outcome is
   [`Unreachable] and the entry keeps its old tuple and date. *)
let apply_head t ~scheme ~url head =
  match Tbl.find_opt (table t scheme) url with
  | None -> `Unknown
  | Some entry -> (
    t.counters.light_connections <- t.counters.light_connections + 1;
    let gone () =
      remove_tuple t ~scheme ~url;
      t.counters.missing_pages <- t.counters.missing_pages + 1;
      if not (List.mem_assoc url t.check_missing) then
        t.check_missing <- (url, scheme) :: t.check_missing;
      `Gone
    in
    match head with
    | Websim.Fetcher.Absent -> gone ()
    | Websim.Fetcher.Unreachable -> `Unreachable
    | Websim.Fetcher.Fetched last_modified when entry.access_date < last_modified -> (
      match download t ~scheme ~url with
      | Websim.Fetcher.Fetched _ -> `Refreshed
      | Websim.Fetcher.Absent -> gone ()
      | Websim.Fetcher.Unreachable -> `Unreachable)
    | Websim.Fetcher.Fetched _ ->
      Tbl.replace (table t scheme) url { entry with access_date = now t };
      `Current)

(* Maintenance-side URLCheck: unlike {!url_check} this ignores the
   per-query status flags (maintenance runs between queries, against
   the shared store). *)
let revalidate t ~scheme ~url =
  match Tbl.find_opt (table t scheme) url with
  | None -> `Unknown
  | Some _ -> apply_head t ~scheme ~url (Websim.Fetcher.head t.fetcher url)

(* The batched form: one windowed HEAD batch through the fetcher (the
   light-connection latencies overlap), then the same per-entry
   bookkeeping as {!revalidate}. Keys with nothing stored cost no wire
   traffic. *)
let revalidate_batch t (keys : (string * string) list) =
  let known =
    List.filter (fun (scheme, url) -> Tbl.mem (table t scheme) url) keys
  in
  let heads = Websim.Fetcher.head_batch t.fetcher (List.map snd known) in
  List.map
    (fun (scheme, url) ->
      let outcome =
        match List.assoc_opt url heads with
        | None -> `Unknown
        | Some h -> apply_head t ~scheme ~url h
      in
      (scheme, url, outcome))
    known

(* Force-refresh one page regardless of the stored copy: a wire GET
   (the fetcher cache is bypassed), wrap, store. Also how a page not
   yet in the store enters it. When the GET cannot get through, the
   stored tuple (if any) is served stale: the page is not known to be
   gone. *)
let download_entry t ~scheme ~url =
  match download t ~scheme ~url with
  | Websim.Fetcher.Fetched tuple -> Some tuple
  | Websim.Fetcher.Absent -> None
  | Websim.Fetcher.Unreachable -> stored_tuple t ~scheme ~url

(* Function 2: URLCheck. Returns the up-to-date tuple for [url], or
   None when the page is gone. *)
let url_check t ~scheme ~url =
  match status_of t url with
  | Checked ->
    t.counters.local_hits <- t.counters.local_hits + 1;
    stored_tuple t ~scheme ~url
  | Missing ->
    (* deferred: not used in query evaluation, checked off-line *)
    if not (List.mem_assoc url t.check_missing) then
      t.check_missing <- (url, scheme) :: t.check_missing;
    None
  | New ->
    let result = download_entry t ~scheme ~url in
    set_status t url Checked;
    result
  | Unchecked -> (
    match Tbl.find_opt (table t scheme) url with
    | None ->
      (* never seen: behave as new *)
      let result = download_entry t ~scheme ~url in
      set_status t url Checked;
      result
    | Some entry
      when (match t.max_age with
           | Some age -> now t - entry.access_date <= age
           | None -> false) ->
      (* within the staleness tolerance: no connection at all *)
      t.counters.local_hits <- t.counters.local_hits + 1;
      set_status t url Checked;
      Some entry.tuple
    | Some entry -> (
      match apply_head t ~scheme ~url (Websim.Fetcher.head t.fetcher url) with
      | `Gone ->
        set_status t url Missing;
        None
      | `Refreshed ->
        set_status t url Checked;
        stored_tuple t ~scheme ~url
      | `Current | `Unreachable | `Unknown ->
        (* unchanged, or could not even ask: serve the stored tuple *)
        t.counters.local_hits <- t.counters.local_hits + 1;
        set_status t url Checked;
        Some entry.tuple))

(* The page source backed by the materialized store: Algorithm 3's
   evaluation loop is the shared evaluator running over this source,
   with URLCheck applied before each tuple is used. *)
let source t : Eval.source =
  {
    Eval.fetch = (fun ~scheme ~url -> url_check t ~scheme ~url);
    prefetch = (fun ~scheme:_ _ -> ()) (* URLCheck is per-tuple: HEADs, not page batches *);
    window = 32 (* batching granularity only: URLCheck work is per-tuple *);
  }

(* Evaluate a plan over the materialized view. Status flags are valid
   for the duration of one query (Algorithm 3 initializes all flags
   to none). [max_age] is the staleness tolerance in simulated clock
   ticks: entries younger than it are used without any connection. *)
let query ?max_age t (plan : Nalg.expr) : Adm.Relation.t =
  Tbl.reset t.status;
  t.max_age <- max_age;
  Fun.protect
    ~finally:(fun () -> t.max_age <- None)
    (fun () -> Eval.eval t.schema (source t) plan)

(* Evaluate a plan over the stored tuples alone: no connection and no
   status flag, so a link whose target is not stored is skipped. Each
   stored page read counts as a local hit. *)
let eval_stored t (plan : Nalg.expr) =
  let pages = ref 0 in
  let fetch ~scheme ~url =
    let tuple = stored_tuple t ~scheme ~url in
    if Option.is_some tuple then incr pages;
    tuple
  in
  let result =
    Eval.eval t.schema { Eval.fetch; prefetch = (fun ~scheme:_ _ -> ()); window = 32 } plan
  in
  t.counters.local_hits <- t.counters.local_hits + !pages;
  (result, !pages)

type query_report = {
  result : Adm.Relation.t;
  light_connections : int;
  downloads : int;
  local_hits : int;
}

let query_counted ?max_age t plan =
  reset_counters t;
  let result = query ?max_age t plan in
  {
    result;
    light_connections = t.counters.light_connections;
    downloads = t.counters.downloads;
    local_hits = t.counters.local_hits;
  }

(* Off-line processing of CheckMissing: URLs whose page is actually
   gone are purged from the store; the others were false alarms
   (pages still exist, merely no longer linked from where we looked). *)
let sweep_limited t ~limit =
  let deleted = ref 0 and processed = ref 0 in
  let backlog =
    List.filter
      (fun (url, scheme) ->
        if !processed >= limit then true (* over budget: keep for later *)
        else begin
          incr processed;
          match Websim.Fetcher.head t.fetcher url with
          | Websim.Fetcher.Absent ->
            remove_tuple t ~scheme ~url;
            incr deleted;
            false
          | Websim.Fetcher.Fetched _ ->
            (* false alarm: still exists, merely unlinked where we looked *)
            false
          | Websim.Fetcher.Unreachable ->
            (* can't tell gone from down: keep for the next sweep instead
               of purging a page that may only be transiently missing *)
            true
        end)
      t.check_missing
  in
  t.check_missing <- backlog;
  (!deleted, !processed)

let offline_sweep t = fst (sweep_limited t ~limit:max_int)

(* Full consistency pass: recrawl the site and replace the store
   (the paper's "periodically check the whole view"). *)
let full_refresh t =
  Tbl.iter (fun scheme _ -> bump t scheme) t.tables;
  Tbl.reset t.tables;
  Tbl.reset t.status;
  t.check_missing <- [];
  load t
