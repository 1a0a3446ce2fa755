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
  tables : (string, (string, entry) Hashtbl.t) Hashtbl.t; (* scheme -> url -> entry *)
  status : (string, status) Hashtbl.t; (* url -> per-query flag *)
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
  match Hashtbl.find_opt t.tables scheme with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.add t.tables scheme tbl;
    tbl

let stored_tuple t ~scheme ~url =
  match Hashtbl.find_opt (table t scheme) url with
  | Some e -> Some e.tuple
  | None -> None

let stored_pages t scheme = Hashtbl.length (table t scheme)

let total_pages t = Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.tables 0

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
      let tbl = table t scheme in
      List.iter
        (fun tuple ->
          match Adm.Value.find tuple Adm.Page_scheme.url_attr with
          | Some (Adm.Value.Link url) ->
            Hashtbl.replace tbl (Adm.Value.Atom.str url) { tuple; access_date = now }
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
      tables = Hashtbl.create 16;
      status = Hashtbl.create 256;
      check_missing = [];
      max_age = None;
      counters =
        { light_connections = 0; downloads = 0; local_hits = 0; new_pages = 0; missing_pages = 0 };
    }
  in
  load t;
  t

let status_of t url =
  match Hashtbl.find_opt t.status url with Some s -> s | None -> Unchecked

let set_status t url s = Hashtbl.replace t.status url s

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
    Hashtbl.replace (table t scheme) url { tuple; access_date = now t };
    Websim.Fetcher.Fetched tuple

let entry_date t ~scheme ~url =
  match Hashtbl.find_opt (table t scheme) url with
  | Some e -> Some e.access_date
  | None -> None

let iter_entries t f =
  Hashtbl.iter
    (fun scheme tbl ->
      Hashtbl.iter (fun url entry -> f ~scheme ~url ~access_date:entry.access_date) tbl)
    t.tables

let iter_scheme t scheme f =
  Option.iter
    (Hashtbl.iter (fun url entry -> f ~url ~access_date:entry.access_date))
    (Hashtbl.find_opt t.tables scheme)

(* The one handler of a light connection's outcome on a stored entry,
   shared by query-time URLCheck and maintenance: a 404 drops the
   entry and defers the definitive purge to the CheckMissing sweep; a
   newer Last-Modified forces the re-download; an unchanged page gets
   its access date bumped to now. [`Refreshed] means a GET really
   fetched the new page: when the transport fails it the outcome is
   [`Unreachable] and the entry keeps its old tuple and date. *)
let apply_head t ~scheme ~url head =
  match Hashtbl.find_opt (table t scheme) url with
  | None -> `Unknown
  | Some entry -> (
    t.counters.light_connections <- t.counters.light_connections + 1;
    let gone () =
      Hashtbl.remove (table t scheme) url;
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
      Hashtbl.replace (table t scheme) url { entry with access_date = now t };
      `Current)

(* Maintenance-side URLCheck: unlike {!url_check} this ignores the
   per-query status flags (maintenance runs between queries, against
   the shared store). *)
let revalidate t ~scheme ~url =
  match Hashtbl.find_opt (table t scheme) url with
  | None -> `Unknown
  | Some _ -> apply_head t ~scheme ~url (Websim.Fetcher.head t.fetcher url)

(* The batched form: one windowed HEAD batch through the fetcher (the
   light-connection latencies overlap), then the same per-entry
   bookkeeping as {!revalidate}. Keys with nothing stored cost no wire
   traffic. *)
let revalidate_batch t (keys : (string * string) list) =
  let known =
    List.filter (fun (scheme, url) -> Hashtbl.mem (table t scheme) url) keys
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
    match Hashtbl.find_opt (table t scheme) url with
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
  Hashtbl.reset t.status;
  t.max_age <- max_age;
  Fun.protect
    ~finally:(fun () -> t.max_age <- None)
    (fun () -> Eval.eval t.schema (source t) plan)

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
            Hashtbl.remove (table t scheme) url;
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
  Hashtbl.reset t.tables;
  Hashtbl.reset t.status;
  t.check_missing <- [];
  load t
