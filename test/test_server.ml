(* Tests for the concurrent query server: deterministic interleaving,
   the shared-cache coalescing ledger and its invariant, exactness of
   concurrent results against isolated evaluation (the QCheck property
   of the issue: per-query rows identical, shared distinct-GET set =
   union of the isolated per-query GET sets), deadline degradation,
   stale-serve under an open breaker, and admission control. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let sites =
  [
    (Sitegen.Sites.University, Server.Workload.university_templates);
    (Bibliography, Server.Workload.bibliography_templates);
    (Catalog, Server.Workload.catalog_templates);
  ]

(* A server-sized LRU: big enough that the workload's page set never
   evicts, so the single-flight table is the whole wire set. *)
let server_config = Websim.Fetcher.config ~cache_capacity:8192 ()

let shared_cache ?netmodel (site : Sitegen.Sites.t) =
  Server.Shared_cache.create ~config:server_config ?netmodel
    (Websim.Http.connect site.site)

let specs_of (site : Sitegen.Sites.t) entries =
  Server.Sched.plan_workload site.schema (Sitegen.Sites.stats site) site.registry entries

let run_workload ?netmodel ?stale ?(config = Server.Sched.default_config)
    (site : Sitegen.Sites.t) entries =
  let cache = shared_cache ?netmodel site in
  (cache, Server.Sched.run ?stale config cache site.schema (specs_of site entries))

(* Isolated baseline: each query on its own fresh single-query cache
   over the same site (and the same netmodel seed when given). *)
let isolated ?seed (site : Sitegen.Sites.t) (e : Server.Workload.entry) =
  let netmodel =
    Option.map
      (fun seed -> Websim.Netmodel.create (Websim.Netmodel.config ~seed ()))
      seed
  in
  let cache = shared_cache ?netmodel site in
  let spec = List.hd (specs_of site [ e ]) in
  let source = Server.Shared_cache.source cache ~query:0 site.schema in
  let rows = Eval.eval site.schema source spec.Server.Sched.expr in
  (rows, Server.Shared_cache.query_get_set cache ~query:0)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_deterministic_replay () =
  let entries =
    Server.Workload.generate ~seed:9 ~n:12 ()
  in
  let run () =
    let netmodel = Websim.Netmodel.create (Websim.Netmodel.config ~seed:3 ()) in
    let _, rep =
      run_workload ~netmodel (Sitegen.Sites.load University) entries
    in
    rep
  in
  let a = run () and b = run () in
  check int_t "same result count" (List.length a.Server.Sched.results)
    (List.length b.Server.Sched.results);
  List.iter2
    (fun (ra : Server.Sched.result) (rb : Server.Sched.result) ->
      check bool_t "same rows" true
        (Adm.Relation.equal ra.Server.Sched.rows rb.Server.Sched.rows);
      check (Alcotest.float 1e-9) "same elapsed" ra.Server.Sched.elapsed_ms
        rb.Server.Sched.elapsed_ms)
    a.Server.Sched.results b.Server.Sched.results;
  check (Alcotest.float 1e-9) "same makespan" a.Server.Sched.makespan_ms
    b.Server.Sched.makespan_ms;
  check int_t "same distinct GETs" a.Server.Sched.ledger.Server.Shared_cache.distinct_gets
    b.Server.Sched.ledger.Server.Shared_cache.distinct_gets

(* ------------------------------------------------------------------ *)
(* The coalescing ledger and its invariant                             *)
(* ------------------------------------------------------------------ *)

let test_ledger_invariant () =
  let entries = Server.Workload.generate ~seed:4 ~n:16 () in
  let _, rep =
    run_workload (Sitegen.Sites.load University) entries
  in
  let l = rep.Server.Sched.ledger in
  check int_t "cross hits = sum - distinct"
    (l.Server.Shared_cache.sum_per_query - l.Server.Shared_cache.distinct_gets)
    l.Server.Shared_cache.cross_query_hits;
  check bool_t "overlapping workload coalesces" true
    (l.Server.Shared_cache.distinct_gets < l.Server.Shared_cache.sum_per_query);
  check bool_t "ratio below 1" true (l.Server.Shared_cache.sharing_ratio < 1.0);
  check int_t "per-query entries" 16
    (List.length l.Server.Shared_cache.per_query)

(* ------------------------------------------------------------------ *)
(* Exactness against isolated evaluation (the issue's property)        *)
(* ------------------------------------------------------------------ *)

let union_sorted sets =
  List.concat sets |> List.sort_uniq String.compare

let check_workload_exact name site entries =
  let cache, rep = run_workload site entries in
  let isolated_rows, isolated_sets =
    List.split (List.map (isolated site) entries)
  in
  List.iteri
    (fun i (r : Server.Sched.result) ->
      check bool_t (Fmt.str "%s q%d complete" name i) true
        r.Server.Sched.completeness.Server.Sched.complete;
      check bool_t (Fmt.str "%s q%d rows = isolated" name i) true
        (Adm.Relation.equal r.Server.Sched.rows (List.nth isolated_rows i)))
    rep.Server.Sched.results;
  let shared_set =
    List.sort String.compare (Server.Shared_cache.distinct_get_set cache)
  in
  check bool_t (Fmt.str "%s shared GET set = union of isolated" name) true
    (shared_set = union_sorted isolated_sets)

let test_exact_all_sites_seeded () =
  List.iter
    (fun (kind, templates) ->
      List.iter
        (fun seed ->
          let entries = Server.Workload.generate ~templates ~seed ~n:8 () in
          check_workload_exact
            (Fmt.str "%s/seed%d" (Sitegen.Sites.name kind) seed)
            (Sitegen.Sites.load kind) entries)
        [ 7; 21; 42 ])
    sites

(* The same property as a QCheck generator over random seeds and
   workload sizes on the university site. *)
let prop_concurrent_equals_isolated =
  QCheck.Test.make ~name:"concurrent = isolated (rows and GET sets)" ~count:12
    QCheck.(pair (int_bound 1000) (int_range 1 10))
    (fun (seed, n) ->
      let site = Sitegen.Sites.load University in
      let entries = Server.Workload.generate ~seed ~n () in
      let cache, rep = run_workload site entries in
      let isolated_rows, isolated_sets =
        List.split (List.map (isolated site) entries)
      in
      List.for_all
        (fun (r : Server.Sched.result) ->
          Adm.Relation.equal r.Server.Sched.rows
            (List.nth isolated_rows r.Server.Sched.qid))
        rep.Server.Sched.results
      && List.sort String.compare (Server.Shared_cache.distinct_get_set cache)
         = union_sorted isolated_sets)

(* ------------------------------------------------------------------ *)
(* Faults: no query errors with retries >= max_consecutive             *)
(* ------------------------------------------------------------------ *)

let test_exact_under_faults () =
  let site = Sitegen.Sites.load University in
  let entries = Server.Workload.generate ~seed:13 ~n:8 () in
  let netmodel =
    Websim.Netmodel.create
      (Websim.Netmodel.config ~seed:17 ~fault_rate:0.10 ~max_consecutive:2 ())
  in
  let cache =
    Server.Shared_cache.create
      ~config:(Websim.Fetcher.config ~cache_capacity:8192 ~retries:3 ())
      ~netmodel (Websim.Http.connect site.site)
  in
  let rep =
    Server.Sched.run Server.Sched.default_config cache site.schema
      (specs_of site entries)
  in
  let isolated_rows = List.map (fun e -> fst (isolated site e)) entries in
  List.iteri
    (fun i (r : Server.Sched.result) ->
      check bool_t (Fmt.str "q%d complete under faults" i) true
        r.Server.Sched.completeness.Server.Sched.complete;
      check bool_t (Fmt.str "q%d exact under faults" i) true
        (Adm.Relation.equal r.Server.Sched.rows (List.nth isolated_rows i)))
    rep.Server.Sched.results;
  check bool_t "retries happened" true
    (rep.Server.Sched.fetch.Websim.Fetcher.retries > 0)

(* ------------------------------------------------------------------ *)
(* Deadlines: graceful degradation, not errors                         *)
(* ------------------------------------------------------------------ *)

let test_deadline_partial () =
  let site = Sitegen.Sites.load University in
  (* slow network, tiny budget: deadlines must fire *)
  let netmodel = Websim.Netmodel.create (Websim.Netmodel.config ~seed:5 ()) in
  let entries =
    List.map
      (fun (e : Server.Workload.entry) ->
        { e with Server.Workload.deadline_ms = Some 1.0 })
      (Server.Workload.generate ~seed:2 ~n:6 ())
  in
  let _, rep = run_workload ~netmodel site entries in
  check int_t "every query reports" 6 (List.length rep.Server.Sched.results);
  let hit =
    List.filter
      (fun (r : Server.Sched.result) ->
        r.Server.Sched.completeness.Server.Sched.deadline_hit)
      rep.Server.Sched.results
  in
  check bool_t "some deadline fired" true (hit <> []);
  List.iter
    (fun (r : Server.Sched.result) ->
      check bool_t "deadline result not marked complete" false
        r.Server.Sched.completeness.Server.Sched.complete)
    hit

(* ------------------------------------------------------------------ *)
(* Circuit open: stale-serve through the materialized store            *)
(* ------------------------------------------------------------------ *)

let test_breaker_open_stale_serve () =
  let site = Sitegen.Sites.load University in
  let store = Matview.materialize site.schema (Websim.Http.connect site.site) in
  let netmodel = Websim.Netmodel.create (Websim.Netmodel.config ~seed:8 ()) in
  let entries = Server.Workload.generate ~seed:3 ~n:4 () in
  let isolated_rows = List.map (fun e -> fst (isolated site e)) entries in
  let cache = shared_cache ~netmodel site in
  Websim.Fetcher.open_breaker (Server.Shared_cache.fetcher cache) ~for_ms:1e9;
  let rep =
    Server.Sched.run ~stale:store Server.Sched.default_config cache site.schema
      (specs_of site entries)
  in
  List.iteri
    (fun i (r : Server.Sched.result) ->
      check bool_t (Fmt.str "q%d served stale, not failed" i) true
        (r.Server.Sched.completeness.Server.Sched.stale_pages > 0);
      check bool_t (Fmt.str "q%d not complete" i) false
        r.Server.Sched.completeness.Server.Sched.complete;
      (* the store is fresh, so the stale rows are the true rows *)
      check bool_t (Fmt.str "q%d stale rows = fresh rows" i) true
        (Adm.Relation.equal r.Server.Sched.rows (List.nth isolated_rows i)))
    rep.Server.Sched.results;
  check int_t "nothing went to the wire" 0
    rep.Server.Sched.fetch.Websim.Fetcher.gets;
  check bool_t "fast-fails recorded" true
    (rep.Server.Sched.fetch.Websim.Fetcher.breaker_fastfails > 0)

(* Substituting the cache's own page source through [source_for]
   changes nothing: the default reads through [Shared_cache.source]
   too, and the stale and missing counts live in the cache. Pinned on
   the stale-serve scenario above, where every read degrades. *)
let test_source_for_own_source_is_default () =
  let site = Sitegen.Sites.load University in
  let store = Matview.materialize site.schema (Websim.Http.connect site.site) in
  let entries = Server.Workload.generate ~seed:3 ~n:4 () in
  let run own_source =
    let netmodel = Websim.Netmodel.create (Websim.Netmodel.config ~seed:8 ()) in
    let cache = shared_cache ~netmodel site in
    Websim.Fetcher.open_breaker (Server.Shared_cache.fetcher cache) ~for_ms:1e9;
    let source_for =
      if own_source then
        Some
          (fun (s : Server.Sched.spec) ->
            Some
              (Server.Shared_cache.source ~stale:store cache ~query:s.Server.Sched.qid
                 site.schema))
      else None
    in
    Server.Sched.run ~stale:store ?source_for Server.Sched.default_config cache
      site.schema (specs_of site entries)
  in
  let default = run false and own = run true in
  List.iter2
    (fun (d : Server.Sched.result) (o : Server.Sched.result) ->
      let q = d.Server.Sched.qid in
      check bool_t (Fmt.str "q%d same rows" q) true
        (Adm.Relation.equal d.Server.Sched.rows o.Server.Sched.rows);
      check bool_t (Fmt.str "q%d same completeness" q) true
        (d.Server.Sched.completeness = o.Server.Sched.completeness);
      check bool_t (Fmt.str "q%d served stale" q) true
        (d.Server.Sched.completeness.Server.Sched.stale_pages > 0))
    default.Server.Sched.results own.Server.Sched.results;
  check bool_t "same ledger" true (default.Server.Sched.ledger = own.Server.Sched.ledger);
  check bool_t "same fetch report" true (default.Server.Sched.fetch = own.Server.Sched.fetch)

(* ------------------------------------------------------------------ *)
(* Admission control and policies                                      *)
(* ------------------------------------------------------------------ *)

let test_admission_bounds () =
  let site = Sitegen.Sites.load University in
  let entries = Server.Workload.generate ~seed:6 ~n:10 () in
  let config = Server.Sched.config ~concurrency:2 () in
  let _, rep = run_workload ~config site entries in
  check bool_t "peak residents bounded by concurrency" true
    (rep.Server.Sched.peak_resident_queries <= 2);
  check int_t "all queries finished" 10 (List.length rep.Server.Sched.results);
  (* a one-row budget forces near-serial residency but must not stall *)
  let config = Server.Sched.config ~concurrency:8 ~max_resident_rows:1 () in
  let _, rep = run_workload ~config site entries in
  check int_t "tiny row budget still finishes" 10
    (List.length rep.Server.Sched.results)

let test_priority_first () =
  let site = Sitegen.Sites.load University in
  let netmodel = Websim.Netmodel.create (Websim.Netmodel.config ~seed:4 ()) in
  let sql = "SELECT p.PName, p.Rank FROM Professor p" in
  let entries =
    [
      Server.Workload.entry ~priority:0 sql;
      Server.Workload.entry ~priority:0 sql;
      Server.Workload.entry ~priority:5 sql;
    ]
  in
  let config = Server.Sched.config ~policy:Server.Sched.Priority () in
  let _, rep = run_workload ~netmodel ~config site entries in
  let elapsed qid =
    (List.find
       (fun (r : Server.Sched.result) -> r.Server.Sched.qid = qid)
       rep.Server.Sched.results)
      .Server.Sched.elapsed_ms
  in
  check bool_t "high priority finishes no later than the others" true
    (elapsed 2 <= elapsed 0 && elapsed 2 <= elapsed 1)

(* ------------------------------------------------------------------ *)
(* Workload files                                                      *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Domain-count invariance: the multicore run is byte-identical        *)
(* ------------------------------------------------------------------ *)

(* One run at [domains], with a real pool attached for the parallel
   extraction tier, returning everything an observer could compare:
   per-query rows/completeness/steps, the distinct-GET set in
   first-request order, and the sharing ledger. *)
let observe_run ~domains ~seed site templates =
  let entries = Server.Workload.generate ~templates ~seed ~n:8 () in
  let specs = specs_of site entries in
  let pool = if domains > 1 then Some (Server.Pool.create ~domains) else None in
  let netmodel = Websim.Netmodel.create (Websim.Netmodel.config ~seed ()) in
  let cache =
    Server.Shared_cache.create ?pool ~config:server_config ~netmodel
      (Websim.Http.connect site.site)
  in
  let rep =
    Server.Sched.run (Server.Sched.config ~domains ()) cache site.schema specs
  in
  Option.iter Server.Pool.shutdown pool;
  ( List.map
      (fun (r : Server.Sched.result) ->
        (r.Server.Sched.qid, r.Server.Sched.rows, r.Server.Sched.completeness,
         r.Server.Sched.steps))
      rep.Server.Sched.results,
    Server.Shared_cache.distinct_get_set cache,
    Server.Shared_cache.ledger cache,
    rep )

let same_observation (res_a, gets_a, ledger_a, _) (res_b, gets_b, ledger_b, _) =
  List.length res_a = List.length res_b
  && List.for_all2
       (fun (qa, rows_a, ca, sa) (qb, rows_b, cb, sb) ->
         qa = qb && Adm.Relation.equal rows_a rows_b && ca = cb && sa = sb)
       res_a res_b
  && gets_a = gets_b
  && ledger_a = ledger_b

(* The issue's property: for every site, every seed in {7, 21, 42} and
   every domain count, the N-domain run is byte-identical to the
   1-domain run — same per-query rows, same distinct-GET set (in
   first-request order, not just as a set), same sharing ledger. Only
   the time accounting may differ. *)
let prop_domains_invariant =
  let cases =
    List.concat_map
      (fun site_ix ->
        List.concat_map
          (fun seed -> List.map (fun d -> (site_ix, seed, d)) [ 2; 4; 8 ])
          [ 7; 21; 42 ])
      [ 0; 1; 2 ]
  in
  QCheck.Test.make
    ~name:"N-domain run = 1-domain run (rows, GET sets, ledger)" ~count:10
    (QCheck.make
       ~print:(fun (i, seed, d) -> Fmt.str "site=%d seed=%d domains=%d" i seed d)
       (QCheck.Gen.oneofl cases))
    (fun (site_ix, seed, domains) ->
      let kind, templates = List.nth sites site_ix in
      let site = Sitegen.Sites.load kind in
      let base = observe_run ~domains:1 ~seed site templates in
      let multi = observe_run ~domains ~seed site templates in
      same_observation base multi)

(* Lane accounting at D > 1: makespan covers every lane's charged
   work (frontiers may additionally include dependency stalls), every
   query's elapsed decomposes as service + wait, and the lane busy
   times sum to the total charged service. *)
let test_lane_accounting () =
  let site = Sitegen.Sites.load University in
  let _, _, _, rep =
    observe_run ~domains:4 ~seed:7 site
      Server.Workload.university_templates
  in
  check int_t "domains recorded" 4 rep.Server.Sched.domains;
  check int_t "one clock per lane" 4
    (List.length rep.Server.Sched.lane_busy_ms);
  let max_lane =
    List.fold_left Float.max 0.0 rep.Server.Sched.lane_busy_ms
  in
  check bool_t "makespan covers the busiest lane" true
    (rep.Server.Sched.makespan_ms >= max_lane -. 1e-6);
  let total_service =
    List.fold_left
      (fun acc (r : Server.Sched.result) -> acc +. r.Server.Sched.service_ms)
      0.0 rep.Server.Sched.results
  in
  let total_busy =
    List.fold_left ( +. ) 0.0 rep.Server.Sched.lane_busy_ms
  in
  check bool_t "lane busy = charged service"
    true
    (Float.abs (total_busy -. total_service) < 1e-6);
  List.iter
    (fun (r : Server.Sched.result) ->
      check bool_t "elapsed = service + wait" true
        (Float.abs
           (r.Server.Sched.elapsed_ms
           -. (r.Server.Sched.service_ms +. r.Server.Sched.wait_ms))
        < 1e-6);
      check bool_t "lane in range" true
        (r.Server.Sched.lane >= 0 && r.Server.Sched.lane < 4))
    rep.Server.Sched.results

(* ------------------------------------------------------------------ *)
(* The domain pool itself                                              *)
(* ------------------------------------------------------------------ *)

let test_pool () =
  let xs = List.init 500 Fun.id in
  let squares = List.map (fun x -> x * x) xs in
  (* inline path: domains = 1 spawns nothing *)
  let p1 = Server.Pool.create ~domains:1 in
  check int_t "size clamps to >= 1" 1 (Server.Pool.size p1);
  check bool_t "inline map preserves order" true
    (Server.Pool.map p1 (fun x -> x * x) xs = squares);
  Server.Pool.shutdown p1;
  let p = Server.Pool.create ~domains:4 in
  check int_t "size" 4 (Server.Pool.size p);
  check bool_t "parallel map preserves order" true
    (Server.Pool.map p (fun x -> x * x) xs = squares);
  check bool_t "map_array preserves order" true
    (Server.Pool.map_array p (fun x -> x + 1) (Array.of_list xs)
    = Array.of_list (List.map (fun x -> x + 1) xs));
  (* a task exception reaches the caller, and the pool survives it *)
  (match
     Server.Pool.map p (fun x -> if x = 250 then failwith "boom" else x) xs
   with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> check Alcotest.string "first failure" "boom" msg);
  check bool_t "pool usable after a failed batch" true
    (Server.Pool.map p string_of_int xs = List.map string_of_int xs);
  Server.Pool.shutdown p;
  Server.Pool.shutdown p (* idempotent *)

(* ------------------------------------------------------------------ *)
(* The tuple store                                                     *)
(* ------------------------------------------------------------------ *)

(* A per-query source that records every (scheme, url) the executor
   reads or prefetches through the shared cache. *)
let recording_source cache (site : Sitegen.Sites.t) seen (spec : Server.Sched.spec) =
  let src = Server.Shared_cache.source cache ~query:spec.Server.Sched.qid site.schema in
  let record scheme url = Hashtbl.replace seen (scheme, url) () in
  Some
    {
      src with
      Eval.fetch =
        (fun ~scheme ~url ->
          record scheme url;
          src.Eval.fetch ~scheme ~url);
      prefetch =
        (fun ~scheme urls ->
          List.iter (record scheme) urls;
          src.Eval.prefetch ~scheme urls);
    }

let gets cache = (Server.Shared_cache.report cache).Websim.Fetcher.gets

(* One entry per extracted (scheme, url), and a stored tuple is read
   again without a GET. *)
let test_tuple_store () =
  let site = Sitegen.Sites.load University in
  let cache = shared_cache site in
  let seen = Hashtbl.create 256 in
  let entries = Server.Workload.generate ~seed:11 ~n:6 () in
  let _ =
    Server.Sched.run ~source_for:(recording_source cache site seen)
      Server.Sched.default_config cache site.schema (specs_of site entries)
  in
  let cached () =
    (Server.Shared_cache.contention cache).Server.Shared_cache.tuples_cached
  in
  let c = Server.Shared_cache.contention cache in
  check int_t "one store" 1 c.Server.Shared_cache.shards;
  check int_t "no locks" 0
    (c.Server.Shared_cache.lock_acquisitions + c.Server.Shared_cache.lock_contested);
  (* the generated site has no dangling links: every page read is extracted *)
  check int_t "one tuple per distinct (scheme, url) read" (Hashtbl.length seen) (cached ());
  let source = Server.Shared_cache.source cache ~query:0 site.schema in
  let g0 = gets cache in
  Hashtbl.iter
    (fun (scheme, url) () ->
      check bool_t ("stored tuple for " ^ url) true (source.Eval.fetch ~scheme ~url <> None))
    seen;
  check int_t "a stored tuple costs no GET" g0 (gets cache);
  check int_t "and adds no entry" (Hashtbl.length seen) (cached ())

(* An LRU far smaller than the page set must not cost re-downloads: a
   page whose tuple is stored is never fetched again, so the wire GETs
   equal the distinct URLs requested. Answers match a run whose LRU
   holds everything, with and without a 2-domain pool. *)
let test_no_redownload_past_lru () =
  let site = Sitegen.Sites.load University in
  let entries = Server.Workload.generate ~seed:5 ~n:16 () in
  let specs = specs_of site entries in
  let run ?pool capacity =
    let cache =
      Server.Shared_cache.create ?pool
        ~config:(Websim.Fetcher.config ~cache_capacity:capacity ())
        (Websim.Http.connect site.site)
    in
    let rep = Server.Sched.run Server.Sched.default_config cache site.schema specs in
    (cache, rep)
  in
  let rows (rep : Server.Sched.report) =
    List.map (fun (r : Server.Sched.result) -> r.Server.Sched.rows) rep.Server.Sched.results
  in
  let same a b = List.for_all2 Adm.Relation.equal (rows a) (rows b) in
  let small_cache, small = run 8 in
  let ledger = Server.Shared_cache.ledger small_cache in
  check bool_t "the workload shares pages across queries" true
    (ledger.Server.Shared_cache.cross_query_hits > 0);
  check bool_t "the page set exceeds the LRU" true
    (ledger.Server.Shared_cache.distinct_gets > 8);
  check int_t "no page downloaded twice" ledger.Server.Shared_cache.distinct_gets
    small.Server.Sched.fetch.Websim.Fetcher.gets;
  let _, large = run 8192 in
  check bool_t "answers as with an LRU that holds everything" true (same small large);
  let pool = Server.Pool.create ~domains:2 in
  let pooled_cache, pooled = run ~pool 8 in
  Server.Pool.shutdown pool;
  check bool_t "2-domain pool answers as the pool-less run" true (same small pooled);
  check int_t "2-domain pool GETs" small.Server.Sched.fetch.Websim.Fetcher.gets
    pooled.Server.Sched.fetch.Websim.Fetcher.gets;
  check bool_t "2-domain pool ledger" true
    (Server.Shared_cache.ledger pooled_cache = ledger)

let test_workload_parsing () =
  let entries =
    Server.Workload.of_lines
      [
        "# comment";
        "";
        "SELECT p.PName FROM Professor p";
        "2|SELECT d.DName FROM Dept d";
        "  ";
      ]
  in
  check int_t "two entries" 2 (List.length entries);
  let e1 = List.nth entries 0 and e2 = List.nth entries 1 in
  check bool_t "plain line" true
    (e1.Server.Workload.sql = "SELECT p.PName FROM Professor p"
    && e1.Server.Workload.priority = 0);
  check bool_t "priority prefix" true
    (e2.Server.Workload.sql = "SELECT d.DName FROM Dept d"
    && e2.Server.Workload.priority = 2)

let test_generator_deterministic () =
  let a = Server.Workload.generate ~seed:42 ~n:20 () in
  let b = Server.Workload.generate ~seed:42 ~n:20 () in
  let c = Server.Workload.generate ~seed:43 ~n:20 () in
  check bool_t "same seed, same workload" true (a = b);
  check bool_t "different seed differs" true (a <> c)

let suite =
  ( "server",
    [
      Alcotest.test_case "scheduler: deterministic replay" `Quick
        test_deterministic_replay;
      Alcotest.test_case "shared cache: ledger invariant and coalescing" `Quick
        test_ledger_invariant;
      Alcotest.test_case "exactness: seeds 7/21/42 on all three sites" `Slow
        test_exact_all_sites_seeded;
      QCheck_alcotest.to_alcotest prop_concurrent_equals_isolated;
      Alcotest.test_case "faults: exact and complete at 10% with retries"
        `Quick test_exact_under_faults;
      Alcotest.test_case "deadlines: partial results, no errors" `Quick
        test_deadline_partial;
      Alcotest.test_case "breaker open: stale-serve degradation" `Quick
        test_breaker_open_stale_serve;
      Alcotest.test_case "admission control bounds residency" `Quick
        test_admission_bounds;
      Alcotest.test_case "priority policy finishes urgent first" `Quick
        test_priority_first;
      QCheck_alcotest.to_alcotest prop_domains_invariant;
      Alcotest.test_case "lane accounting at 4 domains" `Quick
        test_lane_accounting;
      Alcotest.test_case "domain pool: order, failures, reuse" `Quick
        test_pool;
      Alcotest.test_case "tuple store: one entry per page, no GET to reread" `Quick
        test_tuple_store;
      Alcotest.test_case "workload files parse" `Quick test_workload_parsing;
      Alcotest.test_case "workload generator is seeded" `Quick
        test_generator_deterministic;
      Alcotest.test_case "tuple store: no page downloaded twice past the LRU"
        `Quick test_no_redownload_past_lru;
      Alcotest.test_case "source_for with the cache's own source = default" `Quick
        test_source_for_own_source_is_default;
    ] )
