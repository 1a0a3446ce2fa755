(* Tests for the network runtime: the seeded fault/latency model
   (Netmodel) and the resilient fetch engine (Fetcher) — determinism,
   pass-through counter identity with the pre-runtime code paths,
   exactness of query results under injected transient faults,
   dangling-link and materialized-view semantics over a faulty
   network, circuit breaker, LRU cache and batched fetch windows. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let uni_schema = (Sitegen.Sites.load University).schema

(* A fresh university: its generator's records, its site and its
   site-table bundle. *)
let uni_setup () =
  let u = Sitegen.University.build () in
  let uni = Sitegen.Sites.of_university u in
  (u, uni.site, uni)

let prof_url_at u i =
  Sitegen.University.prof_url
    (List.nth (Sitegen.University.profs u) i).Sitegen.University.p_name

let best_plan (uni : Sitegen.Sites.t) sql =
  let outcome = Planner.plan_sql uni.schema (Sitegen.Sites.stats uni) uni.registry sql in
  outcome.Planner.best.Planner.expr

let rows_sorted rel = Adm.Relation.sort_rows rel

(* ------------------------------------------------------------------ *)
(* Netmodel                                                            *)
(* ------------------------------------------------------------------ *)

let test_netmodel_determinism () =
  let mk seed =
    Websim.Netmodel.create (Websim.Netmodel.config ~seed ~fault_rate:0.3 ())
  in
  let m1 = mk 7 and m2 = mk 7 and m3 = mk 8 in
  let urls = List.init 50 (fun i -> Fmt.str "/page/%d" i) in
  List.iter
    (fun url ->
      List.iter
        (fun attempt ->
          check bool_t "same seed, same outcome" true
            (Websim.Netmodel.fault m1 ~url ~attempt
            = Websim.Netmodel.fault m2 ~url ~attempt);
          check (Alcotest.float 1e-9) "same seed, same latency"
            (Websim.Netmodel.latency_ms m1 ~kind:`Get ~url ~attempt ~bytes:1000)
            (Websim.Netmodel.latency_ms m2 ~kind:`Get ~url ~attempt ~bytes:1000))
        [ 1; 2; 3 ])
    urls;
  check bool_t "different seed differs somewhere" true
    (List.exists
       (fun url ->
         Websim.Netmodel.fault m1 ~url ~attempt:1
         <> Websim.Netmodel.fault m3 ~url ~attempt:1
         || Websim.Netmodel.latency_ms m1 ~kind:`Get ~url ~attempt:1 ~bytes:1000
            <> Websim.Netmodel.latency_ms m3 ~kind:`Get ~url ~attempt:1 ~bytes:1000)
       urls)

let test_episode_bounds () =
  (* even at fault rate 1.0 every failure episode is transient by
     construction: attempt max_consecutive+1 always succeeds, so a
     retry budget >= max_consecutive guarantees exact results *)
  let m =
    Websim.Netmodel.create
      (Websim.Netmodel.config ~seed:11 ~fault_rate:1.0 ~max_consecutive:2 ())
  in
  List.iter
    (fun i ->
      let url = Fmt.str "/p/%d" i in
      check bool_t "attempt 1 fails" true
        (Websim.Netmodel.fault m ~url ~attempt:1 <> Websim.Netmodel.Ok_response);
      check bool_t "attempt max_consecutive+1 succeeds" true
        (Websim.Netmodel.fault m ~url ~attempt:3 = Websim.Netmodel.Ok_response))
    (List.init 100 Fun.id)

(* ------------------------------------------------------------------ *)
(* Pass-through counter identity (runtime off = pre-runtime numbers)   *)
(* ------------------------------------------------------------------ *)

(* The exact GET/byte counters the code produced before the fetch
   engine existed, for the default builds of the three sites. With no
   netmodel the engine must be a strict pass-through. *)
let test_passthrough_crawl_identity () =
  List.iter
    (fun (name, schema, site, gets, bytes) ->
      let http = Websim.Http.connect site in
      let instance = Websim.Crawler.crawl schema http in
      let s = Websim.Http.stats http in
      check int_t (name ^ ": pages fetched") gets instance.Websim.Crawler.fetched;
      check int_t (name ^ ": GETs") gets s.Websim.Http.gets;
      check int_t (name ^ ": bytes") bytes s.Websim.Http.bytes;
      check int_t (name ^ ": HEADs") 0 s.Websim.Http.heads;
      check int_t (name ^ ": head bytes") 0 s.Websim.Http.head_bytes;
      check int_t (name ^ ": failed") 0 s.Websim.Http.failed)
    (List.map
       (fun (kind, gets, bytes) ->
         let s = Sitegen.Sites.load kind in
         (Sitegen.Sites.name kind, s.schema, s.site, gets, bytes))
       [ (University, 80, 60365); (Bibliography, 208, 424995); (Catalog, 134, 119426) ])

let test_passthrough_query_identity () =
  let _, site, uni = uni_setup () in
  let plan =
    best_plan uni
      "SELECT p.PName, p.Email FROM Professor p, ProfDept pd \
       WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'"
  in
  let http = Websim.Http.connect site in
  ignore (Eval.eval uni_schema (Eval.live_source uni_schema http) plan);
  let stats = Websim.Http.stats http in
  check int_t "GETs as before the runtime" 6 stats.Websim.Http.gets;
  check int_t "bytes as before the runtime" 4849 stats.Websim.Http.bytes;
  let mv = Matview.materialize uni_schema (Websim.Http.connect site) in
  let report = Matview.query_counted mv plan in
  check int_t "light connections as before" 6 report.Matview.light_connections;
  check int_t "downloads as before" 0 report.Matview.downloads;
  check int_t "local hits as before" 6 report.Matview.local_hits

(* ------------------------------------------------------------------ *)
(* Exactness under injected transient faults                           *)
(* ------------------------------------------------------------------ *)

let faulty_fetcher ?(seed = 5) ?(fault_rate = 0.3) ?(retries = 3) site =
  let nm =
    Websim.Netmodel.create
      (Websim.Netmodel.config ~seed ~fault_rate ~max_consecutive:2 ())
  in
  Websim.Fetcher.create
    ~config:(Websim.Fetcher.config ~retries ())
    ~netmodel:nm
    (Websim.Http.connect site)

let eval_clean schema site plan =
  Eval.eval schema (Eval.live_source schema (Websim.Http.connect site)) plan

let eval_faulty schema site plan =
  let fetcher = faulty_fetcher site in
  let r = Eval.eval_fetched schema fetcher plan in
  (r.Eval.result, r.Eval.fetch)

(* Random conjunctive queries over the university view (reusing the
   equivalence suite's seeded generator): planning is fault-free by
   construction, and evaluating the best plan over a network with a
   30% transient failure rate must return the exact clean relation. *)
let prop_faulty_eval_exact =
  QCheck.Test.make ~name:"faulty evaluation with retries is exact" ~count:30
    Test_equivalence.query_arb (fun sql ->
      let _, site, uni = uni_setup () in
      let plan = best_plan uni sql in
      let clean = eval_clean uni_schema site plan in
      let faulty, _ = eval_faulty uni_schema site plan in
      Adm.Relation.equal (rows_sorted clean) (rows_sorted faulty))

(* The same exactness on the other two generated sites, on their
   canonical plans, with the retry overhead visible in the counters. *)
let test_faulty_eval_exact_all_sites () =
  let bib = Sitegen.Sites.load Bibliography and catalog = Sitegen.Sites.load Catalog in
  let cases =
    [
      ( "bibliography", bib.schema, bib.site,
        [
          Sitegen.Bibliography.path1_all_conferences ();
          Sitegen.Bibliography.path3_direct_link ();
          Sitegen.Bibliography.path4_via_authors ();
        ] );
      ( "catalog", catalog.schema, catalog.site,
        (let outcome =
           Planner.plan_sql catalog.schema (Sitegen.Sites.stats catalog) catalog.registry
             "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'"
         in
         [ outcome.Planner.best.Planner.expr ]) );
    ]
  in
  List.iter
    (fun (name, schema, site, plans) ->
      List.iteri
        (fun i plan ->
          let clean = eval_clean schema site plan in
          let faulty, net = eval_faulty schema site plan in
          check bool_t (Fmt.str "%s plan %d exact under faults" name i) true
            (Adm.Relation.equal (rows_sorted clean) (rows_sorted faulty));
          (* bounded overhead: every retry is one extra attempt, and
             attempts never exceed requests * (retries + 1) *)
          check bool_t (Fmt.str "%s plan %d attempts bounded" name i) true
            (net.Websim.Fetcher.attempts
            <= net.Websim.Fetcher.requests * 4))
        plans)
    cases

(* ------------------------------------------------------------------ *)
(* Dangling links and the materialized view over a faulty network      *)
(* ------------------------------------------------------------------ *)

let test_dangling_skipped_identically () =
  let u, site, _ = uni_setup () in
  let mv = Matview.materialize uni_schema (Websim.Http.connect site) in
  let victim_url = prof_url_at u 0 and other_url = prof_url_at u 1 in
  Websim.Site.tick site;
  Websim.Site.delete site victim_url;
  let source = Eval.live_source uni_schema (Websim.Http.connect site) in
  let rel =
    Eval.pages_relation uni_schema source ~scheme:"ProfPage" ~alias:"P"
      [ victim_url; other_url ]
  in
  check int_t "live evaluation skips the dangling URL" 1
    (Adm.Relation.cardinality rel);
  check bool_t "URLCheck skips the same URL" true
    (Matview.url_check mv ~scheme:"ProfPage" ~url:victim_url = None);
  check bool_t "URLCheck keeps the live URL" true
    (Matview.url_check mv ~scheme:"ProfPage" ~url:other_url <> None)

let test_matview_serves_stale_when_unreachable () =
  let u, site, uni = uni_setup () in
  (* everything is down and the retry budget is zero: URLCheck cannot
     even ask, so it must serve the stored tuples rather than drop rows *)
  let dead =
    Websim.Netmodel.create
      (Websim.Netmodel.config ~seed:3 ~fault_rate:1.0 ~max_consecutive:4 ())
  in
  let dead_fetcher =
    Websim.Fetcher.create
      ~config:(Websim.Fetcher.config ~retries:0 ~breaker_threshold:0 ~cache_capacity:0 ())
      ~netmodel:dead
      (Websim.Http.connect site)
  in
  let mv = Matview.materialize uni_schema (Websim.Http.connect site) in
  let plan = best_plan uni "SELECT p.PName, p.Rank FROM Professor p" in
  let clean = Matview.query mv plan in
  let mv_dead =
    Matview.materialize ~fetcher:dead_fetcher uni_schema (Websim.Http.connect site)
  in
  ignore u;
  (* materializing through the dead fetcher stores nothing... *)
  check int_t "dead materialize stores nothing" 0 (Matview.total_pages mv_dead);
  (* ...but a store built beforehand keeps answering over a dead network *)
  let mv2 =
    Matview.materialize uni_schema (Websim.Http.connect site)
  in
  let report2 = Matview.query_counted mv2 plan in
  check bool_t "baseline query has rows" true
    (Adm.Relation.cardinality clean > 0);
  check bool_t "pre-built store answers" true
    (Adm.Relation.equal (rows_sorted clean) (rows_sorted report2.Matview.result))

let test_offline_sweep_under_faults () =
  let u, site, uni = uni_setup () in
  (* a flaky network: every page fails its first attempt or two, and
     three retries always get through *)
  let flaky =
    Websim.Netmodel.create
      (Websim.Netmodel.config ~seed:3 ~fault_rate:1.0 ~max_consecutive:2 ())
  in
  let fetcher =
    Websim.Fetcher.create
      ~config:(Websim.Fetcher.config ~retries:3 ~cache_capacity:0 ())
      ~netmodel:flaky
      (Websim.Http.connect site)
  in
  let mv = Matview.materialize ~fetcher uni_schema (Websim.Http.connect site) in
  let plan = best_plan uni "SELECT p.PName, p.Rank FROM Professor p" in
  Websim.Site.tick site;
  Websim.Site.delete site (prof_url_at u 0);
  let _ = Matview.query_counted mv plan in
  let backlog = Matview.check_missing_backlog mv in
  check bool_t "backlog populated by the deletion" true (backlog > 0);
  let stored_before = Matview.total_pages mv in
  (* a sweep while the site is unreachable cannot tell gone from down:
     nothing is purged and the backlog is kept for the next sweep *)
  Websim.Fetcher.open_breaker fetcher ~for_ms:1000.0;
  check int_t "nothing purged over a dead network" 0 (Matview.offline_sweep mv);
  check int_t "backlog kept for the next sweep" backlog
    (Matview.check_missing_backlog mv);
  check int_t "store intact" stored_before (Matview.total_pages mv);
  (* back but flaky, the sweep retries its way to the truth: the
     genuinely deleted page is purged, false alarms are dropped *)
  Websim.Netmodel.advance flaky 2000.0;
  let before = Websim.Fetcher.report fetcher in
  let purged = Matview.offline_sweep mv in
  check bool_t "genuinely deleted page purged" true (purged >= 1);
  check int_t "backlog drained" 0 (Matview.check_missing_backlog mv);
  check bool_t "the sweep needed retries" true
    ((Websim.Fetcher.report_diff ~before ~after:(Websim.Fetcher.report fetcher))
       .Websim.Fetcher.retries > 0)

(* The store keeps answering while its fetcher's circuit breaker is
   Open: every URLCheck HEAD fast-fails as Unreachable, so the stored
   tuples are served stale — same rows as a clean query, zero network
   downloads, only fast-fails in the ledger. *)
let test_matview_stale_serve_breaker_open () =
  let _, site, uni = uni_setup () in
  let nm = Websim.Netmodel.create (Websim.Netmodel.config ~seed:6 ()) in
  let fetcher =
    Websim.Fetcher.create
      ~config:(Websim.Fetcher.config ~cache_capacity:0 ())
      ~netmodel:nm
      (Websim.Http.connect site)
  in
  let mv = Matview.materialize ~fetcher uni_schema (Websim.Http.connect site) in
  let plan = best_plan uni "SELECT p.PName, p.Rank FROM Professor p" in
  let clean = Matview.query mv plan in
  Websim.Fetcher.open_breaker fetcher ~for_ms:1e6;
  let fastfails_before = (Websim.Fetcher.report fetcher).Websim.Fetcher.breaker_fastfails in
  let report = Matview.query_counted mv plan in
  check bool_t "stale rows = clean rows" true
    (Adm.Relation.equal (rows_sorted clean) (rows_sorted report.Matview.result));
  check int_t "no downloads through an open breaker" 0
    report.Matview.downloads;
  check bool_t "the checks fast-failed" true
    ((Websim.Fetcher.report fetcher).Websim.Fetcher.breaker_fastfails > fastfails_before);
  check bool_t "breaker still open" true (Websim.Fetcher.breaker_open fetcher)

(* Backlogged pages survive an Open -> Half-open transition: a sweep
   while the breaker is Open purges nothing (every check is
   Unreachable), and once the cooldown elapses the half-open probe
   goes through and the sweep tells gone from down again. *)
let test_sweep_keeps_backlog_across_breaker_states () =
  let u, site, uni = uni_setup () in
  let nm = Websim.Netmodel.create (Websim.Netmodel.config ~seed:6 ()) in
  let fetcher =
    Websim.Fetcher.create
      ~config:
        (Websim.Fetcher.config ~cache_capacity:0 ~breaker_cooldown_ms:500.0 ())
      ~netmodel:nm
      (Websim.Http.connect site)
  in
  let mv = Matview.materialize ~fetcher uni_schema (Websim.Http.connect site) in
  let plan = best_plan uni "SELECT p.PName, p.Rank FROM Professor p" in
  Websim.Site.tick site;
  Websim.Site.delete site (prof_url_at u 0);
  let _ = Matview.query_counted mv plan in
  let backlog = Matview.check_missing_backlog mv in
  check bool_t "deletion backlogged" true (backlog > 0);
  let stored = Matview.total_pages mv in
  Websim.Fetcher.open_breaker fetcher ~for_ms:500.0;
  check int_t "open breaker: nothing purged" 0 (Matview.offline_sweep mv);
  check int_t "open breaker: backlog kept" backlog
    (Matview.check_missing_backlog mv);
  check int_t "open breaker: store intact" stored (Matview.total_pages mv);
  check bool_t "still open before the cooldown" true
    (Websim.Fetcher.breaker_open fetcher);
  (* past the cooldown the next request finds the breaker Half-open:
     the probe goes through, the 404 is definitive, the page purged *)
  Websim.Netmodel.advance nm 1000.0;
  check int_t "half-open sweep purges the deleted page" 1
    (Matview.offline_sweep mv);
  check int_t "backlog drained" 0 (Matview.check_missing_backlog mv);
  check bool_t "breaker closed by the successful probe" false
    (Websim.Fetcher.breaker_open fetcher)

(* A HEAD that proves a change commits the store to a GET; when that
   GET cannot get through, the revalidation is [`Unreachable], not
   [`Refreshed], and the entry keeps its old tuple and access date.
   The scenario: a store materialized over a fault-free epoch; in the
   next epoch a professor page is edited, and a revalidation batch
   HEADs it first, then a stored page whose HEAD faults, which trips a
   one-failure breaker, so the GET the change forces fast-fails. The
   seed is searched for: the first whose fault pattern gives exactly
   that. *)
let test_revalidate_unreachable_get_is_not_refreshed () =
  let scenario seed =
    let u, site, _ = uni_setup () in
    let nm =
      Websim.Netmodel.create
        (Websim.Netmodel.config ~seed ~fault_rate:0.02 ~max_consecutive:1 ())
    in
    let fetcher =
      Websim.Fetcher.create
        ~config:
          (Websim.Fetcher.config ~retries:0 ~breaker_threshold:1 ~cache_capacity:0 ())
        ~netmodel:nm
        (Websim.Http.connect site)
    in
    let mv = Matview.materialize ~fetcher uni_schema (Websim.Http.connect site) in
    Websim.Netmodel.next_epoch nm;
    let changed = ("ProfPage", prof_url_at u 0) in
    let ok (_, url) = Websim.Netmodel.fault nm ~url ~attempt:1 = Websim.Netmodel.Ok_response in
    let keys = ref [] in
    Matview.iter_entries mv (fun ~scheme ~url ~access_date:_ -> keys := (scheme, url) :: !keys);
    let faulty = List.find_opt (fun k -> not (ok k)) (List.sort compare !keys) in
    match faulty with
    | Some faulty
      when (Websim.Fetcher.report fetcher).Websim.Fetcher.failed = 0
           && List.mem changed !keys && ok changed ->
      Some (site, fetcher, mv, changed, faulty)
    | _ -> None
  in
  let rec search seed =
    if seed > 2000 then Alcotest.fail "no seed gives the fault pattern"
    else match scenario seed with Some s -> s | None -> search (seed + 1)
  in
  let site, fetcher, mv, (scheme, url), faulty = search 0 in
  let date_before = Matview.entry_date mv ~scheme ~url in
  let tuple_before = Matview.stored_tuple mv ~scheme ~url in
  Websim.Site.tick site;
  check bool_t "page edited" true (Websim.Site.edit site url (fun b -> b ^ "<!-- v2 -->"));
  let before = Websim.Fetcher.report fetcher in
  let outcomes = Matview.revalidate_batch mv [ (scheme, url); faulty ] in
  let d = Websim.Fetcher.report_diff ~before ~after:(Websim.Fetcher.report fetcher) in
  check int_t "no GET got through" 0 d.Websim.Fetcher.gets;
  check bool_t "the forced GET fast-failed" true (d.Websim.Fetcher.breaker_fastfails >= 1);
  check bool_t "the changed page is unreachable, not refreshed" true
    (List.assoc_opt url (List.map (fun (_, u, o) -> (u, o)) outcomes) = Some `Unreachable);
  check bool_t "the faulty HEAD is unreachable" true
    (List.exists (fun (_, u, o) -> u = snd faulty && o = `Unreachable) outcomes);
  check bool_t "entry keeps its access date" true (Matview.entry_date mv ~scheme ~url = date_before);
  check bool_t "entry keeps its tuple" true
    (Option.equal Adm.Value.equal_tuple (Matview.stored_tuple mv ~scheme ~url) tuple_before)

(* ------------------------------------------------------------------ *)
(* Circuit breaker, cache, batching                                    *)
(* ------------------------------------------------------------------ *)

let test_breaker_trips_and_fastfails () =
  let u, site, _ = uni_setup () in
  let nm =
    Websim.Netmodel.create
      (Websim.Netmodel.config ~seed:1 ~fault_rate:1.0 ~max_consecutive:6 ())
  in
  let f =
    Websim.Fetcher.create
      ~config:
        (Websim.Fetcher.config ~retries:0 ~breaker_threshold:2 ~cache_capacity:0 ())
      ~netmodel:nm
      (Websim.Http.connect site)
  in
  check bool_t "1st request dead" true
    (Websim.Fetcher.get f (prof_url_at u 0) = Websim.Fetcher.Unreachable);
  check bool_t "2nd request dead" true
    (Websim.Fetcher.get f (prof_url_at u 1) = Websim.Fetcher.Unreachable);
  check bool_t "breaker open after threshold" true (Websim.Fetcher.breaker_open f);
  let before = Websim.Fetcher.report f in
  check int_t "tripped once" 1 before.Websim.Fetcher.breaker_trips;
  check bool_t "open breaker fast-fails" true
    (Websim.Fetcher.get f (prof_url_at u 2) = Websim.Fetcher.Unreachable);
  let after = Websim.Fetcher.report f in
  check int_t "no wire attempt while open" before.Websim.Fetcher.attempts
    after.Websim.Fetcher.attempts;
  check bool_t "fast-fails counted" true (after.Websim.Fetcher.breaker_fastfails >= 1)

let test_lru_eviction () =
  let u, site, _ = uni_setup () in
  let http = Websim.Http.connect site in
  let f =
    Websim.Fetcher.create ~config:(Websim.Fetcher.config ~cache_capacity:2 ()) http
  in
  ignore (Websim.Fetcher.get f (prof_url_at u 0));
  ignore (Websim.Fetcher.get f (prof_url_at u 1));
  ignore (Websim.Fetcher.get f (prof_url_at u 0)); (* hit, touches 0 *)
  ignore (Websim.Fetcher.get f (prof_url_at u 2)); (* evicts 1, the LRU *)
  ignore (Websim.Fetcher.get f (prof_url_at u 1)); (* miss again *)
  let c = Websim.Fetcher.report f in
  check int_t "wire GETs" 4 c.Websim.Fetcher.gets;
  check int_t "one cache hit" 1 c.Websim.Fetcher.cache_hits;
  check bool_t "evictions happened" true (c.Websim.Fetcher.cache_evictions >= 1)

let test_batch_overlap_and_coalescing () =
  let u, site, _ = uni_setup () in
  let urls = List.init 8 (prof_url_at u) in
  let mk window =
    let nm = Websim.Netmodel.create (Websim.Netmodel.config ~seed:9 ()) in
    Websim.Fetcher.create
      ~config:(Websim.Fetcher.config ~window ~cache_capacity:16 ())
      ~netmodel:nm
      (Websim.Http.connect site)
  in
  let f1 = mk 1 and f8 = mk 8 in
  ignore (Websim.Fetcher.get_batch f1 urls);
  ignore (Websim.Fetcher.get_batch f8 urls);
  check bool_t "window 8 overlaps latencies at least 4x" true
    (Websim.Fetcher.elapsed_ms f1 >= 4.0 *. Websim.Fetcher.elapsed_ms f8);
  let f = mk 8 in
  ignore (Websim.Fetcher.get_batch f (urls @ urls));
  check int_t "duplicates coalesced" 8
    (Websim.Fetcher.report f).Websim.Fetcher.coalesced;
  check int_t "one GET per distinct URL" 8
    (Websim.Http.stats (Websim.Fetcher.http f)).Websim.Http.gets

(* Batched traffic under faults: each batch counts one request per
   distinct URL (duplicates are coalesced, not requested), so the
   attempts bound of the evaluation test above holds for windows that
   never go through [get] too. *)
let test_batch_requests_under_faults () =
  let u, site, _ = uni_setup () in
  let urls = List.init 12 (prof_url_at u) in
  let fetcher = faulty_fetcher site in
  Websim.Fetcher.prefetch fetcher (urls @ [ List.hd urls ]);
  ignore (Websim.Fetcher.get_batch fetcher (List.filteri (fun i _ -> i < 4) urls));
  ignore (Websim.Fetcher.head_batch fetcher (urls @ urls));
  let r = Websim.Fetcher.report fetcher in
  check int_t "one request per distinct URL of each batch" (12 + 4 + 12)
    r.Websim.Fetcher.requests;
  check int_t "duplicates coalesced" (1 + 12) r.Websim.Fetcher.coalesced;
  check bool_t "faults forced retries" true (r.Websim.Fetcher.retries > 0);
  check bool_t "attempts bounded by requests * (retries + 1)" true
    (r.Websim.Fetcher.attempts <= r.Websim.Fetcher.requests * 4)

(* ------------------------------------------------------------------ *)
(* Extended HTTP stats (HEAD bytes, failures, truncated transfers)     *)
(* ------------------------------------------------------------------ *)

let test_http_extended_stats () =
  let _, site, _ = uni_setup () in
  let http = Websim.Http.connect site in
  let before = Websim.Http.snapshot http in
  ignore (Websim.Http.head http Sitegen.University.home_url);
  ignore (Websim.Http.head http "/nonexistent");
  Websim.Http.record_failed http;
  let full =
    match Websim.Http.get http Sitegen.University.home_url with
    | Some (b, _) -> b
    | None -> Alcotest.fail "home page exists"
  in
  let partial =
    match Websim.Http.get_partial http Sitegen.University.home_url ~keep:0.5 with
    | Some (b, _) -> b
    | None -> Alcotest.fail "home page exists"
  in
  let d = Websim.Http.diff ~before ~after:(Websim.Http.snapshot http) in
  check int_t "both HEADs counted" 2 d.Websim.Http.heads;
  check int_t "HEAD bytes accrue even on 404"
    (2 * Websim.Http.head_overhead_bytes)
    d.Websim.Http.head_bytes;
  check int_t "one 404" 1 d.Websim.Http.not_found;
  check int_t "one failed exchange" 1 d.Websim.Http.failed;
  check int_t "partial transfer still counts as a GET" 2 d.Websim.Http.gets;
  check bool_t "truncated body is a proper prefix" true
    (String.length partial < String.length full
    && String.equal partial (String.sub full 0 (String.length partial)));
  check int_t "only received bytes accrue"
    (String.length full + String.length partial)
    d.Websim.Http.bytes

let suite =
  ( "netsim",
    [
      Alcotest.test_case "netmodel: seeded determinism" `Quick
        test_netmodel_determinism;
      Alcotest.test_case "netmodel: episodes are transient by construction"
        `Quick test_episode_bounds;
      Alcotest.test_case "pass-through: crawl counters identical" `Quick
        test_passthrough_crawl_identity;
      Alcotest.test_case "pass-through: query + matview counters identical"
        `Quick test_passthrough_query_identity;
      QCheck_alcotest.to_alcotest prop_faulty_eval_exact;
      Alcotest.test_case "faults: exact results on all sites" `Quick
        test_faulty_eval_exact_all_sites;
      Alcotest.test_case "dangling links skipped identically" `Quick
        test_dangling_skipped_identically;
      Alcotest.test_case "matview: stale service over a dead network" `Quick
        test_matview_serves_stale_when_unreachable;
      Alcotest.test_case "matview: off-line sweep under faults" `Quick
        test_offline_sweep_under_faults;
      Alcotest.test_case "matview: stale service while breaker open" `Quick
        test_matview_stale_serve_breaker_open;
      Alcotest.test_case "matview: sweep backlog across open/half-open" `Quick
        test_sweep_keeps_backlog_across_breaker_states;
      Alcotest.test_case "matview: unreachable GET is not a refresh" `Quick
        test_revalidate_unreachable_get_is_not_refreshed;
      Alcotest.test_case "breaker: trips and fast-fails" `Quick
        test_breaker_trips_and_fastfails;
      Alcotest.test_case "cache: bounded LRU eviction" `Quick test_lru_eviction;
      Alcotest.test_case "batch: window overlap and coalescing" `Quick
        test_batch_overlap_and_coalescing;
      Alcotest.test_case "http: HEAD bytes, failures, truncation" `Quick
        test_http_extended_stats;
      Alcotest.test_case "batch: requests counted under faults" `Quick
        test_batch_requests_under_faults;
    ] )
