(* Tests for the live-churn runtime: bare site mutation semantics
   (delete / touch / insert), fetcher-cache coherence under mutation,
   the seeded traffic generator, the wire budget, the maintenance
   engine, and the freshness SLA layer threaded through Sched results.
   Includes the issue's QCheck property: at churn rate 0 the
   maintenance engine performs no GET refreshes and serve results are
   byte-identical to a no-churn run across seeds 7/21/42 and 1 vs 4
   domains. The last block pins the wire accounting (every request
   paid once, a view scan's only requests its revalidations) and
   checks the view store's cached extents and the maintenance lane's
   one-pass selection against the evaluation and the full sort they
   replace. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let schema = (Sitegen.Sites.load University).schema

(* A fresh university site — most tests mutate it — beside its
   generator's records and one connection. *)
let setup () =
  let uni = Sitegen.University.build () in
  let site = (Sitegen.Sites.of_university uni).site in
  (uni, site, Websim.Http.connect site)

(* The churn runtime over its own connection to [site]. *)
let run_on ?sched cfg (site : Sitegen.Sites.t) workload =
  Churn.Runtime.run ?sched cfg site.schema (Sitegen.Sites.stats site) site.registry
    (Websim.Http.connect site.site) workload

(* ------------------------------------------------------------------ *)
(* Satellite: bare site mutation semantics                             *)
(* ------------------------------------------------------------------ *)

let test_delete_is_definitive_404 () =
  let uni, site, http = setup () in
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  check bool_t "page exists before" true (Websim.Site.mem site url);
  Websim.Site.delete site url;
  check bool_t "page gone from site" false (Websim.Site.mem site url);
  check bool_t "GET 404s" true (Websim.Http.get http url = None);
  check bool_t "HEAD 404s" true (Websim.Http.head http url = None)

let test_delete_purged_on_sweep () =
  let uni, site, http = setup () in
  let mv = Matview.materialize schema http in
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  Websim.Site.delete site url;
  Websim.Site.tick site;
  (* URLCheck sees the 404: entry dropped, deferred to CheckMissing *)
  check bool_t "url_check returns None" true
    (Matview.url_check mv ~scheme:"ProfPage" ~url = None);
  check int_t "backlog holds the page" 1 (Matview.check_missing_backlog mv);
  check bool_t "entry dropped" true (Matview.stored_tuple mv ~scheme:"ProfPage" ~url = None);
  (* the sweep confirms the 404 and clears the backlog *)
  check int_t "sweep purges it" 1 (Matview.offline_sweep mv);
  check int_t "backlog drained" 0 (Matview.check_missing_backlog mv)

let test_touch_observed_by_urlcheck () =
  let uni, site, http = setup () in
  let mv = Matview.materialize schema http in
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  let lm_before = (Option.get (Websim.Site.find site url)).Websim.Site.last_modified in
  Websim.Site.tick site;
  Websim.Site.touch site url;
  let lm_after = (Option.get (Websim.Site.find site url)).Websim.Site.last_modified in
  check bool_t "Last-Modified bumped" true (lm_after > lm_before);
  Matview.reset_counters mv;
  check bool_t "tuple still served" true
    (Matview.url_check mv ~scheme:"ProfPage" ~url <> None);
  let c = Matview.counters mv in
  check int_t "URLCheck HEAD saw the change" 1 c.Matview.light_connections;
  check int_t "and re-downloaded" 1 c.Matview.downloads

(* A HEAD that proves an entry current refreshes its access date, at
   query time as in maintenance: URLCheck hands the light connection's
   outcome to the same handler as [Matview.revalidate]. *)
let test_urlcheck_current_bumps_access_date () =
  let uni, site, http = setup () in
  let mv = Matview.materialize schema http in
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  let materialized = Websim.Site.clock site in
  check bool_t "dated at materialization" true
    (Matview.entry_date mv ~scheme:"ProfPage" ~url = Some materialized);
  Websim.Site.tick ~by:5 site;
  Matview.reset_counters mv;
  check bool_t "tuple served" true (Matview.url_check mv ~scheme:"ProfPage" ~url <> None);
  let c = Matview.counters mv in
  check int_t "one light connection" 1 c.Matview.light_connections;
  check int_t "no download" 0 c.Matview.downloads;
  check int_t "served as a local hit" 1 c.Matview.local_hits;
  check bool_t "access date refreshed to now" true
    (Matview.entry_date mv ~scheme:"ProfPage" ~url = Some (materialized + 5))

let test_insert_discoverable_by_recrawl () =
  let uni, site, http = setup () in
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  let body = (Option.get (Websim.Site.find site url)).Websim.Site.body in
  let count () =
    let instance = Websim.Crawler.crawl schema http in
    List.fold_left
      (fun acc (_, rel) -> acc + Adm.Relation.cardinality rel)
      0 instance.Websim.Crawler.relations
  in
  let full = count () in
  Websim.Site.delete site url;
  check int_t "crawl loses the page" (full - 1) (count ());
  Websim.Site.tick site;
  Websim.Site.put site ~url ~body;
  check int_t "re-inserted page rediscovered" full (count ())

(* ------------------------------------------------------------------ *)
(* Satellite: fetcher-cache coherence under mutation                   *)
(* ------------------------------------------------------------------ *)

(* The fetcher's LRU caches 404s too: the second read of a deleted
   page is answered from the negative entry, without the wire. *)
let test_negative_cache_serves_404 () =
  let uni, site, http = setup () in
  let fetcher =
    Websim.Fetcher.create ~config:(Websim.Fetcher.config ~cache_capacity:64 ()) http
  in
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  Websim.Site.delete site url;
  check bool_t "404 cached" true (Websim.Fetcher.get fetcher url = Websim.Fetcher.Absent);
  check bool_t "negative entry served" true
    (Websim.Fetcher.get fetcher url = Websim.Fetcher.Absent);
  check int_t "one 404 on the wire" 1 (Websim.Http.stats http).Websim.Http.not_found

(* The store's HEAD protocol is its only freshness layer: a caching
   fetcher beneath it would answer a re-download with the very body
   the HEAD proved out of date, so [materialize] rejects one up front
   and the default fetcher caches nothing. *)
let test_matview_rejects_caching_fetcher () =
  let uni, _, http = setup () in
  let fetcher =
    Websim.Fetcher.create ~config:(Websim.Fetcher.config ~cache_capacity:8192 ()) http
  in
  Alcotest.check_raises "caching fetcher rejected"
    (Invalid_argument "Matview.materialize: the fetcher caches pages") (fun () ->
      ignore (Matview.materialize ~fetcher schema http));
  let mv = Matview.materialize schema http in
  check bool_t "default fetcher caches nothing" false
    (Websim.Fetcher.caching (Matview.fetcher mv));
  let url = Sitegen.University.prof_url (List.hd (Sitegen.University.profs uni)).Sitegen.University.p_name in
  check bool_t "store built" true (Matview.stored_tuple mv ~scheme:"ProfPage" ~url <> None)

(* ------------------------------------------------------------------ *)
(* The traffic generator                                               *)
(* ------------------------------------------------------------------ *)

let test_traffic_deterministic () =
  let run () =
    let _, site, _ = setup () in
    let t =
      Churn.Traffic.create ~seed:7 ~profile:Churn.Profile.high site
    in
    let applied = Churn.Traffic.run_ticks t 200 in
    (applied, Churn.Traffic.applied_by_kind t, Websim.Site.revision site)
  in
  let a = run () and b = run () in
  check bool_t "same mutations, same revisions" true (a = b);
  let applied, _, _ = a in
  check bool_t "high profile actually mutates" true (applied > 0)

let test_traffic_rate_zero_only_ticks () =
  let _, site, _ = setup () in
  let rev = Websim.Site.revision site in
  let clock0 = Websim.Site.clock site in
  let t = Churn.Traffic.create ~seed:7 ~profile:Churn.Profile.zero site in
  check int_t "no mutations at rate 0" 0 (Churn.Traffic.run_ticks t 500);
  check int_t "applied counter agrees" 0 (Churn.Traffic.applied t);
  check int_t "revision untouched" rev (Websim.Site.revision site);
  check int_t "but the clock advanced" (clock0 + 500) (Websim.Site.clock site)

let test_traffic_protects_entry_points () =
  let _, site, _ = setup () in
  let profile =
    Churn.Profile.make ~rate:1.0 ~tombstone_rate:1.0 ~insert_rate:0.0 ()
  in
  let t =
    Churn.Traffic.create ~seed:11
      ~protect:[ Sitegen.University.home_url; Sitegen.University.prof_list_url ]
      ~profile site
  in
  ignore (Churn.Traffic.run_ticks t 100);
  check bool_t "deletes happened" true (Churn.Traffic.tombstones t > 0);
  check bool_t "entry points survive" true
    (Websim.Site.mem site Sitegen.University.home_url
    && Websim.Site.mem site Sitegen.University.prof_list_url)

let test_traffic_insert_resurrects () =
  let _, site, _ = setup () in
  let before = Websim.Site.page_count site in
  let profile =
    Churn.Profile.make ~rate:1.0 ~tombstone_rate:0.5 ~insert_rate:0.5 ()
  in
  let t = Churn.Traffic.create ~seed:3 ~profile site in
  ignore (Churn.Traffic.run_ticks t 300);
  let kinds = Churn.Traffic.applied_by_kind t in
  let n k = List.assoc k kinds in
  check bool_t "both deletes and inserts occurred" true
    (n Churn.Traffic.Delete > 0 && n Churn.Traffic.Insert > 0);
  check int_t "population accounts exactly" before
    (Websim.Site.page_count site + Churn.Traffic.tombstones t)

(* ------------------------------------------------------------------ *)
(* The wire budget                                                     *)
(* ------------------------------------------------------------------ *)

let test_budget_accounting () =
  let b = Churn.Budget.create ~per_turn:2.0 () in
  check bool_t "first unit admitted" true (Churn.Budget.admit b 1.0);
  check bool_t "second admitted" true (Churn.Budget.admit b 1.0);
  (* balance now 0: dry *)
  check bool_t "third denied" false (Churn.Budget.admit b 1.0);
  check int_t "denial counted" 1 (Churn.Budget.denied b);
  Churn.Budget.refill b;
  (* positive again: a big action may overdraw *)
  check bool_t "overdraft admitted" true (Churn.Budget.admit b 10.0);
  check bool_t "bucket deep in debt" true (Churn.Budget.balance b < 0.0);
  check bool_t "and dry again" false (Churn.Budget.admit b 1.0);
  check bool_t "spend tracked" true (Churn.Budget.spent b = 12.0)

(* ------------------------------------------------------------------ *)
(* The runtime: maintenance, SLAs, verdicts                            *)
(* ------------------------------------------------------------------ *)

let runtime_config ?(profile = Churn.Profile.high) ?(policy = Churn.Runtime.Incremental)
    ?(budget = 1000.0) ?(max_age = 30) ?(seed = 5) () =
  Churn.Runtime.config ~profile ~churn_seed:seed
    ~sla:(Churn.Sla.create ~default_max_age:max_age ())
    ~budget_per_turn:budget ~policy ()

let run_runtime ?sched ?(cfg = runtime_config ()) ~wseed ~n () =
  run_on ?sched cfg (Sitegen.Sites.load University)
    (Server.Workload.generate ~seed:wseed ~n ())

let test_runtime_generous_budget_no_violations () =
  let rep = run_runtime ~wseed:7 ~n:16 () in
  check int_t "no SLA violations at generous budget" 0 rep.Churn.Runtime.violations;
  check bool_t "mutations happened" true (rep.Churn.Runtime.mutations_total > 0);
  check bool_t "maintenance worked" true
    (rep.Churn.Runtime.maintenance.Churn.Maintain.heads > 0);
  check bool_t "HEAD-mostly economics" true
    (rep.Churn.Runtime.maintenance.Churn.Maintain.heads
    >= rep.Churn.Runtime.maintenance.Churn.Maintain.gets_refreshed)

let test_runtime_freshness_threaded_through_sched () =
  let rep = run_runtime ~wseed:7 ~n:12 () in
  let results = rep.Churn.Runtime.sched.Server.Sched.results in
  check int_t "every result carries a freshness verdict"
    (List.length results)
    (List.length
       (List.filter
          (fun (r : Server.Sched.result) -> r.Server.Sched.freshness <> None)
          results));
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 rep.Churn.Runtime.verdicts
  in
  check int_t "verdict histogram covers all queries" (List.length results) total

let test_runtime_starved_budget_degrades_not_fails () =
  let cfg = runtime_config ~budget:0.5 ~max_age:10 () in
  let rep = run_runtime ~cfg ~wseed:7 ~n:16 () in
  (* the answers still arrive; freshness checks get denied instead *)
  check int_t "all queries answered" 16
    (List.length rep.Churn.Runtime.sched.Server.Sched.results);
  check bool_t "denials recorded" true (rep.Churn.Runtime.budget_denied > 0)

(* Churn queries read the materialized store through the runtime's
   own page source, never through the shared cache's: under every
   policy and churn profile its tuple tier and sharing ledger stay
   empty, so there is nothing there for a refresh to invalidate. *)
let test_runtime_reads_skip_the_tuple_tier () =
  List.iter
    (fun (profile, pname) ->
      List.iter
        (fun policy ->
          let cfg = runtime_config ~profile ~policy () in
          let rep = run_runtime ~cfg ~wseed:7 ~n:12 () in
          let ledger = rep.Churn.Runtime.sched.Server.Sched.ledger in
          let label what =
            Fmt.str "%s, %s: %s" pname (Churn.Runtime.policy_to_string policy) what
          in
          check int_t (label "no URL on the shared tier") 0
            ledger.Server.Shared_cache.distinct_gets;
          check int_t (label "no per-query request") 0
            ledger.Server.Shared_cache.sum_per_query)
        [ Churn.Runtime.Incremental; Churn.Runtime.Full_refresh; Churn.Runtime.No_maintenance ])
    [ (Churn.Profile.low, "low"); (Churn.Profile.high, "high") ]

(* A small site for long, tight runs. *)
let small_university () =
  Sitegen.Sites.of_university
    (Sitegen.University.build
       ~config:
         {
           Sitegen.University.default_config with
           Sitegen.University.n_depts = 2;
           n_profs = 6;
           n_courses = 10;
           n_sessions = 2;
         }
       ())

let test_runtime_incremental_beats_full_refresh () =
  (* a small site and a long, tight run: the policies must actually
     get to act (ages crossing max_age; the full-refresh bucket
     accruing a whole recrawl several times) before being compared *)
  let run policy =
    let cfg =
      Churn.Runtime.config ~profile:Churn.Profile.high ~churn_seed:5
        ~sla:(Churn.Sla.create ~default_max_age:6 ())
        ~budget_per_turn:8.0 ~policy ()
    in
    run_on ~sched:(Server.Sched.config ~concurrency:4 ~quantum:1 ()) cfg
      (small_university ())
      (Server.Workload.generate ~seed:7 ~n:96 ())
  in
  let inc = run Churn.Runtime.Incremental in
  let full = run Churn.Runtime.Full_refresh in
  check bool_t "full-refresh passes actually ran" true
    (full.Churn.Runtime.full_refreshes > 0);
  check bool_t
    (Fmt.str "incremental staleness (%.2f) strictly below full-refresh (%.2f)"
       inc.Churn.Runtime.mean_staleness full.Churn.Runtime.mean_staleness)
    true
    (inc.Churn.Runtime.mean_staleness < full.Churn.Runtime.mean_staleness)

let test_runtime_view_scans_observed () =
  (* every plan answers from the Professor view: the pages its scans
     serve must reach each query's freshness observation, at a starved
     budget as much as at a generous one *)
  let n = 12 in
  let cfg =
    Churn.Runtime.config ~profile:Churn.Profile.high ~churn_seed:5
      ~sla:(Churn.Sla.create ~default_max_age:6 ())
      ~budget_per_turn:2.0 ()
  in
  let rep =
    run_on ~sched:(Server.Sched.config ~concurrency:4 ~quantum:1 ()) cfg
      (small_university ())
      (Server.Workload.generate
         ~templates:[ "SELECT p.PName, p.Email FROM Professor p" ]
         ~seed:7 ~n ())
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string int_t))
    "every plan is view-answered" [ ("Professor", n) ] rep.Churn.Runtime.views_chosen;
  List.iter
    (fun (r : Server.Sched.result) ->
      let served =
        match r.Server.Sched.freshness with
        | Some f -> f.Server.Sched.pages_served
        | None -> 0
      in
      check bool_t (Fmt.str "q%d: SLA observer counts served pages" r.Server.Sched.qid)
        true (served > 0))
    rep.Churn.Runtime.sched.Server.Sched.results

let test_runtime_sweep_drains_backlog () =
  let profile =
    Churn.Profile.make ~rate:0.5 ~tombstone_rate:0.4 ~insert_rate:0.0 ()
  in
  let cfg = runtime_config ~profile ~max_age:10 () in
  let rep = run_runtime ~cfg ~wseed:7 ~n:24 () in
  let m = rep.Churn.Runtime.maintenance in
  check bool_t "deletions were discovered" true (m.Churn.Maintain.gone > 0);
  check bool_t "and the sweep processed the backlog" true (m.Churn.Maintain.swept > 0)

(* ------------------------------------------------------------------ *)
(* QCheck: rate 0 == frozen snapshot, across seeds and domain counts   *)
(* ------------------------------------------------------------------ *)

let digest_rows rows =
  (* order-sensitive structural digest over every row and value *)
  Adm.Relation.to_seq rows
  |> Seq.fold_left
       (fun acc row ->
         Array.fold_left
           (fun acc v -> (acc * 1000003) lxor Adm.Value.hash v)
           ((acc * 1000003) lxor Array.length row)
           row)
       (Adm.Relation.cardinality rows)

let digest_results (rep : Churn.Runtime.report) =
  List.map
    (fun (r : Server.Sched.result) ->
      (r.Server.Sched.qid, Adm.Relation.cardinality r.Server.Sched.rows,
       digest_rows r.Server.Sched.rows))
    rep.Churn.Runtime.sched.Server.Sched.results

(* Order-normalized variant for comparisons across plan families: the
   incremental policy may answer a query from a registered view, whose
   rows arrive in store order rather than navigation order, and whose
   output attributes carry the query's own aliases (p.PName) where a
   navigation plan carries page-scheme ones (ProfPage.PName). Compare
   arity and content, not names. *)
let sorted_results (rep : Churn.Runtime.report) =
  List.map
    (fun (r : Server.Sched.result) ->
      ( r.Server.Sched.qid,
        List.length (Adm.Relation.attrs r.Server.Sched.rows),
        List.sort compare (Adm.Relation.rows_arrays r.Server.Sched.rows) ))
    rep.Churn.Runtime.sched.Server.Sched.results

let prop_rate_zero_is_frozen =
  QCheck.Test.make ~name:"churn rate 0 == no-churn run (seeds 7/21/42, 1 vs 4 domains)"
    ~count:6
    QCheck.(pair (Gen.oneofl [ 7; 21; 42 ] |> make) (Gen.oneofl [ 1; 4 ] |> make))
    (fun (wseed, domains) ->
      let sched = Server.Sched.config ~domains () in
      let churn_run policy profile =
        let cfg =
          Churn.Runtime.config ~profile ~churn_seed:wseed
            ~sla:(Churn.Sla.create ~default_max_age:20 ())
            ~budget_per_turn:1000.0 ~policy ()
        in
        run_runtime ~sched ~cfg ~wseed ~n:12 ()
      in
      let live = churn_run Churn.Runtime.Incremental (Churn.Profile.make ~rate:0.0 ()) in
      let frozen = churn_run Churn.Runtime.No_maintenance Churn.Profile.zero in
      let one_domain =
        if domains = 1 then live
        else
          let cfg =
            Churn.Runtime.config ~profile:(Churn.Profile.make ~rate:0.0 ())
              ~churn_seed:wseed
              ~sla:(Churn.Sla.create ~default_max_age:20 ())
              ~budget_per_turn:1000.0 ~policy:Churn.Runtime.Incremental ()
          in
          run_runtime ~sched:(Server.Sched.config ~domains:1 ()) ~cfg ~wseed ~n:12 ()
      in
      live.Churn.Runtime.mutations_total = 0
      && live.Churn.Runtime.maintenance.Churn.Maintain.gets_refreshed = 0
      && live.Churn.Runtime.violations = 0
      (* across policies the plan families differ (views vs
         navigation), so compare content, order-normalized *)
      && sorted_results live = sorted_results frozen
      (* across domain counts everything is byte-identical *)
      && digest_results live = digest_results one_domain)

(* ------------------------------------------------------------------ *)
(* Wire accounting, the extent cache and the one-pass selection        *)
(* ------------------------------------------------------------------ *)

(* Churn that deletes and resurrects pages, so view scans meet links
   whose target the store has dropped. *)
let deleting = Churn.Profile.make ~rate:0.5 ~tombstone_rate:0.3 ~insert_rate:0.2 ()

(* The churn runtime's pieces driven by hand over the small site: each
   tick churns the site, lets [mutate] change it and the store further,
   refills the budget, runs one maintenance slice and scans every
   registered view through the runtime's budget gates. [on_scan] gets
   each answer with the wire requests the scan made. *)
let drive ?(mutate = fun _ _ -> ()) ~seed ~budget ~ticks on_scan =
  let site = small_university () in
  let store = Matview.materialize site.schema (Websim.Http.connect site.site) in
  let vs = Viewstore.create site.schema site.registry store in
  let traffic =
    Churn.Traffic.create ~seed
      ~protect:
        (List.filter_map Adm.Page_scheme.entry_url (Adm.Schema.entry_points site.schema))
      ~profile:deleting site.site
  in
  let costs = Churn.Budget.default_costs in
  let b = Churn.Budget.create ~per_turn:budget () in
  let engine =
    Churn.Maintain.create ~sla:(Churn.Sla.create ~default_max_age:6 ()) ~budget:b ~costs
      store
  in
  let fetcher = Matview.fetcher store in
  for _ = 1 to ticks do
    ignore (Churn.Traffic.tick traffic);
    mutate site.site store;
    Churn.Budget.refill b;
    Churn.Maintain.slice engine ~relevant:(fun _ -> true);
    List.iter
      (fun (rel : View.relation) ->
        let before = Websim.Fetcher.report fetcher in
        Option.iter
          (fun va ->
            let wire =
              Websim.Fetcher.report_diff ~before ~after:(Websim.Fetcher.report fetcher)
            in
            on_scan ~store ~rel ~wire va)
          (Viewstore.scan
             ~admit_head:(fun () -> Churn.Budget.admit b costs.Churn.Budget.head)
             ~charge_get:(fun () -> Churn.Budget.force b costs.Churn.Budget.get)
             vs ~view:rel.View.rel_name))
      site.registry
  done

(* Every wire request of a churn run is paid for exactly once: the
   budget spent is the wire HEADs and GETs at their unit costs, and a
   view scan's only requests are its budgeted revalidations. *)
let test_runtime_wire_charged_once () =
  let costs = Churn.Budget.default_costs in
  let deletes = ref 0 and scan_heads = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun budget ->
          let label what = Fmt.str "seed %d, budget %.0f: %s" seed budget what in
          let cfg =
            Churn.Runtime.config ~profile:deleting ~churn_seed:seed
              ~sla:(Churn.Sla.create ~default_max_age:6 ())
              ~budget_per_turn:budget ()
          in
          let rep =
            run_on ~sched:(Server.Sched.config ~concurrency:4 ~quantum:1 ()) cfg
              (small_university ())
              (Server.Workload.generate ~seed ~n:96 ())
          in
          let w = rep.Churn.Runtime.wire in
          deletes := !deletes + List.assoc Churn.Traffic.Delete rep.Churn.Runtime.mutations;
          check (Alcotest.float 0.0)
            (label (Fmt.str "%d HEADs and %d GETs paid once" w.Websim.Fetcher.heads
                      w.Websim.Fetcher.gets))
            ((float_of_int w.Websim.Fetcher.heads *. costs.Churn.Budget.head)
            +. (float_of_int w.Websim.Fetcher.gets *. costs.Churn.Budget.get))
            rep.Churn.Runtime.budget_spent;
          drive ~seed ~budget ~ticks:60 (fun ~store:_ ~rel ~wire va ->
              scan_heads := !scan_heads + va.Exec.va_heads;
              check int_t
                (label (rel.View.rel_name ^ " scan: wire = its revalidations"))
                (va.Exec.va_heads + va.Exec.va_gets)
                (wire.Websim.Fetcher.heads + wire.Websim.Fetcher.gets)))
        [ 2.0; 4.0; 8.0 ])
    [ 7; 21; 42 ];
  check bool_t "pages were deleted" true (!deletes > 0);
  check bool_t "view scans revalidated" true (!scan_heads > 0)

(* The view over the stored tuples, evaluated without the view store:
   its rows and the stored pages it read. *)
let evaluate_stored store (rel : View.relation) =
  let nav = List.hd rel.View.navigations in
  let attrs = List.map (fun a -> List.assoc a nav.View.bindings) rel.View.rel_attrs in
  let pages = ref 0 in
  let fetch ~scheme ~url =
    let tuple = Matview.stored_tuple store ~scheme ~url in
    if Option.is_some tuple then incr pages;
    tuple
  in
  let result =
    Eval.eval schema
      { Eval.fetch; prefetch = (fun ~scheme:_ _ -> ()); window = 32; views = None }
      (Nalg.project attrs nav.View.nav_expr)
  in
  (Array.of_list (Adm.Relation.rows_arrays result), !pages)

(* Traffic leaves extracted attributes alone and never re-adds a page
   to the store, so the property also changes tuples: a page takes the
   body of another page of its scheme (maintenance re-downloads it once
   its HEAD shows the change), and a page the store lacks is
   downloaded, as a query discovering it would. *)
let rewrite_and_discover rand =
  let scheme_of = Hashtbl.create 64 in
  fun site store ->
    let stored = ref [] in
    Matview.iter_entries store (fun ~scheme ~url ~access_date:_ ->
        Hashtbl.replace scheme_of url scheme;
        stored := (scheme, url) :: !stored);
    let stored = Array.of_list (List.sort compare !stored) in
    let pick () = stored.(Random.State.int rand (Array.length stored)) in
    if Array.length stored > 1 && Random.State.int rand 3 = 0 then begin
      let scheme, url = pick () and scheme', url' = pick () in
      match Websim.Site.find site url' with
      | Some page when String.equal scheme scheme' ->
        Websim.Site.put site ~url ~body:page.Websim.Site.body
      | _ -> ()
    end;
    let missing =
      List.filter_map
        (fun url ->
          match Hashtbl.find_opt scheme_of url with
          | Some scheme when Matview.stored_tuple store ~scheme ~url = None ->
            Some (scheme, url)
          | _ -> None)
        (Websim.Site.urls site)
    in
    if missing <> [] && Random.State.int rand 3 = 0 then begin
      let scheme, url = List.nth missing (Random.State.int rand (List.length missing)) in
      ignore (Matview.download_entry store ~scheme ~url)
    end

let prop_extent_is_reevaluation seed =
  QCheck.Test.make
    ~name:(Fmt.str "view scans, seed %d: cached extent = re-evaluation" seed)
    ~count:4
    QCheck.(triple (int_range 1 12) (int_range 10 40) (int_bound 1_000_000))
    (fun (budget, ticks, mutation_seed) ->
      let scans = ref 0 in
      let rand = Random.State.make [| mutation_seed |] in
      drive ~mutate:(rewrite_and_discover rand) ~seed ~budget:(float_of_int budget) ~ticks
        (fun ~store ~rel ~wire:_ va ->
          incr scans;
          let rows, pages = evaluate_stored store rel in
          if va.Exec.va_rows <> rows || va.Exec.va_pages <> pages then
            QCheck.Test.fail_reportf "%s after %d scans: %d rows / %d pages, re-evaluation %d / %d"
              rel.View.rel_name !scans (Array.length va.Exec.va_rows) va.Exec.va_pages
              (Array.length rows) pages);
      !scans > 0)

(* The full sort the one-pass selection replaced: every entry over the
   debt threshold in (relevance, debt, scheme, url) order, cut to the
   first [k]. *)
let full_sort_candidates store sla ~threshold ~k ~relevant =
  let now = Matview.now store in
  let acc = ref [] in
  Matview.iter_entries store (fun ~scheme ~url ~access_date ->
      let age = now - access_date in
      let max_age = Churn.Sla.max_age sla ~scheme in
      let debt =
        if max_age <= 0 then float_of_int age
        else float_of_int age /. float_of_int max_age
      in
      if debt >= threshold then acc := (relevant scheme, debt, scheme, url) :: !acc);
  List.sort
    (fun (r1, d1, s1, u1) (r2, d2, s2, u2) ->
      match Bool.compare r2 r1 with
      | 0 -> (
        match Float.compare d2 d1 with
        | 0 -> ( match String.compare s1 s2 with 0 -> String.compare u1 u2 | c -> c)
        | c -> c)
      | c -> c)
    !acc
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (_, _, scheme, url) -> (scheme, url))

(* A store whose entries carry varied access dates: the clock moves
   on, random entries get revalidated (their date jumps to now), and
   some of them are deleted first (the 404 drops the entry). *)
let random_store rand =
  let site = small_university () in
  let store = Matview.materialize site.schema (Websim.Http.connect site.site) in
  for _ = 1 to Random.State.int rand 60 do
    Websim.Site.tick ~by:(Random.State.int rand 4) site.site;
    let entries = ref [] in
    Matview.iter_entries store (fun ~scheme ~url ~access_date:_ ->
        entries := (scheme, url) :: !entries);
    let entries = List.sort compare !entries in
    if entries <> [] then begin
      let scheme, url = List.nth entries (Random.State.int rand (List.length entries)) in
      if Random.State.int rand 8 = 0 then Websim.Site.delete site.site url;
      ignore (Matview.revalidate store ~scheme ~url)
    end
  done;
  store

let prop_candidates_are_full_sort_prefix =
  QCheck.Test.make ~name:"maintain: one-pass candidates = first k of the full sort"
    ~count:60
    QCheck.(
      quad (int_bound 1_000_000) (int_range 0 8)
        (make ~print:string_of_float Gen.(oneofl [ 0.0; 0.5; 1.0; 2.0 ]))
        (int_bound 1_000_000))
    (fun (store_seed, k, threshold, map_seed) ->
      let store = random_store (Random.State.make [| store_seed |]) in
      let rand = Random.State.make [| map_seed |] in
      let schemes = List.sort String.compare (Matview.schemes store) in
      let relevant_set = List.filter (fun _ -> Random.State.bool rand) schemes in
      let relevant scheme = List.mem scheme relevant_set in
      let sla =
        Churn.Sla.create ~default_max_age:(Random.State.int rand 8)
          ~per_view:
            (List.filter_map
               (fun scheme ->
                 if Random.State.bool rand then Some (scheme, Random.State.int rand 8)
                 else None)
               schemes)
          ()
      in
      let engine =
        Churn.Maintain.create
          ~config:(Churn.Maintain.config ~max_actions_per_slice:k ~debt_threshold:threshold ())
          ~sla ~budget:(Churn.Budget.unlimited ()) ~costs:Churn.Budget.default_costs store
      in
      Churn.Maintain.candidates engine ~relevant
      = full_sort_candidates store sla ~threshold ~k ~relevant)

let suite =
  ( "churn",
    [
      Alcotest.test_case "site: delete is a definitive 404" `Quick test_delete_is_definitive_404;
      Alcotest.test_case "site: delete purged on sweep" `Quick test_delete_purged_on_sweep;
      Alcotest.test_case "site: touch observed by URLCheck" `Quick test_touch_observed_by_urlcheck;
      Alcotest.test_case "url_check: a current HEAD refreshes the access date" `Quick
        test_urlcheck_current_bumps_access_date;
      Alcotest.test_case "site: insert discoverable by re-crawl" `Quick
        test_insert_discoverable_by_recrawl;
      Alcotest.test_case "fetcher: negative cache serves the 404" `Quick
        test_negative_cache_serves_404;
      Alcotest.test_case "fetcher: matview over caching fetcher rejected" `Quick
        test_matview_rejects_caching_fetcher;
      Alcotest.test_case "traffic: deterministic from seed" `Quick test_traffic_deterministic;
      Alcotest.test_case "traffic: rate 0 only ticks" `Quick test_traffic_rate_zero_only_ticks;
      Alcotest.test_case "traffic: entry points protected" `Quick
        test_traffic_protects_entry_points;
      Alcotest.test_case "traffic: inserts resurrect tombstones" `Quick
        test_traffic_insert_resurrects;
      Alcotest.test_case "budget: admit/deny/overdraft" `Quick test_budget_accounting;
      Alcotest.test_case "runtime: generous budget, zero violations" `Quick
        test_runtime_generous_budget_no_violations;
      Alcotest.test_case "runtime: freshness threaded through Sched" `Quick
        test_runtime_freshness_threaded_through_sched;
      Alcotest.test_case "runtime: starved budget degrades gracefully" `Quick
        test_runtime_starved_budget_degrades_not_fails;
      Alcotest.test_case "runtime: incremental beats full refresh" `Quick
        test_runtime_incremental_beats_full_refresh;
      Alcotest.test_case "runtime: sweep drains the backlog" `Quick
        test_runtime_sweep_drains_backlog;
      QCheck_alcotest.to_alcotest prop_rate_zero_is_frozen;
      Alcotest.test_case "runtime: reads never touch the shared tuple tier" `Quick
        test_runtime_reads_skip_the_tuple_tier;
      Alcotest.test_case "runtime: view scans reach the SLA observer" `Quick
        test_runtime_view_scans_observed;
      Alcotest.test_case "runtime: every wire request charged once (seeds 7/21/42, budgets 2/4/8)"
        `Quick test_runtime_wire_charged_once;
    ]
    @ List.map
        (fun seed ->
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
            (prop_extent_is_reevaluation seed))
        [ 7; 21; 42 ]
    @ [
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |])
          prop_candidates_are_full_sort_prefix;
      ] )
