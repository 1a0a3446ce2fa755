(* Views as access paths (PR 9): the planner prices a registered
   materialized view by light-connection economics against pure
   navigation and picks the winner. These tests pin the two halves of
   that race — a fresh view wins and returns exactly the rows the
   navigation plan returns; a stale view over schemes observed to
   churn loses until revalidation — plus the property, across the
   three generated sites, that whichever plan wins the race computes
   the same relation. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let registry = (Sitegen.Sites.load University).registry
let seeds = [ 7; 21; 42 ]

(* Row-set equality: plan families order rows differently, so compare
   the sorted row lists (values byte-identical, order normalized). *)
let sorted_rows rel = List.sort compare (Adm.Relation.rows_arrays rel)

let same_rows name r1 r2 =
  check (Alcotest.list (Alcotest.list Alcotest.string)) (name ^ ": attrs")
    [ Adm.Relation.attrs r1 ]
    [ Adm.Relation.attrs r2 ];
  check bool_t (name ^ ": rows") true (sorted_rows r1 = sorted_rows r2)

(* One site under test: its statistics, a live connection for
   navigation plans and a materialized store (own connection, same
   site) behind a view store. *)
let setup_store (site : Sitegen.Sites.t) =
  let stats = Sitegen.Sites.stats site in
  (site, stats, Websim.Http.connect site.site, Sitegen.Sites.viewstore site)

(* Plan and run [sql] both ways over the same site; return both
   outcomes and both results. *)
let both_ways ((site : Sitegen.Sites.t), stats, http, vs) sql =
  let source = Eval.live_source site.schema http in
  let nav = Planner.run site.schema stats site.registry source sql in
  let viewed =
    Planner.run
      ~views:(Viewstore.context vs)
      ~exec_views:(Viewstore.answerer vs)
      site.schema stats site.registry source sql
  in
  (nav, viewed)

(* --- the fresh-view race, pinned on the university site ------------ *)

let test_fresh_view_wins () =
  let ((_, _, _, vs) as env) = setup_store (Sitegen.Sites.load University) in
  (* Email is not replicated on the department page, so the navigation
     plan must download every professor page; the fresh store answers
     without touching the wire at all. *)
  let sql = "SELECT p.PName, p.Email FROM Professor p" in
  let store_http = Matview.fetcher (Viewstore.store vs) |> Websim.Fetcher.http in
  let before = (Websim.Http.stats store_http).Websim.Http.gets in
  let (nav_outcome, nav_rel), (view_outcome, view_rel) =
    both_ways env sql
  in
  let store_gets = (Websim.Http.stats store_http).Websim.Http.gets - before in
  check bool_t "fresh view is chosen" true
    (view_outcome.Planner.view_used <> []);
  check bool_t "W0605 reported" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.Diagnostic.code = "W0605")
       view_outcome.Planner.diagnostics);
  check bool_t "view plan is cheaper" true
    (view_outcome.Planner.best.Planner.cost
    < nav_outcome.Planner.best.Planner.cost);
  check int_t "fresh view downloads nothing" 0 store_gets;
  same_rows "view = navigation" nav_rel view_rel;
  (* provenance names the substituted occurrence *)
  match view_outcome.Planner.view_used with
  | [] -> Alcotest.fail "substitution provenance missing"
  | s :: _ ->
    check bool_t "provenance names a registered view" true
      (View.find registry s.Planner.sub_view <> None)

(* --- the stale race: churny schemes price the view out ------------- *)

let test_stale_view_loses_until_revalidated () =
  let site = Sitegen.Sites.load University in
  let ((_, _, _, vs) as env) = setup_store site in
  let sql = "SELECT p.PName, p.Email FROM Professor p" in
  (* Age the whole store by one tick and teach the change-rate
     observations that these schemes churn on every check: the view
     now prices at pages × (HEAD + ~1 GET) > pages × GET of pure
     navigation, and must lose. *)
  Websim.Site.tick site.site;
  List.iter
    (fun scheme ->
      for _ = 1 to 20 do
        Viewstore.observe vs scheme ~changed:true
      done)
    [ "DeptListPage"; "DeptPage"; "ProfPage" ];
  let _, (stale_outcome, stale_rel) =
    both_ways env sql
  in
  check bool_t "stale churny view loses the race" true
    (stale_outcome.Planner.view_used = []);
  (* Revalidate the view (maintenance): every page HEAD-checked, the
     access dates bumped, the observations fed with reality (nothing
     actually changed). The race flips back. *)
  (match Viewstore.scan ~head_budget:max_int vs ~view:"Professor" with
  | None -> Alcotest.fail "Professor view must be scannable"
  | Some a -> check bool_t "revalidation issued HEADs" true (a.Exec.va_heads > 0));
  let _, (fresh_outcome, fresh_rel) =
    both_ways env sql
  in
  check bool_t "revalidated view wins again" true
    (fresh_outcome.Planner.view_used <> []);
  same_rows "stale-era = fresh-era rows" stale_rel fresh_rel

(* --- dead-view lint (W0606) ---------------------------------------- *)

let test_dead_view_lint () =
  let index = Viewmatch.make registry in
  let occurrences = [ View.find_exn registry "Professor" ] in
  let dead = Viewmatch.dead_views index occurrences in
  (* Course, Dept, … are untouched by a Professor-only workload *)
  check bool_t "some views are dead for a Professor-only workload" true
    (dead <> []);
  check bool_t "Professor itself is not dead" true
    (not
       (List.exists
          (fun (r : View.relation) -> r.View.rel_name = "Professor")
          dead));
  let ds = Viewmatch.workload_lint index occurrences in
  check bool_t "W0606 emitted" true
    (List.for_all (fun (d : Diagnostic.t) -> d.Diagnostic.code = "W0606") ds
    && List.length ds = List.length dead);
  check (Alcotest.list Alcotest.string) "empty workload: no verdict" []
    (List.map
       (fun (d : Diagnostic.t) -> d.Diagnostic.code)
       (Viewmatch.workload_lint index []))

(* --- property: view-substituted best = navigation best -------------- *)

let uni_env = lazy (setup_store (Sitegen.Sites.load University))

let agree_on name env sql =
  let (_, nav_rel), (_, view_rel) = both_ways env sql in
  same_rows name nav_rel view_rel

let test_seeded_university_agreement () =
  let env = Lazy.force uni_env in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      for i = 1 to 5 do
        let sql = Test_equivalence.query_gen st in
        agree_on (Fmt.str "uni seed %d query %d" seed i) env sql
      done)
    seeds

let prop_university_agreement =
  QCheck.Test.make ~name:"fresh views: substituted best = navigation best"
    ~count:25 Test_equivalence.query_arb (fun sql ->
      let (_, nav_rel), (_, view_rel) = both_ways (Lazy.force uni_env) sql in
      Adm.Relation.attrs nav_rel = Adm.Relation.attrs view_rel
      && sorted_rows nav_rel = sorted_rows view_rel)

let test_seeded_catalog_agreement () =
  let c = Sitegen.Catalog.build () in
  let env = setup_store (Sitegen.Sites.of_catalog c) in
  let products = Sitegen.Catalog.products c in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = List.nth products (Random.State.int st (List.length products)) in
      [
        Fmt.str "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = '%s'"
          p.Sitegen.Catalog.brand;
        Fmt.str
          "SELECT p.PName FROM Product p WHERE p.Category = '%s' AND p.Price < %d"
          p.Sitegen.Catalog.category
          (p.Sitegen.Catalog.price + 1);
      ]
      |> List.iteri (fun i sql ->
             agree_on
               (Fmt.str "catalog seed %d query %d" seed i)
               env sql))
    seeds

let test_seeded_bibliography_agreement () =
  (* the bibliography site ships no hand-written external view: the
     inferred automatic registry is the view under test *)
  let ((bib, _, _, _) as env) = setup_store (Sitegen.Sites.load Bibliography) in
  List.iter
    (fun seed ->
      ignore seed;
      List.iteri
        (fun i (rel : View.relation) ->
          match rel.View.rel_attrs with
          | a :: _ ->
            agree_on
              (Fmt.str "bib seed %d rel %d" seed i)
              env
              (Fmt.str "SELECT x.%s FROM %s x" a rel.View.rel_name)
          | [] -> ())
        bib.registry)
    seeds

let suite =
  ( "views",
    [
      Alcotest.test_case "fresh view wins the cost race" `Quick
        test_fresh_view_wins;
      Alcotest.test_case "stale view loses until revalidated" `Quick
        test_stale_view_loses_until_revalidated;
      Alcotest.test_case "dead-view lint (W0606)" `Quick test_dead_view_lint;
      Alcotest.test_case "seeded university agreement (7/21/42)" `Slow
        test_seeded_university_agreement;
      QCheck_alcotest.to_alcotest prop_university_agreement;
      Alcotest.test_case "seeded catalog agreement (7/21/42)" `Slow
        test_seeded_catalog_agreement;
      Alcotest.test_case "seeded bibliography agreement (7/21/42)" `Slow
        test_seeded_bibliography_agreement;
    ] )
