(* The paper's claims as assertions over its literal plans
   ([Sitegen.University.fig3_*], [fig4_*]). The experiments' output is
   pinned as text; these cases fail when a claim flips, so a `dune
   promote` of that text cannot accept a flipped claim. *)

open Webviews
module U = Sitegen.University

(* The cost the model predicts for [plan] and the pages it downloads on
   [site]. *)
let measure (site : Sitegen.Sites.t) plan =
  let http = Websim.Http.connect site.site in
  ignore (Eval.eval site.schema (Eval.live_source site.schema http) plan);
  (Cost.cost site.schema (Sitegen.Sites.stats site) plan, (Websim.Http.stats http).Websim.Http.gets)

let university config = Sitegen.Sites.of_university (U.build ~config ())

(* Example 7.1 (Figure 3): C(1d) <= C(2d), in measured pages, at every
   full-professor fraction of EXP-2's sweep. *)
let test_ex71_join_never_loses () =
  List.iter
    (fun frac ->
      let site = university { U.default_config with full_fraction = frac } in
      let _, join = measure site (U.fig3_pointer_join ()) in
      let _, chase = measure site (U.fig3_pointer_chase ()) in
      Alcotest.(check bool)
        (Fmt.str "fraction %.2f: (1d) %d pages <= (2d) %d pages" frac join chase)
        true (join <= chase))
    [ 0.1; 1.0 /. 3.0; 0.66; 1.0 ]

(* Example 7.2 (Figure 4) on the paper's 50 courses, 20 professors and
   3 departments: the chase costs less than the join, predicted and
   measured, and the join costs well over 50. *)
let test_ex72_chase_wins () =
  let site = university U.default_config in
  let join_cost, join = measure site (U.fig4_pointer_join ()) in
  let chase_cost, chase = measure site (U.fig4_pointer_chase ()) in
  Alcotest.(check bool)
    (Fmt.str "predicted: chase %.1f < join %.1f" chase_cost join_cost)
    true (chase_cost < join_cost);
  Alcotest.(check bool) (Fmt.str "measured: chase %d < join %d pages" chase join) true (chase < join);
  Alcotest.(check bool)
    (Fmt.str "join over 50 (predicted %.1f, measured %d)" join_cost join)
    true
    (join_cost > 50.0 && join > 50)

(* EXP-7: over EXP-7's department counts, the literal chase reads fewer
   pages than the literal join from 2 departments on, and the two tie
   at one department (72 pages each). *)
let test_exp7_crossover () =
  List.iter
    (fun n_depts ->
      let site = university { U.default_config with n_depts } in
      let _, join = measure site (U.fig4_pointer_join ()) in
      let _, chase = measure site (U.fig4_pointer_chase ()) in
      if n_depts = 1 then
        Alcotest.(check (pair int int)) "one department: a tie" (72, 72) (join, chase)
      else
        Alcotest.(check bool)
          (Fmt.str "%d departments: chase %d < join %d pages" n_depts chase join)
          true (chase < join))
    [ 1; 2; 3; 6; 10 ]

(* EXP-1 (the introduction): on the bibliography site, reaching the
   last three VLDBs' authors through every author's page (path 4)
   downloads at least ten times the pages of each of paths 1-3. *)
let test_exp1_path4_order_of_magnitude () =
  let site = Sitegen.Sites.load Bibliography in
  let _, via_authors = measure site (Sitegen.Bibliography.path4_via_authors ()) in
  List.iter
    (fun (name, plan) ->
      let _, pages = measure site plan in
      Alcotest.(check bool)
        (Fmt.str "path 4 (%d pages) >= 10 x %s (%d pages)" via_authors name pages)
        true
        (via_authors >= 10 * pages))
    [
      ("path 1", Sitegen.Bibliography.path1_all_conferences ());
      ("path 2", Sitegen.Bibliography.path2_db_conferences ());
      ("path 3", Sitegen.Bibliography.path3_direct_link ());
    ]

(* Section 8 (EXP-5): re-running the Fall-courses query on the
   materialized store issues one HEAD per page the virtual plan
   downloads (C(E) light connections) and one GET per revised page it
   visits, whatever share of the courses was revised. *)
let test_sec8_heads_are_virtual_gets () =
  let sql = "SELECT c.CName, c.Type FROM Course c WHERE c.Session = 'Fall'" in
  List.iter
    (fun pct ->
      let uni = U.build () in
      let site = Sitegen.Sites.of_university uni in
      let plan =
        (Planner.plan_sql site.schema (Sitegen.Sites.stats site) site.registry sql)
          .Planner.best.Planner.expr
      in
      let mv = Matview.materialize site.schema (Websim.Http.connect site.site) in
      let _, virtual_gets = measure site plan in
      let courses = U.courses uni in
      let k = List.length courses * pct / 100 in
      let revised_fall =
        List.length
          (List.filteri
             (fun i (c : U.course) ->
               i < k && U.revise_course uni ~c_name:c.U.c_name && c.U.c_session = "Fall")
             courses)
      in
      let r = Matview.query_counted mv plan in
      let label what = Fmt.str "%d%% revised: %s" pct what in
      Alcotest.(check int) (label "HEADs = the virtual plan's GETs") virtual_gets
        r.Matview.light_connections;
      Alcotest.(check int) (label "GETs = revised Fall courses") revised_fall r.Matview.downloads;
      if pct = 0 then Alcotest.(check int) (label "no GET") 0 r.Matview.downloads;
      Alcotest.(check bool)
        (label (Fmt.str "%d GETs <= %d HEADs" r.Matview.downloads r.Matview.light_connections))
        true
        (r.Matview.downloads <= r.Matview.light_connections))
    [ 0; 10; 25; 50; 100 ]

(* CheckMissing (EXP-8): two professor pages deleted without notice
   wait in the backlog; the off-line sweep purges both and drains it,
   and the re-query answers the 18 professors left. *)
let test_checkmissing_sweep_drains () =
  let uni = U.build () in
  let site = Sitegen.Sites.of_university uni in
  let plan =
    (Planner.plan_sql site.schema (Sitegen.Sites.stats site) site.registry
       "SELECT p.PName, p.Rank FROM Professor p")
      .Planner.best.Planner.expr
  in
  let mv = Matview.materialize site.schema (Websim.Http.connect site.site) in
  ignore (Matview.query_counted mv plan);
  Websim.Site.tick site.site;
  List.iter
    (fun (p : U.prof) -> Websim.Site.delete site.site (U.prof_url p.U.p_name))
    (List.filteri (fun i _ -> i < 2) (U.profs uni));
  ignore (Matview.query_counted mv plan);
  Alcotest.(check int) "backlog after 2 deletions" 2 (Matview.check_missing_backlog mv);
  Alcotest.(check int) "sweep purges 2" 2 (Matview.offline_sweep mv);
  Alcotest.(check int) "backlog drained" 0 (Matview.check_missing_backlog mv);
  Alcotest.(check int) "re-query: 18 professors" 18
    (Adm.Relation.cardinality (Matview.query_counted mv plan).Matview.result)

let suite =
  ( "claims",
    [
      Alcotest.test_case "ex7.1: (1d) never reads more pages than (2d)" `Quick
        test_ex71_join_never_loses;
      Alcotest.test_case "ex7.2: the chase wins, the join costs over 50" `Quick
        test_ex72_chase_wins;
      Alcotest.test_case "exp7: the chase wins from 2 departments, ties at 1" `Quick
        test_exp7_crossover;
      Alcotest.test_case "exp1: path 4 reads 10x the pages of paths 1-3" `Quick
        test_exp1_path4_order_of_magnitude;
      Alcotest.test_case "sec8: HEADs = C(E), GETs = revised pages visited" `Quick
        test_sec8_heads_are_virtual_gets;
      Alcotest.test_case "checkmissing: the sweep drains the backlog" `Quick
        test_checkmissing_sweep_drains;
    ] )
