(* Benchmark harness: regenerates every experiment of the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured) and runs bechamel wall-clock timings of the
   optimizer and evaluator.

   Usage:  main.exe [exp1 … exp8 | all | timings]
   Default: all experiments followed by timings. *)

open Webviews
module Sites = Sitegen.Sites

let banner title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let table_row cells widths =
  String.concat " | "
    (List.map2
       (fun s w -> s ^ String.make (max 0 (w - String.length s)) ' ')
       cells widths)

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w r -> max w (String.length (List.nth r i))) (String.length h) rows)
      header
  in
  Fmt.pr "%s@." (table_row header widths);
  Fmt.pr "%s@." (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> Fmt.pr "%s@." (table_row r widths)) rows

let f1 x = Fmt.str "%.1f" x

(* Measure the network cost of executing a plan against a fresh HTTP
   connection to [site]. *)
let measure_plan schema site expr =
  let http = Websim.Http.connect site in
  let source = Eval.live_source schema http in
  let result = Eval.eval schema source expr in
  let s = Websim.Http.stats http in
  (result, s.Websim.Http.gets, s.Websim.Http.bytes)

(* ------------------------------------------------------------------ *)
(* EXP-1 — the introduction's four access paths                        *)
(* ------------------------------------------------------------------ *)

let exp1 () =
  banner "EXP-1  Intro: four access paths to 'authors in the last 3 VLDBs'";
  let bib = Sitegen.Bibliography.build () in
  let s = Sites.of_bibliography bib in
  let schema = s.schema and site = s.site in
  let paths =
    [
      ("1. home → all conferences → VLDB", Sitegen.Bibliography.path1_all_conferences ());
      ("2. home → DB conferences → VLDB", Sitegen.Bibliography.path2_db_conferences ());
      ("3. home → VLDB directly", Sitegen.Bibliography.path3_direct_link ());
      ("4. home → all authors → each author", Sitegen.Bibliography.path4_via_authors ());
    ]
  in
  let rows =
    List.map
      (fun (name, expr) ->
        let result, gets, bytes = measure_plan schema site expr in
        [ name; string_of_int gets; string_of_int bytes;
          string_of_int (Adm.Relation.cardinality result) ])
      paths
  in
  print_table [ "access path"; "pages"; "bytes"; "tuples" ] rows;
  let regulars = Sitegen.Bibliography.vldb_regulars bib 3 in
  Fmt.pr "ground truth: %d author(s) in all of the last 3 VLDBs: %a@."
    (List.length regulars)
    Fmt.(list ~sep:comma string)
    regulars;
  Fmt.pr "paper claim: paths 1-3 are comparable; path 4 retrieves orders of@.";
  Fmt.pr "magnitude more pages (one per author). Path 2 touches a smaller page@.";
  Fmt.pr "than path 1 (same page count, fewer bytes).@.@.";
  (* ablation: the refined byte-based cost model (footnote 8) breaks
     the tie between paths 1 and 2 that page counting cannot see *)
  let stats = Sites.stats s in
  Fmt.pr "byte-based cost model (footnote 8) on the same four plans:@.";
  print_table
    [ "access path"; "predicted pages"; "predicted bytes" ]
    (List.map
       (fun (name, expr) ->
         [
           name;
           f1 (Cost.cost schema stats expr);
           Fmt.str "%.0f" (Cost.byte_cost schema stats expr);
         ])
       paths)

(* ------------------------------------------------------------------ *)
(* Shared university machinery for EXP-2/3/4/6/7                       *)
(* ------------------------------------------------------------------ *)

let university config = Sites.of_university (Sitegen.University.build ~config ())

let sql_71 =
  "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
   WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = 'Fall' AND p.Rank = 'Full'"

let sql_72 =
  "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
   WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName \
   AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'"

let sql_fig2 =
  "SELECT c.CName, c.Description FROM Course c, CourseInstructor ci, ProfDept pd \
   WHERE c.CName = ci.CName AND ci.PName = pd.PName AND pd.DName = 'Computer Science'"

(* For one query, the cheapest pointer-join and pointer-chase plans
   with predicted and measured costs. *)
let strategy_report (site : Sites.t) sql =
  let outcome = Planner.plan_sql site.schema (Sites.stats site) site.registry sql in
  List.filter_map
    (fun s ->
      match Explain.best_of_strategy outcome s with
      | None -> None
      | Some p ->
        let result, gets, _ = measure_plan site.schema site.site p.Planner.expr in
        Some (s, p, gets, Adm.Relation.cardinality result))
    [ Explain.Pointer_join; Explain.Pointer_chase ]

let exp2 () =
  banner "EXP-2  Example 7.1 / Figure 3: pointer-join vs pointer-chase";
  Fmt.pr "query: %s@.@." sql_71;
  let report = strategy_report (Sites.load University) sql_71 in
  print_table
    [ "strategy"; "predicted cost"; "measured pages"; "answer rows" ]
    (List.map
       (fun (s, (p : Planner.plan), gets, rows) ->
         [ Explain.strategy_name s; f1 p.Planner.cost; string_of_int gets;
           string_of_int rows ])
       report);
  Fmt.pr "@.paper claim: C(1d) <= C(2d) — the pointer-join plan (Figure 3 left)@.";
  Fmt.pr "never loses; equality only if all Fall courses are taught by full@.";
  Fmt.pr "professors. Sweep over the full-professor fraction:@.@.";
  let rows =
    List.map
      (fun frac ->
        let config = { Sitegen.University.default_config with full_fraction = frac } in
        let report = strategy_report (university config) sql_71 in
        let cell s =
          match List.find_opt (fun (s', _, _, _) -> s' = s) report with
          | Some (_, p, gets, _) -> Fmt.str "%s / %d" (f1 p.Planner.cost) gets
          | None -> "-"
        in
        [ Fmt.str "%.2f" frac; cell Explain.Pointer_join; cell Explain.Pointer_chase ])
      [ 0.1; 1.0 /. 3.0; 0.66; 1.0 ]
  in
  print_table [ "full fraction"; "join: cost / pages"; "chase: cost / pages" ] rows

(* The paper's two literal plans for Example 7.2 (Figure 4).

   Plan (1), pointer-join: intersect the CS department's professor
   pointers with the instructor pointers of all graduate courses
   (which requires downloading every session and course page), then
   navigate the resulting professor pointers.

   Plan (2), pointer-chase: navigate from the CS department page to
   its professors, then to their courses, and select graduate ones. *)

let literal_join_plan_72 () =
  let cs_prof_pointers =
    Nalg.unnest
      (Nalg.follow
         (Nalg.select
            [ Pred.eq_const "DeptListPage.DeptList.DName"
                (Adm.Value.text "Computer Science") ]
            (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList"))
         "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage")
      "DeptPage.ProfList"
  in
  let grad_instructor_pointers =
    Nalg.select
      [ Pred.eq_const "CoursePage.Type" (Adm.Value.text "Graduate") ]
      (Nalg.follow
         (Nalg.unnest
            (Nalg.follow
               (Nalg.unnest (Nalg.entry "SessionListPage") "SessionListPage.SesList")
               "SessionListPage.SesList.ToSes" ~scheme:"SessionPage")
            "SessionPage.CourseList")
         "SessionPage.CourseList.ToCourse" ~scheme:"CoursePage")
  in
  Nalg.project
    [ "ProfPage.PName"; "ProfPage.Email" ]
    (Nalg.follow
       (Nalg.join
          [ ("DeptPage.ProfList.ToProf", "CoursePage.ToProf") ]
          cs_prof_pointers grad_instructor_pointers)
       "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")

let literal_chase_plan_72 () =
  Nalg.project
    [ "ProfPage.PName"; "ProfPage.Email" ]
    (Nalg.select
       [ Pred.eq_const "CoursePage.Type" (Adm.Value.text "Graduate") ]
       (Nalg.follow
          (Nalg.unnest
             (Nalg.follow
                (Nalg.unnest
                   (Nalg.follow
                      (Nalg.select
                         [ Pred.eq_const "DeptListPage.DeptList.DName"
                             (Adm.Value.text "Computer Science") ]
                         (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList"))
                      "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage")
                   "DeptPage.ProfList")
                "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")
             "ProfPage.CourseList")
          "ProfPage.CourseList.ToCourse" ~scheme:"CoursePage"))

(* Measure the two literal plans on a configured site; answers differ
   in shape (plan 2 keeps one row per course) so we compare the
   professor sets. *)
let literal_plans_report (site : Sites.t) =
  List.map
    (fun (name, plan) ->
      let result, gets, _ = measure_plan site.schema site.site plan in
      let profs =
        Adm.Relation.cardinality (Adm.Relation.project [ "ProfPage.PName" ] result)
      in
      (name, Cost.cost site.schema (Sites.stats site) plan, gets, profs))
    [
      ("plan (1) pointer-join", literal_join_plan_72 ());
      ("plan (2) pointer-chase", literal_chase_plan_72 ());
    ]

let exp3 () =
  banner "EXP-3  Example 7.2 / Figure 4: pointer chase wins";
  let site = Sites.load University in
  let schema = site.schema and stats = Sites.stats site in
  Fmt.pr "query: %s@." sql_72;
  Fmt.pr "site: 50 courses, 20 professors, 3 departments (the paper's numbers)@.@.";
  Fmt.pr "the paper's two literal plans (Figure 4):@.@.";
  print_table
    [ "plan"; "predicted cost"; "measured pages"; "professors" ]
    (List.map
       (fun (name, cost, gets, profs) ->
         [ name; f1 cost; string_of_int gets; string_of_int profs ])
       (literal_plans_report site));
  Fmt.pr
    "@.paper claim: with 50 courses / 20 professors / 3 departments the chase@.";
  Fmt.pr "plan costs about 23 while the join plan is well over 50.@.@.";
  Fmt.pr "the optimizer's own best plans per strategy class:@.@.";
  let report = strategy_report site sql_72 in
  print_table
    [ "strategy"; "predicted cost"; "measured pages"; "answer rows" ]
    (List.map
       (fun (s, (p : Planner.plan), gets, rows) ->
         [ Explain.strategy_name s; f1 p.Planner.cost; string_of_int gets;
           string_of_int rows ])
       report);
  let outcome = Planner.plan_sql schema stats site.registry sql_72 in
  Fmt.pr "@.chosen plan (annotated):@.%a@."
    (Explain.pp_annotated schema stats)
    outcome.Planner.best.Planner.expr;
  (* ablation: what the optimizer loses without the constraint-aware
     rules of Section 6.1 *)
  Fmt.pr "@.ablation — best plan cost under restricted rule sets:@.@.";
  let variant name ?pointer_rules ?constraint_selections () =
    let o =
      Planner.plan_sql ?pointer_rules ?constraint_selections schema stats
        site.registry sql_72
    in
    let _, gets, _ = measure_plan schema site.site o.Planner.best.Planner.expr in
    [ name; f1 o.Planner.best.Planner.cost; string_of_int gets;
      string_of_int (List.length o.Planner.candidates) ]
  in
  print_table
    [ "rule set"; "best cost"; "measured"; "candidates" ]
    [
      variant "all rules (1-9)" ();
      variant "without pointer rules 8/9" ~pointer_rules:false ();
      variant "without selection rule 6" ~constraint_selections:false ();
      variant "without both" ~pointer_rules:false ~constraint_selections:false ();
    ]

let exp4 () =
  banner "EXP-4  Figure 2: courses held by members of the CS department";
  let site = Sites.load University in
  let schema = site.schema and stats = Sites.stats site in
  Fmt.pr "query: %s@.@." sql_fig2;
  let outcome = Planner.plan_sql schema stats site.registry sql_fig2 in
  Fmt.pr "%a@.@." Explain.pp_outcome outcome;
  Fmt.pr "best plan:@.%a@." (Explain.pp_annotated schema stats) outcome.Planner.best.Planner.expr;
  let result, gets, _ = measure_plan schema site.site outcome.Planner.best.Planner.expr in
  Fmt.pr "@.measured: %d pages downloaded, %d answer rows@." gets
    (Adm.Relation.cardinality result);
  Fmt.pr "top candidates:%a@." Explain.pp_candidates
    { outcome with Planner.candidates =
        (List.filteri (fun i _ -> i < 5) outcome.Planner.candidates) }

(* ------------------------------------------------------------------ *)
(* EXP-5 — materialized views vs virtual views under updates           *)
(* ------------------------------------------------------------------ *)

let exp5 () =
  banner "EXP-5  Section 8: materialized views, lazy maintenance";
  let sql =
    "SELECT c.CName, c.Type FROM Course c WHERE c.Session = 'Fall'"
  in
  Fmt.pr "query: %s@." sql;
  Fmt.pr "after materializing the site, a fraction of course pages is revised@.";
  Fmt.pr "and the query re-run on the materialized view:@.@.";
  let rows =
    List.map
      (fun update_pct ->
        let uni = Sitegen.University.build () in
        let site = Sites.of_university uni in
        let schema = site.schema in
        let outcome = Planner.plan_sql schema (Sites.stats site) site.registry sql in
        let plan = outcome.Planner.best.Planner.expr in
        let mv = Matview.materialize schema (Websim.Http.connect site.site) in
        (* virtual cost, measured fresh *)
        let _, virtual_gets, _ = measure_plan schema site.site plan in
        (* revise update_pct of the courses *)
        let courses = Sitegen.University.courses uni in
        let k = List.length courses * update_pct / 100 in
        List.iteri
          (fun i (c : Sitegen.University.course) ->
            if i < k then
              ignore (Sitegen.University.revise_course uni ~c_name:c.Sitegen.University.c_name))
          courses;
        let report = Matview.query_counted mv plan in
        [
          Fmt.str "%d%%" update_pct;
          string_of_int report.Matview.light_connections;
          string_of_int report.Matview.downloads;
          string_of_int virtual_gets;
          string_of_int (Adm.Relation.cardinality report.Matview.result);
        ])
      [ 0; 10; 25; 50; 100 ]
  in
  print_table
    [ "updated pages"; "light conns (HEAD)"; "downloads (GET)"; "virtual GETs"; "rows" ]
    rows;
  Fmt.pr "@.paper claim: the materialized view answers with C(E) light@.";
  Fmt.pr "connections plus one download per page actually updated; when few@.";
  Fmt.pr "pages changed this is far below the virtual-view cost.@."

(* ------------------------------------------------------------------ *)
(* EXP-6 — cost-model accuracy                                         *)
(* ------------------------------------------------------------------ *)

let exp6 () =
  banner "EXP-6  Cost model: predicted vs measured page accesses";
  let site = Sites.load University in
  let schema = site.schema and stats = Sites.stats site in
  let queries =
    [
      ("all departments", "SELECT d.DName, d.Address FROM Dept d");
      ("all professors", "SELECT p.PName, p.Rank FROM Professor p");
      ("full professors", "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'");
      ("fall courses", "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'");
      ( "CS professors",
        "SELECT p.PName FROM Professor p, ProfDept d WHERE p.PName = d.PName AND \
         d.DName = 'Computer Science'" );
      ("example 7.1", sql_71);
      ("example 7.2", sql_72);
      ("figure 2", sql_fig2);
    ]
  in
  let rows =
    List.map
      (fun (name, sql) ->
        let outcome = Planner.plan_sql schema stats site.registry sql in
        let best = outcome.Planner.best in
        let _, gets, _ = measure_plan schema site.site best.Planner.expr in
        let ratio = best.Planner.cost /. float_of_int (max 1 gets) in
        [ name; f1 best.Planner.cost; string_of_int gets; Fmt.str "%.2f" ratio ])
      queries
  in
  print_table [ "query"; "predicted"; "measured"; "ratio" ] rows;
  Fmt.pr "@.the estimates use exact site statistics, so ratios near 1.0 validate@.";
  Fmt.pr "the Section 6.2 cardinality rules on real navigations.@.@.";
  (* ablation: the per-query URL cache implements the cost model's
     "distinct accesses"; without it repeated links re-download *)
  Fmt.pr "per-query URL cache ablation (example 7.2 best plan):@.";
  let outcome = Planner.plan_sql schema stats site.registry sql_72 in
  let plan = outcome.Planner.best.Planner.expr in
  let measured ~cache =
    let http = Websim.Http.connect site.site in
    let source = Eval.live_source ~cache schema http in
    let _ = Eval.eval schema source plan in
    (Websim.Http.stats http).Websim.Http.gets
  in
  Fmt.pr "  with cache (distinct accesses): %d GETs@." (measured ~cache:true);
  Fmt.pr "  without cache (naive traversal): %d GETs@." (measured ~cache:false)

(* ------------------------------------------------------------------ *)
(* EXP-7 — crossover between the two strategies                        *)
(* ------------------------------------------------------------------ *)

let exp7 () =
  banner "EXP-7  Crossover: when does pointer-chase overtake pointer-join?";
  Fmt.pr "query: example 7.2 (CS professors teaching graduate courses),@.";
  Fmt.pr "comparing the paper's two literal plans. Fewer departments means the@.";
  Fmt.pr "CS department covers more professors, eroding the chase's@.";
  Fmt.pr "selectivity until intersecting pointer sets pays off again:@.@.";
  let rows =
    List.map
      (fun n_depts ->
        let config = { Sitegen.University.default_config with n_depts } in
        let report = literal_plans_report (university config) in
        let cell name =
          match List.find_opt (fun (n, _, _, _) -> String.equal n name) report with
          | Some (_, cost, gets, _) -> Fmt.str "%s / %d" (f1 cost) gets
          | None -> "-"
        in
        let winner =
          match
            List.sort (fun (_, _, g1, _) (_, _, g2, _) -> Int.compare g1 g2) report
          with
          | (name, _, _, _) :: _ -> name
          | [] -> "-"
        in
        [
          string_of_int n_depts;
          cell "plan (1) pointer-join";
          cell "plan (2) pointer-chase";
          winner;
        ])
      [ 1; 2; 3; 6; 10 ]
  in
  print_table
    [ "#depts"; "join: cost / pages"; "chase: cost / pages"; "winner (measured)" ]
    rows;
  Fmt.pr "@.with a single department the chase must visit every professor and@.";
  Fmt.pr "every course they teach, so intersecting pointer sets wins; as the@.";
  Fmt.pr "number of departments grows the chase plan's selectivity improves@.";
  Fmt.pr "and it takes over — the Section 7 conclusion.@."

(* ------------------------------------------------------------------ *)
(* EXP-8 — lazy maintenance anomaly and off-line sweep                 *)
(* ------------------------------------------------------------------ *)

let exp8 () =
  banner "EXP-8  Section 8: deletions, CheckMissing and the off-line sweep";
  let uni = Sitegen.University.build () in
  let site = Sites.of_university uni in
  let schema = site.schema in
  let outcome =
    Planner.plan_sql schema (Sites.stats site) site.registry
      "SELECT p.PName, p.Rank FROM Professor p"
  in
  let plan = outcome.Planner.best.Planner.expr in
  let mv = Matview.materialize schema (Websim.Http.connect site.site) in
  let r0 = Matview.query_counted mv plan in
  Fmt.pr "initial query: %d professors, %d light connections, %d downloads@."
    (Adm.Relation.cardinality r0.Matview.result)
    r0.Matview.light_connections r0.Matview.downloads;
  (* the site manager deletes two professor pages without warning *)
  let victims = List.filteri (fun i _ -> i < 2) (Sitegen.University.profs uni) in
  Websim.Site.tick site.site;
  List.iter
    (fun (p : Sitegen.University.prof) ->
      Websim.Site.delete site.site (Sitegen.University.prof_url p.Sitegen.University.p_name))
    victims;
  let r1 = Matview.query_counted mv plan in
  Fmt.pr "after deleting 2 pages: %d professors, CheckMissing backlog = %d@."
    (Adm.Relation.cardinality r1.Matview.result)
    (Matview.check_missing_backlog mv);
  let purged = Matview.offline_sweep mv in
  Fmt.pr "off-line sweep purged %d dead pages; backlog now %d@." purged
    (Matview.check_missing_backlog mv);
  let r2 = Matview.query_counted mv plan in
  Fmt.pr "re-query: %d professors (consistent, answers stay correct throughout)@."
    (Adm.Relation.cardinality r2.Matview.result);
  Fmt.pr "@.paper claim: missing URLs are deferred to CheckMissing and checked@.";
  Fmt.pr "off-line, so query answers remain correct without paying deletion@.";
  Fmt.pr "processing at query time.@."

(* ------------------------------------------------------------------ *)
(* EXP-9 — a different site family: the product catalog                *)
(* ------------------------------------------------------------------ *)

let exp9 () =
  banner "EXP-9  Catalog: symmetric paths, range selections, entry choice";
  let site = Sites.load Catalog in
  let schema = site.schema and stats = Sites.stats site in
  Fmt.pr "every product is reachable through its category AND its brand (an@.";
  Fmt.pr "equivalence); the optimizer must enter through whichever side the@.";
  Fmt.pr "selection makes cheap:@.@.";
  let queries =
    [
      ("by brand", "SELECT p.PName FROM Product p WHERE p.Brand = 'Acme'");
      ("by category", "SELECT p.PName FROM Product p WHERE p.Category = 'Audio'");
      ( "brand + price range",
        "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50" );
      ("unselective", "SELECT p.PName FROM Product p WHERE p.Price > 495");
    ]
  in
  let rows =
    List.map
      (fun (name, sql) ->
        let outcome = Planner.plan_sql schema stats site.registry sql in
        let best = outcome.Planner.best in
        let result, gets, _ = measure_plan schema site.site best.Planner.expr in
        let entry =
          List.find_opt
            (fun a -> Filename.check_suffix a "ListPage")
            (Nalg.aliases best.Planner.expr)
          |> Option.value ~default:"?"
        in
        [
          name; entry; f1 best.Planner.cost; string_of_int gets;
          string_of_int (Adm.Relation.cardinality result);
        ])
      queries
  in
  print_table [ "query"; "chosen entry"; "predicted"; "measured"; "rows" ] rows;
  Fmt.pr "@.the brand-selective query enters through the 4 brand pages, the@.";
  Fmt.pr "category-selective one through the 8 category pages; neither ever@.";
  Fmt.pr "downloads the other hierarchy.@."

(* ------------------------------------------------------------------ *)
(* EXP-10 — scale sweep                                                *)
(* ------------------------------------------------------------------ *)

let exp10 () =
  banner "EXP-10  Scale sweep: plan choice and cost growth with site size";
  Fmt.pr "the example 7.2 query on universities of growing size (departments@.";
  Fmt.pr "fixed at 3, professors and courses scaled together):@.@.";
  let rows =
    List.map
      (fun scale ->
        let config =
          {
            Sitegen.University.default_config with
            n_profs = 20 * scale;
            n_courses = 50 * scale;
          }
        in
        let site = university config in
        let schema = site.schema and stats = Sites.stats site in
        let t0 = Unix.gettimeofday () in
        let outcome = Planner.plan_sql schema stats site.registry sql_72 in
        let plan_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let best = outcome.Planner.best in
        let t1 = Unix.gettimeofday () in
        let result, gets, _ = measure_plan schema site.site best.Planner.expr in
        let exec_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
        [
          Fmt.str "%dx (%d pages)" scale (Websim.Site.page_count site.site);
          Explain.strategy_name (Explain.strategy best.Planner.expr);
          f1 best.Planner.cost;
          string_of_int gets;
          string_of_int (Adm.Relation.cardinality result);
          Fmt.str "%.0f" plan_ms;
          Fmt.str "%.0f" exec_ms;
        ])
      [ 1; 2; 5; 10 ]
  in
  print_table
    [ "scale"; "winning strategy"; "predicted"; "measured"; "rows"; "plan ms"; "exec ms" ]
    rows;
  Fmt.pr "@.the chase keeps winning at every scale (its cost grows with the CS@.";
  Fmt.pr "department, not with the site), and the measured pages track the@.";
  Fmt.pr "predictions; planning time is independent of site size (it depends@.";
  Fmt.pr "only on the query and the scheme).@."

(* ------------------------------------------------------------------ *)
(* Kernel microbenchmarks: the in-memory relational engine             *)
(* ------------------------------------------------------------------ *)

(* Synthetic relations exercising the NALG hot path: equi_join,
   distinct, unnest and nest at 1k/10k/100k rows. Results go to stdout
   and to BENCH_kernel.json so the perf trajectory is tracked across
   PRs. *)

let kernel_sizes = [ 1_000; 10_000; 100_000 ]

let kernel_left n =
  let m = max 1 (n / 10) in
  Adm.Relation.make
    [ "L.K"; "L.A"; "L.B"; "L.C" ]
    (List.init n (fun i ->
         [
           ("L.K", Adm.Value.Int (i mod m));
           ("L.A", Adm.Value.text ("left-" ^ string_of_int i));
           ("L.B", Adm.Value.Int (i * 7));
           ("L.C", Adm.Value.link ("/page/" ^ string_of_int i));
         ]))

let kernel_right n =
  let m = max 1 (n / 10) in
  Adm.Relation.make
    [ "R.K"; "R.D" ]
    (List.init m (fun j ->
         [ ("R.K", Adm.Value.Int j); ("R.D", Adm.Value.text ("right-" ^ string_of_int j)) ]))

(* n rows, n/10 distinct: the worst case for string-rendered keys. *)
let kernel_dupes n =
  let m = max 1 (n / 10) in
  Adm.Relation.make
    [ "D.K"; "D.A"; "D.B" ]
    (List.init n (fun i ->
         [
           ("D.K", Adm.Value.Int (i mod m));
           ("D.A", Adm.Value.text ("dup-" ^ string_of_int (i mod m)));
           ("D.B", Adm.Value.Int (i mod m * 3));
         ]))

(* n/50 outer rows of 50 nested tuples each: n rows once unnested. *)
let kernel_nested n =
  let outer = max 1 (n / 50) in
  Adm.Relation.make
    [ "Dept"; "Profs" ]
    (List.init outer (fun i ->
         [
           ("Dept", Adm.Value.text ("dept-" ^ string_of_int i));
           ( "Profs",
             Adm.Value.Rows
               (List.init 50 (fun j ->
                    [
                      ("P", Adm.Value.text (Fmt.str "p-%d-%d" i j));
                      ("Rank", Adm.Value.Int (j mod 4));
                    ])) );
         ]))

let kernel_tests () =
  let open Bechamel in
  List.concat_map
    (fun n ->
      let left = kernel_left n in
      let right = kernel_right n in
      let dupes = kernel_dupes n in
      let nested = kernel_nested n in
      let flat = Adm.Relation.unnest "Profs" nested in
      [
        Test.make
          ~name:(Fmt.str "equi_join/%d" n)
          (Staged.stage (fun () ->
               ignore (Adm.Relation.equi_join [ ("L.K", "R.K") ] left right)));
        Test.make
          ~name:(Fmt.str "distinct/%d" n)
          (Staged.stage (fun () -> ignore (Adm.Relation.distinct dupes)));
        Test.make
          ~name:(Fmt.str "unnest/%d" n)
          (Staged.stage (fun () -> ignore (Adm.Relation.unnest "Profs" nested)));
        Test.make
          ~name:(Fmt.str "nest/%d" n)
          (Staged.stage (fun () -> ignore (Adm.Relation.nest ~into:"Profs" flat)));
      ])
    kernel_sizes

let kernel () =
  banner "Kernel microbenchmarks (in-memory relational engine)";
  let open Bechamel in
  let open Toolkit in
  let grouped = Test.make_grouped ~name:"kernel" ~fmt:"%s %s" (kernel_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.filter_map (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some [ est ] -> Some (name, est)
           | Some _ | None -> None)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "%-30s %15s@." "benchmark" "ns/run";
  List.iter (fun (name, ns) -> Fmt.pr "%-30s %15.0f@." name ns) rows;
  (* machine-readable trace for the perf trajectory *)
  let oc = open_out "BENCH_kernel.json" in
  let strip name =
    match String.index_opt name ' ' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  Printf.fprintf oc "{\n  \"suite\": \"kernel\",\n  \"unit\": \"ns_per_run\",\n  \"results\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %.1f }%s\n" (strip name) ns
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Fmt.pr "@.wrote BENCH_kernel.json (%d entries)@." (List.length rows)

(* ------------------------------------------------------------------ *)
(* Fetch-engine benchmark: batched windows and fault resilience        *)
(* ------------------------------------------------------------------ *)

(* The two literal plans of Example 7.2 through the resilient fetch
   engine over a simulated network. Batching a navigation's URL set
   under window w overlaps the per-page latencies, so the simulated
   elapsed time drops by ~w; and a 10% transient failure rate still
   yields the exact fault-free relation, at a bounded retry overhead.
   Results go to stdout and BENCH_fetch.json. *)

let fetch_scenario schema site plan ~window ~fault_rate =
  let http = Websim.Http.connect site in
  let netmodel =
    Websim.Netmodel.create (Websim.Netmodel.config ~seed:42 ~fault_rate ())
  in
  let fetcher =
    Websim.Fetcher.create
      ~config:(Websim.Fetcher.config ~window ~retries:3 ())
      ~netmodel http
  in
  Eval.eval_fetched schema fetcher plan

let fetch () =
  banner "Fetch engine: batched windows and fault resilience (example 7.2)";
  let { Sites.schema; site; _ } = Sites.load University in
  let plans =
    [
      ("pointer-join", literal_join_plan_72 ());
      ("pointer-chase", literal_chase_plan_72 ());
    ]
  in
  let scenarios =
    [ ("latency-w1", 1, 0.0); ("latency-w8", 8, 0.0); ("faults10-w8", 8, 0.10) ]
  in
  let records =
    List.concat_map
      (fun (plan_name, plan) ->
        let baseline, _, _ = measure_plan schema site plan in
        let baseline = Adm.Relation.sort_rows baseline in
        List.map
          (fun (scenario, window, fault_rate) ->
            let r = fetch_scenario schema site plan ~window ~fault_rate in
            let exact = Adm.Relation.equal baseline (Adm.Relation.sort_rows r.Eval.result) in
            (plan_name, scenario, window, fault_rate, r, exact))
          scenarios)
      plans
  in
  print_table
    [ "plan"; "scenario"; "gets"; "attempts"; "retries"; "elapsed ms"; "exact" ]
    (List.map
       (fun (plan_name, scenario, _w, _f, (r : Eval.fetch_report), exact) ->
         [
           plan_name; scenario;
           string_of_int r.Eval.fetch.Websim.Fetcher.gets;
           string_of_int r.Eval.fetch.Websim.Fetcher.attempts;
           string_of_int r.Eval.fetch.Websim.Fetcher.retries;
           f1 r.Eval.fetch.Websim.Fetcher.elapsed_ms;
           (if exact then "yes" else "NO");
         ])
       records);
  let elapsed plan_name scenario =
    List.find_map
      (fun (p, s, _, _, (r : Eval.fetch_report), _) ->
        if String.equal p plan_name && String.equal s scenario then
          Some r.Eval.fetch.Websim.Fetcher.elapsed_ms
        else None)
      records
    |> Option.get
  in
  let speedup =
    elapsed "pointer-join" "latency-w1" /. elapsed "pointer-join" "latency-w8"
  in
  Fmt.pr "@.pointer-join window speedup (w1 / w8): %.1fx@." speedup;
  let oc = open_out "BENCH_fetch.json" in
  Printf.fprintf oc "{\n  \"suite\": \"fetch\",\n  \"results\": [\n";
  List.iteri
    (fun i (plan_name, scenario, window, fault_rate, (r : Eval.fetch_report), exact) ->
      Printf.fprintf oc
        "    { \"plan\": %S, \"scenario\": %S, \"window\": %d, \"fault_rate\": %.2f, \
         \"gets\": %d, \"attempts\": %d, \"retries\": %d, \"rows\": %d, \
         \"exact\": %b, \"elapsed_ms\": %.1f }%s\n"
        plan_name scenario window fault_rate r.Eval.fetch.Websim.Fetcher.gets
        r.Eval.fetch.Websim.Fetcher.attempts r.Eval.fetch.Websim.Fetcher.retries
        (Adm.Relation.cardinality r.Eval.result)
        exact r.Eval.fetch.Websim.Fetcher.elapsed_ms
        (if i = List.length records - 1 then "" else ","))
    records;
  Printf.fprintf oc "  ],\n  \"join_speedup_w1_over_w8\": %.2f\n}\n" speedup;
  close_out oc;
  Fmt.pr "@.wrote BENCH_fetch.json (%d entries)@." (List.length records)

(* ------------------------------------------------------------------ *)
(* Exec benchmark: streaming vs materializing execution                *)
(* ------------------------------------------------------------------ *)

(* The Example 7.2 pointer-join / pointer-chase pair through the
   streaming executor versus the legacy relation-at-a-time evaluator:
   same pages, same answers, but the pipeline's transient residency is
   bounded by its largest batch while the materializer holds whole
   intermediate relations; and with LIMIT 1 the early-exit protocol
   stops the chase after its first prefetch window. Results go to
   stdout and BENCH_exec.json. *)

(* Peak resident rows of the materializing evaluator: at each operator
   the inputs are fully materialized before the output exists, so the
   live set is |inputs| + |output| (for a navigation, also the fetched
   target relation). Computed by evaluating subexpressions with the
   legacy evaluator itself. *)
let mat_peak_rows schema source e =
  let card ex = Adm.Relation.cardinality (Eval.eval_legacy schema source ex) in
  let rec go (e : Nalg.expr) =
    match e with
    | Nalg.External _ -> 0
    | Nalg.Entry _ | Nalg.Call { c_src = None; _ } -> card e
    | Nalg.Call { c_src = Some src; _ } -> max (go src) (card src + card e)
    | Nalg.Select (_, e1) | Nalg.Project (_, e1) | Nalg.Unnest (e1, _) ->
      max (go e1) (card e1 + card e)
    | Nalg.Join (_, e1, e2) -> max (max (go e1) (go e2)) (card e1 + card e2 + card e)
    | Nalg.Follow { src; link; _ } ->
      let src_rel = Eval.eval_legacy schema source src in
      let targets =
        Adm.Relation.column link src_rel
        |> List.filter_map Adm.Value.as_link
        |> List.sort_uniq String.compare |> List.length
      in
      max (go src) (Adm.Relation.cardinality src_rel + targets + card e)
  in
  go e

let exec_bench () =
  banner "Exec: streaming pipeline vs materializing evaluator (example 7.2)";
  let uni = Sites.load University in
  let schema = uni.schema and stats = Sites.stats uni and site = uni.site in
  let window = 8 in
  let latency_fetcher () =
    let http = Websim.Http.connect site in
    let netmodel =
      Websim.Netmodel.create (Websim.Netmodel.config ~seed:42 ~fault_rate:0.0 ())
    in
    Websim.Fetcher.create
      ~config:(Websim.Fetcher.config ~window ~retries:3 ())
      ~netmodel http
  in
  let plans =
    [
      ("pointer-join", literal_join_plan_72 ());
      ("pointer-chase", literal_chase_plan_72 ());
    ]
  in
  let records =
    List.map
      (fun (name, plan) ->
        (* streaming: lowered with cost annotations, run with metrics *)
        let fetcher = latency_fetcher () in
        let source = Eval.fetcher_source schema fetcher in
        let phys = Cost.lower ~window schema stats plan in
        let result, m = Exec.run_metrics schema source phys in
        let s_gets = (Websim.Http.stats (Websim.Fetcher.http fetcher)).Websim.Http.gets in
        let s_elapsed = Websim.Fetcher.elapsed_ms fetcher in
        (* materializing: the legacy evaluator over an identical engine *)
        let fetcher2 = latency_fetcher () in
        let source2 = Eval.fetcher_source schema fetcher2 in
        let legacy = Eval.eval_legacy schema source2 plan in
        let m_gets = (Websim.Http.stats (Websim.Fetcher.http fetcher2)).Websim.Http.gets in
        let m_elapsed = Websim.Fetcher.elapsed_ms fetcher2 in
        let m_peak = mat_peak_rows schema (Eval.instance_source (Sites.crawl uni)) plan in
        let identical = Adm.Relation.equal result legacy in
        (name, plan, m, s_gets, s_elapsed, m_gets, m_elapsed, m_peak, identical))
      plans
  in
  print_table
    [ "plan"; "mode"; "gets"; "elapsed ms"; "peak rows"; "state rows"; "identical" ]
    (List.concat_map
       (fun (name, _, m, s_gets, s_elapsed, m_gets, m_elapsed, m_peak, identical) ->
         [
           [ name; "streaming"; string_of_int s_gets; f1 s_elapsed;
             string_of_int (Exec.peak_resident_rows m);
             string_of_int m.Exec.state_rows; (if identical then "yes" else "NO") ];
           [ name; "materializing"; string_of_int m_gets; f1 m_elapsed;
             string_of_int m_peak; "0"; "-" ];
         ])
       records);
  (* LIMIT 1 on the pointer chase: the early-exit protocol stops after
     the first prefetch window instead of chasing every pointer. A
     larger university makes the skipped tail visible. *)
  let big_site =
    (university { Sitegen.University.default_config with n_profs = 60; n_courses = 150 })
      .site
  in
  let chase = literal_chase_plan_72 () in
  let full_gets =
    let _, gets, _ = measure_plan schema big_site chase in
    gets
  in
  let limit1_gets, limit1_rows =
    let http = Websim.Http.connect big_site in
    let source = Eval.live_source schema http in
    let r = Eval.eval ~limit:1 schema source chase in
    ((Websim.Http.stats http).Websim.Http.gets, Adm.Relation.cardinality r)
  in
  Fmt.pr "@.pointer-chase with LIMIT 1: %d page accesses vs %d for the full answer@."
    limit1_gets full_gets;
  let oc = open_out "BENCH_exec.json" in
  Printf.fprintf oc "{\n  \"suite\": \"exec\",\n  \"results\": [\n";
  List.iteri
    (fun i (name, _, m, s_gets, s_elapsed, m_gets, m_elapsed, m_peak, identical) ->
      Printf.fprintf oc
        "    { \"plan\": %S, \"window\": %d, \"identical\": %b,\n\
        \      \"streaming\": { \"gets\": %d, \"elapsed_ms\": %.1f, \
         \"peak_resident_rows\": %d, \"state_rows\": %d, \"max_batch_rows\": %d },\n\
        \      \"materializing\": { \"gets\": %d, \"elapsed_ms\": %.1f, \
         \"peak_resident_rows\": %d } }%s\n"
        name window identical s_gets s_elapsed
        (Exec.peak_resident_rows m)
        m.Exec.state_rows m.Exec.max_batch_rows m_gets m_elapsed m_peak
        (if i = List.length records - 1 then "" else ","))
    records;
  Printf.fprintf oc
    "  ],\n  \"limit1\": { \"plan\": \"pointer-chase\", \"full_gets\": %d, \
     \"limit1_gets\": %d, \"limit1_rows\": %d }\n}\n"
    full_gets limit1_gets limit1_rows;
  close_out oc;
  Fmt.pr "@.wrote BENCH_exec.json (%d plans)@." (List.length records)

(* ------------------------------------------------------------------ *)
(* BENCH server: concurrent workloads through the shared cache        *)
(* ------------------------------------------------------------------ *)

(* Workload sizes 1/8/64 over the university site, all traffic on a
   seeded latency model (no faults) so makespan and fairness are
   meaningful. For each size the workload runs twice: every query
   isolated on its own fresh engine (the sum of those GETs is what N
   independent clients would pay) and concurrently under the
   scheduler behind one shared cache. The coalescing win is the ratio
   between the two GET totals; results must stay byte-identical. *)
let server_bench () =
  banner "Concurrent server: cross-query coalescing, makespan, fairness";
  let uni = Sites.load University in
  let schema = uni.schema and registry = uni.registry and site = uni.site in
  let stats = Sites.stats uni in
  let net_seed = 42 in
  let netmodel () =
    Websim.Netmodel.create (Websim.Netmodel.config ~seed:net_seed ())
  in
  let engine_config = Websim.Fetcher.config ~cache_capacity:8192 ~retries:3 () in
  let shared () =
    Server.Shared_cache.create ~config:engine_config ~netmodel:(netmodel ())
      (Websim.Http.connect site)
  in
  let specs_of entries =
    Server.Sched.plan_workload schema stats registry entries
  in
  let isolated (spec : Server.Sched.spec) =
    let cache = shared () in
    let source = Server.Shared_cache.source cache ~query:0 schema in
    let rows = Eval.eval schema source spec.Server.Sched.expr in
    let r = Server.Shared_cache.report cache in
    (rows, r.Websim.Fetcher.gets, r.Websim.Fetcher.elapsed_ms)
  in
  let sizes = [ 1; 8; 64 ] in
  let rows_of size =
    let entries = Server.Workload.generate ~seed:7 ~n:size () in
    let specs = specs_of entries in
    let iso = List.map isolated specs in
    let iso_gets = List.fold_left (fun acc (_, g, _) -> acc + g) 0 iso in
    let iso_elapsed = List.fold_left (fun acc (_, _, e) -> acc +. e) 0.0 iso in
    let cache = shared () in
    let rep =
      Server.Sched.run Server.Sched.default_config cache schema specs
    in
    let identical =
      List.for_all2
        (fun (rows, _, _) (r : Server.Sched.result) ->
          Adm.Relation.equal rows r.Server.Sched.rows)
        iso rep.Server.Sched.results
    in
    let complete =
      List.for_all
        (fun (r : Server.Sched.result) ->
          r.Server.Sched.completeness.Server.Sched.complete)
        rep.Server.Sched.results
    in
    (size, iso_gets, iso_elapsed, rep, identical, complete)
  in
  let records = List.map rows_of sizes in
  print_table
    [ "queries"; "gets iso"; "gets shared"; "ratio"; "makespan iso"; "makespan";
      "p50 ms"; "p95 ms"; "identical" ]
    (List.map
       (fun (size, iso_gets, iso_elapsed, (rep : Server.Sched.report), identical, _) ->
         let gets = rep.Server.Sched.fetch.Websim.Fetcher.gets in
         [
           string_of_int size; string_of_int iso_gets; string_of_int gets;
           Fmt.str "%.3f" (float_of_int gets /. float_of_int iso_gets);
           f1 iso_elapsed; f1 rep.Server.Sched.makespan_ms;
           f1 rep.Server.Sched.p50_ms; f1 rep.Server.Sched.p95_ms;
           (if identical then "yes" else "NO");
         ])
       records);
  (* graceful degradation: 10% transient faults and a tight deadline;
     with retries >= max_consecutive nothing errors out — queries
     either finish exactly or report a deadline partial *)
  let deadline_scenario =
    let entries =
      Server.Workload.generate ~seed:7 ~n:8 ~deadline_ms:300.0 ()
    in
    let specs = specs_of entries in
    let nm =
      Websim.Netmodel.create
        (Websim.Netmodel.config ~seed:net_seed ~fault_rate:0.10
           ~max_consecutive:2 ())
    in
    let cache =
      Server.Shared_cache.create ~config:engine_config ~netmodel:nm
        (Websim.Http.connect site)
    in
    let rep = Server.Sched.run Server.Sched.default_config cache schema specs in
    let partials =
      List.length
        (List.filter
           (fun (r : Server.Sched.result) ->
             r.Server.Sched.completeness.Server.Sched.deadline_hit)
           rep.Server.Sched.results)
    in
    let errors =
      List.length
        (List.filter
           (fun (r : Server.Sched.result) ->
             (not r.Server.Sched.completeness.Server.Sched.complete)
             && not r.Server.Sched.completeness.Server.Sched.deadline_hit)
           rep.Server.Sched.results)
    in
    (rep, partials, errors)
  in
  let drep, partials, errors = deadline_scenario in
  Fmt.pr
    "@.deadline 300 ms at 10%% faults: %d/8 deadline partials, %d errors, \
     %d retries@."
    partials errors drep.Server.Sched.fetch.Websim.Fetcher.retries;
  (* ---------------------------------------------------------------- *)
  (* Domain sweep: the multicore scale-out experiment (DESIGN.md §12). *)
  (* A ~10^5-page university, 10^3 queries from the template pool, a   *)
  (* seeded latency model, run at 1/2/4/8 domains with a fresh cache   *)
  (* per point. Scheduler decisions are domain-invariant, so results,  *)
  (* GET sets and the sharing ledger must be byte-identical at every   *)
  (* point; only the lane-time accounting (makespan, fairness) fans    *)
  (* out. [keep_rows:false] + digests keep 10^3 x 10^4-row results     *)
  (* from residing in memory.                                          *)
  banner "Domain sweep: 10^5-page site, 10^3 queries, 1/2/4/8 domains";
  let scale_config =
    {
      Sitegen.University.default_config with
      n_depts = 500;
      n_profs = 40_000;
      n_courses = 60_000;
      n_sessions = 4;
    }
  in
  let scale_uni = Sitegen.University.build ~config:scale_config () in
  let scale = Sites.of_university scale_uni in
  let scale_schema = scale.schema and scale_site = scale.site in
  let scale_stats = Sites.stats scale in
  let scale_pages = Websim.Site.page_count scale_site in
  let n_queries = 1000 in
  (* A realistic mixed workload: the 12 standard templates (whole-site
     scans and joins) plus selective navigations parameterized over
     every department and session. No production workload is a
     thousand full-site scans — and the distinction matters for
     scale-out: a whole-site scan consumes its page family as one
     serial window chain that no domain count can split, while
     selective queries cover disjoint page subsets in independent
     chains that lanes genuinely overlap. The scans then ride the
     shared cache over pages the selective queries brought in. *)
  let scale_templates =
    let dept_q (d : Sitegen.University.dept) =
      Fmt.str
        "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
         WHERE p.PName = d.PName AND d.DName = '%s'"
        d.Sitegen.University.d_name
    in
    let session_q s =
      Fmt.str
        "SELECT c.CName, c.Description FROM Course c WHERE c.Session = '%s'" s
    in
    Server.Workload.university_templates
    @ List.map session_q (Sitegen.University.sessions scale_uni)
    @ List.map dept_q (Sitegen.University.depts scale_uni)
  in
  let scale_specs =
    Server.Sched.plan_workload scale_schema scale_stats registry
      (Server.Workload.generate ~templates:scale_templates ~seed:7
         ~n:n_queries ())
  in
  Fmt.pr "site: %d pages, workload: %d queries (%d distinct plans)@."
    scale_pages n_queries
    (List.length
       (List.sort_uniq String.compare
          (List.map (fun (s : Server.Sched.spec) -> s.Server.Sched.label) scale_specs)));
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
  in
  let sweep_point domains =
    let pool = if domains > 1 then Some (Server.Pool.create ~domains) else None in
    let cache =
      Server.Shared_cache.create ?pool
        ~config:(Websim.Fetcher.config ~cache_capacity:200_000 ~retries:3 ())
        ~netmodel:(netmodel ())
        (Websim.Http.connect scale_site)
    in
    let digests = ref [] in
    let on_result (r : Server.Sched.result) =
      digests :=
        ( r.Server.Sched.qid,
          digest_rows r.Server.Sched.rows,
          r.Server.Sched.completeness.Server.Sched.complete )
        :: !digests
    in
    let config =
      Server.Sched.config ~domains ~concurrency:32
        ~max_resident_rows:4_000_000 ()
    in
    let rep =
      Server.Sched.run ~on_result ~keep_rows:false config cache scale_schema
        scale_specs
    in
    Option.iter Server.Pool.shutdown pool;
    ( List.rev !digests,
      Server.Shared_cache.distinct_get_set cache,
      Server.Shared_cache.ledger cache,
      Server.Shared_cache.contention cache,
      rep )
  in
  let sweep_domains = [ 1; 2; 4; 8 ] in
  let sweep = List.map (fun d -> (d, sweep_point d)) sweep_domains in
  let base_digests, base_gets, base_ledger, _, base_rep =
    match sweep with (_, p) :: _ -> p | [] -> assert false
  in
  let sweep_rows =
    List.map
      (fun (d, (digests, gets, ledger, contention, rep)) ->
        let identical =
          digests = base_digests && gets = base_gets && ledger = base_ledger
        in
        let speedup =
          base_rep.Server.Sched.makespan_ms /. rep.Server.Sched.makespan_ms
        in
        (d, identical, speedup, contention, rep))
      sweep
  in
  print_table
    [ "domains"; "makespan ms"; "speedup"; "p50 ms"; "p95 ms"; "p50 svc";
      "p95 svc"; "p50 wait"; "p95 wait"; "identical" ]
    (List.map
       (fun (d, identical, speedup, _, (rep : Server.Sched.report)) ->
         [
           string_of_int d; f1 rep.Server.Sched.makespan_ms;
           Fmt.str "%.2fx" speedup; f1 rep.Server.Sched.p50_ms;
           f1 rep.Server.Sched.p95_ms; f1 rep.Server.Sched.p50_service_ms;
           f1 rep.Server.Sched.p95_service_ms; f1 rep.Server.Sched.p50_wait_ms;
           f1 rep.Server.Sched.p95_wait_ms;
           (if identical then "yes" else "NO");
         ])
       sweep_rows);
  (match List.find_opt (fun (d, _, _, _, _) -> d = 4) sweep_rows with
  | Some (_, _, speedup, _, _) when speedup < 2.0 ->
    Fmt.pr "@.WARNING: speedup at 4 domains is %.2fx (< 2x)@." speedup
  | _ -> ());
  let oc = open_out "BENCH_server.json" in
  Printf.fprintf oc "{\n  \"suite\": \"server\",\n  \"results\": [\n";
  List.iteri
    (fun i (size, iso_gets, iso_elapsed, (rep : Server.Sched.report), identical, complete) ->
      let l = rep.Server.Sched.ledger in
      Printf.fprintf oc
        "    { \"queries\": %d, \"gets_isolated\": %d, \"gets_shared\": %d, \
         \"coalescing_ratio\": %.3f,\n\
        \      \"distinct_urls\": %d, \"sum_per_query_urls\": %d, \
         \"cross_query_hits\": %d,\n\
        \      \"makespan_isolated_ms\": %.1f, \"makespan_ms\": %.1f, \
         \"p50_ms\": %.1f, \"p95_ms\": %.1f,\n\
        \      \"peak_resident_queries\": %d, \"peak_resident_rows\": %d, \
         \"identical\": %b, \"complete\": %b }%s\n"
        size iso_gets rep.Server.Sched.fetch.Websim.Fetcher.gets
        (float_of_int rep.Server.Sched.fetch.Websim.Fetcher.gets
        /. float_of_int iso_gets)
        l.Server.Shared_cache.distinct_gets l.Server.Shared_cache.sum_per_query
        l.Server.Shared_cache.cross_query_hits iso_elapsed
        rep.Server.Sched.makespan_ms rep.Server.Sched.p50_ms
        rep.Server.Sched.p95_ms rep.Server.Sched.peak_resident_queries
        rep.Server.Sched.peak_resident_rows identical complete
        (if i = List.length records - 1 then "" else ","))
    records;
  Printf.fprintf oc
    "  ],\n\
    \  \"deadline_scenario\": { \"queries\": 8, \"deadline_ms\": 300.0, \
     \"fault_rate\": 0.10, \"retries\": 3,\n\
    \    \"deadline_partials\": %d, \"errors\": %d, \"wire_retries\": %d },\n"
    partials errors drep.Server.Sched.fetch.Websim.Fetcher.retries;
  Printf.fprintf oc
    "  \"domain_sweep\": {\n\
    \    \"site_pages\": %d, \"queries\": %d, \"concurrency\": 32, \
     \"quantum\": 4, \"net_seed\": %d,\n\
    \    \"points\": [\n"
    scale_pages n_queries net_seed;
  let n_points = List.length sweep_rows in
  List.iteri
    (fun i (d, identical, speedup, (c : Server.Shared_cache.contention),
            (rep : Server.Sched.report)) ->
      Printf.fprintf oc
        "      { \"domains\": %d, \"makespan_ms\": %.1f, \"speedup\": %.3f, \
         \"identical\": %b,\n\
        \        \"p50_ms\": %.1f, \"p95_ms\": %.1f, \"p50_service_ms\": %.1f, \
         \"p95_service_ms\": %.1f, \"p50_wait_ms\": %.1f, \"p95_wait_ms\": %.1f,\n\
        \        \"distinct_gets\": %d, \"cross_query_hits\": %d, \
         \"tuples_cached\": %d }%s\n"
        d rep.Server.Sched.makespan_ms speedup identical rep.Server.Sched.p50_ms
        rep.Server.Sched.p95_ms rep.Server.Sched.p50_service_ms
        rep.Server.Sched.p95_service_ms rep.Server.Sched.p50_wait_ms
        rep.Server.Sched.p95_wait_ms
        rep.Server.Sched.ledger.Server.Shared_cache.distinct_gets
        rep.Server.Sched.ledger.Server.Shared_cache.cross_query_hits
        c.Server.Shared_cache.tuples_cached
        (if i = n_points - 1 then "" else ","))
    sweep_rows;
  Printf.fprintf oc "    ]\n  }\n}\n";
  close_out oc;
  Fmt.pr "@.wrote BENCH_server.json (%d workload sizes + %d-point domain sweep)@."
    (List.length records) n_points

(* ------------------------------------------------------------------ *)
(* BENCH analyze: semantic analyzer and filter-tree view matching     *)
(* ------------------------------------------------------------------ *)

(* Two measurements for the static analyzer (Contain / Viewmatch):

   1. View-subsumption lookup at 10/100/500 registered views — the
      filter-tree index (bucketed by scheme set, predicate signature
      and output attributes) versus a naive pairwise scan that runs
      the semantic check against every other view. Both must find the
      same subsumers; the index wins by running fewer checks.

   2. Minimized-vs-raw planning on the three sites: the best plan's
      candidate count and distinct page accesses with and without
      Contain.minimize_query in front of the planner.

   Results go to stdout and BENCH_analyze.json. *)

(* A synthetic registry of [n] distinct views derived from the
   navigations of [bases] (the university view): round-robin over the base external
   relations, varying the projected attributes and adding per-view
   selections so the filter tree has both real bucket diversity and
   genuine subsumption hits (projection-only variants of the same
   navigation). *)
let synthetic_views bases n =
  List.init n (fun i ->
      let base = List.nth bases (i mod List.length bases) in
      let nav = List.hd base.View.navigations in
      let variant = i / List.length bases in
      let n_attrs = List.length base.View.rel_attrs in
      let keep = 1 + (variant mod n_attrs) in
      let attrs = List.filteri (fun j _ -> j < keep) base.View.rel_attrs in
      let bindings =
        List.filter (fun (a, _) -> List.mem a attrs) nav.View.bindings
      in
      let expr =
        if variant mod 4 = 0 then nav.View.nav_expr
        else
          (* select on the last kept attribute, with a constant unique
             to this view — distinct views, shared pred signature *)
          let sel_attr = List.nth attrs (keep - 1) in
          let plan_attr = List.assoc sel_attr nav.View.bindings in
          Nalg.select
            [ Pred.eq_const plan_attr (Adm.Value.text (Fmt.str "v-%d" i)) ]
            nav.View.nav_expr
      in
      View.relation
        ~name:(Fmt.str "V%03d" i)
        ~attrs
        ~navigations:[ View.navigation ~bindings expr ]
        ())

let analyze_bench () =
  banner "Analyze: filter-tree view matching and minimized planning";
  let uni = Sites.load University in
  let schema = uni.schema and stats = Sites.stats uni in
  let ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  (* --- subsumption lookup scaling ------------------------------------ *)
  let sizes = [ 10; 100; 500 ] in
  let scaling =
    List.map
      (fun n ->
        let views = synthetic_views uni.registry n in
        let index, build_ms = ms (fun () -> Viewmatch.make views) in
        let probes =
          (* a fixed sample (~25) so work per probe, not probe count,
             varies; stride kept coprime with the generator's
             base-relation and selection cycles so probes cover every
             view shape *)
          let stride =
            let k = max 1 (n / 25) in
            if k mod 5 = 0 then k + 1 else k
          in
          List.filteri (fun i _ -> i mod stride = 0) views
        in
        let naive_find probe =
          List.filter
            (fun v ->
              not (String.equal v.View.rel_name probe.View.rel_name)
              && Viewmatch.subsumes ~general:v ~specific:probe)
            views
        in
        let naive_results, naive_ms =
          ms (fun () -> List.map naive_find probes)
        in
        let naive_checks = List.length probes * (List.length views - 1) in
        let filter_results, filter_ms =
          ms (fun () -> List.map (Viewmatch.subsumers index) probes)
        in
        let filter_checks =
          List.fold_left
            (fun acc p -> acc + List.length (Viewmatch.candidates index p))
            0 probes
        in
        let names vs =
          List.map (fun v -> v.View.rel_name) vs |> List.sort compare
        in
        let agree =
          List.for_all2
            (fun a b -> names a = names b)
            naive_results filter_results
        in
        let hits =
          List.fold_left (fun acc r -> acc + List.length r) 0 filter_results
        in
        (n, Viewmatch.buckets index, build_ms, List.length probes, naive_checks,
         naive_ms, filter_checks, filter_ms, hits, agree))
      sizes
  in
  print_table
    [ "views"; "buckets"; "probes"; "naive checks"; "naive ms"; "tree checks";
      "tree ms"; "subsumers"; "agree" ]
    (List.map
       (fun (n, buckets, _, probes, nc, nms, fc, fms, hits, agree) ->
         [ string_of_int n; string_of_int buckets; string_of_int probes;
           string_of_int nc; f1 nms; string_of_int fc; f1 fms;
           string_of_int hits; (if agree then "yes" else "NO") ])
       scaling);
  Fmt.pr "the tree prunes with necessary conditions, so both columns find the@.";
  Fmt.pr "same subsumers; checks per probe stay near bucket size as the@.";
  Fmt.pr "registry grows, while the naive scan grows linearly.@.";
  (* --- analysis + planning time vs registry size --------------------- *)
  let planning =
    List.map
      (fun n ->
        let registry = uni.registry @ synthetic_views uni.registry n in
        let q = Sql_parser.parse registry sql_72 in
        let (q_min, _), analyze_ms =
          ms (fun () -> Contain.analyze_query registry q)
        in
        let outcome, plan_ms =
          ms (fun () -> Planner.enumerate schema stats registry q)
        in
        ignore q_min;
        (n, analyze_ms, plan_ms, List.length outcome.Planner.candidates,
         outcome.Planner.merged))
      sizes
  in
  print_table
    [ "views"; "analyze ms"; "plan ms"; "candidates"; "merged" ]
    (List.map
       (fun (n, ams, pms, cands, merged) ->
         [ string_of_int n; f1 ams; f1 pms; string_of_int cands;
           string_of_int merged ])
       planning);
  (* --- minimized vs raw plans on the three sites --------------------- *)
  let run_pair (site : Sites.t) sql =
    let st = Sites.stats site in
    let q = Sql_parser.parse site.registry sql in
    let raw = Planner.enumerate ~minimize:false site.schema st site.registry q in
    let minimized = Planner.enumerate site.schema st site.registry q in
    let gets (o : Planner.outcome) =
      let _, g, _ = measure_plan site.schema site.site o.Planner.best.Planner.expr in
      g
    in
    (raw, minimized, gets raw, gets minimized)
  in
  let sites =
    List.map
      (fun (kind, sql) -> (Sites.name kind, run_pair (Sites.load kind) sql))
      [
        ( Sites.University,
          "SELECT p.PName, p.Rank FROM Professor p, Professor q WHERE p.PName \
           = q.PName AND q.Rank = 'Full'" );
        ( Catalog,
          "SELECT p.PName, p.Price FROM Product p, Product q WHERE p.PName = \
           q.PName AND q.Price > 250" );
        ( Bibliography,
          "SELECT e.CName, e.Year FROM EditionPage e, ConfPage c WHERE \
           e.CName = c.CName" );
      ]
  in
  print_table
    [ "site"; "raw cands"; "raw gets"; "min cands"; "min gets"; "merged" ]
    (List.map
       (fun (name, (raw, minimized, raw_gets, min_gets)) ->
         [ name;
           string_of_int (List.length raw.Planner.candidates);
           string_of_int raw_gets;
           string_of_int (List.length minimized.Planner.candidates);
           string_of_int min_gets;
           string_of_int minimized.Planner.merged ])
       sites);
  (* --- JSON ---------------------------------------------------------- *)
  let oc = open_out "BENCH_analyze.json" in
  Printf.fprintf oc "{\n  \"suite\": \"analyze\",\n  \"subsumption_scaling\": [\n";
  List.iteri
    (fun i (n, buckets, build_ms, probes, nc, nms, fc, fms, hits, agree) ->
      Printf.fprintf oc
        "    { \"views\": %d, \"buckets\": %d, \"index_build_ms\": %.2f, \
         \"probes\": %d,\n\
        \      \"naive\": { \"checks\": %d, \"ms\": %.2f },\n\
        \      \"filter_tree\": { \"checks\": %d, \"ms\": %.2f },\n\
        \      \"subsumers_found\": %d, \"agree\": %b }%s\n"
        n buckets build_ms probes nc nms fc fms hits agree
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  Printf.fprintf oc "  ],\n  \"planning_scaling\": [\n";
  List.iteri
    (fun i (n, ams, pms, cands, merged) ->
      Printf.fprintf oc
        "    { \"views\": %d, \"analyze_ms\": %.2f, \"plan_ms\": %.2f, \
         \"candidates\": %d, \"merged\": %d }%s\n"
        n ams pms cands merged
        (if i = List.length planning - 1 then "" else ","))
    planning;
  Printf.fprintf oc "  ],\n  \"minimization\": [\n";
  List.iteri
    (fun i (name, (raw, minimized, raw_gets, min_gets)) ->
      Printf.fprintf oc
        "    { \"site\": %S, \"raw\": { \"candidates\": %d, \"gets\": %d },\n\
        \      \"minimized\": { \"candidates\": %d, \"gets\": %d, \"merged\": \
         %d } }%s\n"
        name
        (List.length raw.Planner.candidates)
        raw_gets
        (List.length minimized.Planner.candidates)
        min_gets minimized.Planner.merged
        (if i = List.length sites - 1 then "" else ","))
    sites;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Fmt.pr "@.wrote BENCH_analyze.json (%d registry sizes, %d sites)@."
    (List.length scaling) (List.length sites)

(* ------------------------------------------------------------------ *)
(* Bechamel timings                                                    *)
(* ------------------------------------------------------------------ *)

let timings () =
  banner "Timings (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let uni = Sitegen.University.build () in
  let site = Sites.of_university uni in
  let schema = site.schema and registry = site.registry in
  let stats = Sites.stats site in
  let source = Eval.instance_source (Sites.crawl site) in
  let outcome71 = Planner.plan_sql schema stats registry sql_71 in
  let outcome72 = Planner.plan_sql schema stats registry sql_72 in
  let any_prof_page =
    let p = List.hd (Sitegen.University.profs uni) in
    (Option.get
       (Websim.Site.find site.site (Sitegen.University.prof_url p.Sitegen.University.p_name)))
      .Websim.Site.body
  in
  let prof_scheme = Adm.Schema.find_scheme_exn schema "ProfPage" in
  let tests =
    [
      Test.make ~name:"exp1: four-path eval (bibliography)"
        (Staged.stage (fun () ->
             let bib = Sites.load Bibliography in
             let src = Eval.live_source bib.schema (Websim.Http.connect bib.site) in
             ignore (Eval.eval bib.schema src (Sitegen.Bibliography.path3_direct_link ()))));
      Test.make ~name:"exp2: plan enumeration (example 7.1)"
        (Staged.stage (fun () -> ignore (Planner.plan_sql schema stats registry sql_71)));
      Test.make ~name:"exp3: plan enumeration (example 7.2)"
        (Staged.stage (fun () -> ignore (Planner.plan_sql schema stats registry sql_72)));
      Test.make ~name:"exp4: plan enumeration (figure 2)"
        (Staged.stage (fun () -> ignore (Planner.plan_sql schema stats registry sql_fig2)));
      Test.make ~name:"best-plan execution (example 7.1)"
        (Staged.stage (fun () ->
             ignore (Eval.eval schema source outcome71.Planner.best.Planner.expr)));
      Test.make ~name:"best-plan execution (example 7.2)"
        (Staged.stage (fun () ->
             ignore (Eval.eval schema source outcome72.Planner.best.Planner.expr)));
      Test.make ~name:"full crawl (80-page university)"
        (Staged.stage (fun () -> ignore (Sites.crawl site)));
      Test.make ~name:"wrapper extract (one professor page)"
        (Staged.stage (fun () ->
             ignore (Websim.Wrapper.extract prof_scheme ~url:"/p" any_prof_page)));
      Test.make ~name:"cost estimation (example 7.2 best plan)"
        (Staged.stage (fun () ->
             ignore (Cost.cost schema stats outcome72.Planner.best.Planner.expr)));
    ]
  in
  let grouped = Test.make_grouped ~name:"webviews" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Fmt.pr "%-45s %15s@." "benchmark" "ns/run";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some [ est ] -> Fmt.str "%15.0f" est
           | Some _ | None -> "n/a"
         in
         Fmt.pr "%-45s %15s@." name ns)

(* ------------------------------------------------------------------ *)
(* bench-churn: the freshness/wire frontier under live churn           *)
(*                                                                     *)
(* Maps wire budget (HEAD+GET units per scheduler turn) against mean / *)
(* 95p answer staleness at churn rates {0, low, high}, incremental     *)
(* maintenance vs the full-refresh baseline, and proves determinism    *)
(* (same seed = same report; domain-count-invariant).                  *)
(* Results go to stdout and BENCH_churn.json.                          *)
(* ------------------------------------------------------------------ *)

let churn_bench () =
  banner "bench-churn  Wire budget vs answer staleness under live churn";
  (* a compact site so every policy gets to act inside the run: a
     full-refresh pass costs ~pages x 10 units and must accrue several
     times within the workload's scheduler turns *)
  let site_config =
    {
      Sitegen.University.default_config with
      Sitegen.University.n_depts = 2;
      n_profs = 6;
      n_courses = 10;
      n_sessions = 2;
    }
  in
  let n_queries = 96 and wseed = 7 and churn_seed = 5 and max_age = 6 in
  let sched_config ?(domains = 1) () =
    Server.Sched.config ~concurrency:4 ~quantum:1 ~domains ()
  in
  let workload = Server.Workload.generate ~seed:wseed ~n:n_queries () in
  let site_pages = ref 0 in
  let run ?(domains = 1) ~rate ~budget ~policy () =
    let site = university site_config in
    site_pages := Websim.Site.page_count site.site;
    let cfg =
      Churn.Runtime.config
        ~profile:(Churn.Profile.make ~rate ())
        ~churn_seed
        ~sla:(Churn.Sla.create ~default_max_age:max_age ())
        ~budget_per_turn:budget ~policy ()
    in
    Churn.Runtime.run ~sched:(sched_config ~domains ()) cfg site.schema (Sites.stats site)
      site.registry (Websim.Http.connect site.site) workload
  in
  let rates = [ ("zero", 0.0); ("low", 0.05); ("high", 0.3) ] in
  let budgets = [ 2.0; 8.0; 32.0 ] in
  let policies = [ Churn.Runtime.Incremental; Churn.Runtime.Full_refresh ] in
  let grid =
    List.concat_map
      (fun (rate_name, rate) ->
        List.concat_map
          (fun budget ->
            List.map
              (fun policy ->
                (rate_name, rate, budget, policy, run ~rate ~budget ~policy ()))
              policies)
          budgets)
      rates
  in
  print_table
    [ "churn"; "budget"; "policy"; "mean stale"; "p95 stale"; "violated";
      "maint HEAD"; "maint GET"; "full refr"; "wire GET"; "wire HEAD";
      "mutations" ]
    (List.map
       (fun (rate_name, _, budget, policy, (r : Churn.Runtime.report)) ->
         let m = r.Churn.Runtime.maintenance in
         [
           rate_name; f1 budget; Churn.Runtime.policy_to_string policy;
           Fmt.str "%.3f" r.Churn.Runtime.mean_staleness;
           f1 r.Churn.Runtime.p95_staleness;
           string_of_int r.Churn.Runtime.violations;
           string_of_int m.Churn.Maintain.heads;
           string_of_int m.Churn.Maintain.gets_refreshed;
           string_of_int r.Churn.Runtime.full_refreshes;
           string_of_int r.Churn.Runtime.wire.Websim.Fetcher.gets;
           string_of_int r.Churn.Runtime.wire.Websim.Fetcher.heads;
           string_of_int r.Churn.Runtime.mutations_total;
         ])
       grid);
  (* the acceptance comparison: at every fixed budget and nonzero
     churn, incremental maintenance must answer strictly fresher than
     the full-refresh baseline *)
  let find name budget policy =
    let _, _, _, _, r =
      List.find
        (fun (n, _, b, p, _) -> n = name && b = budget && p = policy)
        grid
    in
    r
  in
  let acceptance =
    List.concat_map
      (fun (rate_name, rate) ->
        if rate = 0.0 then []
        else
          List.map
            (fun budget ->
              let inc = find rate_name budget Churn.Runtime.Incremental in
              let full = find rate_name budget Churn.Runtime.Full_refresh in
              ( rate_name, budget,
                inc.Churn.Runtime.mean_staleness,
                full.Churn.Runtime.mean_staleness,
                inc.Churn.Runtime.mean_staleness
                < full.Churn.Runtime.mean_staleness ))
            budgets)
      rates
  in
  Fmt.pr "@.incremental vs full-refresh (mean answer staleness, ticks):@.";
  List.iter
    (fun (name, budget, inc, full, ok) ->
      Fmt.pr "  churn %-4s budget %5.1f: %.3f vs %.3f  %s@." name budget inc
        full
        (if ok then "incremental strictly lower" else "NOT LOWER"))
    acceptance;
  (* determinism: an identical configuration replays byte-identically,
     and the runtime is domain-count-invariant *)
  let digest (r : Churn.Runtime.report) =
    ( List.map
        (fun (res : Server.Sched.result) ->
          (res.Server.Sched.qid, Adm.Relation.cardinality res.Server.Sched.rows))
        r.Churn.Runtime.sched.Server.Sched.results,
      r.Churn.Runtime.mean_staleness, r.Churn.Runtime.p95_staleness,
      r.Churn.Runtime.verdicts, r.Churn.Runtime.mutations_total,
      r.Churn.Runtime.wire.Websim.Fetcher.gets,
      r.Churn.Runtime.wire.Websim.Fetcher.heads )
  in
  let probe () = run ~rate:0.3 ~budget:8.0 ~policy:Churn.Runtime.Incremental () in
  let repeat_identical = digest (probe ()) = digest (probe ()) in
  let domains_invariant =
    digest (run ~domains:4 ~rate:0.3 ~budget:8.0 ~policy:Churn.Runtime.Incremental ())
    = digest (probe ())
  in
  Fmt.pr "@.determinism: repeat %s, domains 1 vs 4 %s@."
    (if repeat_identical then "identical" else "DIVERGED")
    (if domains_invariant then "identical" else "DIVERGED");
  let oc = open_out "BENCH_churn.json" in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"churn\",\n\
    \  \"site_pages\": %d, \"queries\": %d, \"workload_seed\": %d, \
     \"churn_seed\": %d,\n\
    \  \"concurrency\": 4, \"quantum\": 1, \"max_age\": %d, \"head_cost\": 1.0, \
     \"get_cost\": 10.0,\n\
    \  \"grid\": [\n"
    !site_pages n_queries wseed churn_seed max_age;
  let n_grid = List.length grid in
  List.iteri
    (fun i (rate_name, rate, budget, policy, (r : Churn.Runtime.report)) ->
      let m = r.Churn.Runtime.maintenance in
      Printf.fprintf oc
        "    { \"churn\": \"%s\", \"rate\": %.2f, \"budget\": %.1f, \
         \"policy\": \"%s\",\n\
        \      \"mean_staleness\": %.4f, \"p95_staleness\": %.2f, \
         \"violations\": %d,\n\
        \      \"verdicts\": { %s },\n\
        \      \"maintenance_heads\": %d, \"maintenance_gets\": %d, \
         \"validated\": %d, \"swept\": %d, \"purged\": %d, \"denied\": %d,\n\
        \      \"full_refreshes\": %d, \"budget_spent\": %.1f, \
         \"wire_gets\": %d, \"wire_heads\": %d, \"wire_bytes\": %d,\n\
        \      \"mutations\": %d, \"store_pages\": %d }%s\n"
        rate_name rate budget
        (Churn.Runtime.policy_to_string policy)
        r.Churn.Runtime.mean_staleness r.Churn.Runtime.p95_staleness
        r.Churn.Runtime.violations
        (String.concat ", "
           (List.map
              (fun (v, n) -> Printf.sprintf "\"%s\": %d" v n)
              r.Churn.Runtime.verdicts))
        m.Churn.Maintain.heads m.Churn.Maintain.gets_refreshed
        m.Churn.Maintain.validated m.Churn.Maintain.swept
        m.Churn.Maintain.purged m.Churn.Maintain.denied
        r.Churn.Runtime.full_refreshes r.Churn.Runtime.budget_spent
        r.Churn.Runtime.wire.Websim.Fetcher.gets
        r.Churn.Runtime.wire.Websim.Fetcher.heads
        r.Churn.Runtime.wire.Websim.Fetcher.bytes
        r.Churn.Runtime.mutations_total r.Churn.Runtime.store_pages
        (if i = n_grid - 1 then "" else ","))
    grid;
  Printf.fprintf oc "  ],\n  \"incremental_vs_full_refresh\": [\n";
  let n_acc = List.length acceptance in
  List.iteri
    (fun i (name, budget, inc, full, ok) ->
      Printf.fprintf oc
        "    { \"churn\": \"%s\", \"budget\": %.1f, \
         \"incremental_mean_staleness\": %.4f, \
         \"full_refresh_mean_staleness\": %.4f, \
         \"incremental_strictly_lower\": %b }%s\n"
        name budget inc full ok
        (if i = n_acc - 1 then "" else ","))
    acceptance;
  Printf.fprintf oc
    "  ],\n\
    \  \"determinism\": { \"repeat_identical\": %b, \
     \"domains_invariant\": %b }\n}\n"
    repeat_identical domains_invariant;
  close_out oc;
  Fmt.pr "@.wrote BENCH_churn.json (%d grid points)@." n_grid;
  if
    (not (List.for_all (fun (_, _, _, _, ok) -> ok) acceptance))
    || (not repeat_identical) || not domains_invariant
  then begin
    Fmt.epr "bench-churn acceptance FAILED@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* bench-views: views as cost-chosen access paths                      *)
(*                                                                     *)
(* 1. Wire economics on the three sites: the same query planned and    *)
(*    executed both ways — pure navigation vs with registered views    *)
(*    offered as access paths over a freshly materialized store. The   *)
(*    cost model must *choose* the view where it wins, results must    *)
(*    stay byte-identical, and the GET-weighted wire cost (Function 2: *)
(*    HEAD = 1, GET = 10) must drop. Plus the stale half of the race:  *)
(*    after aging the store over schemes observed to churn, the view   *)
(*    must lose until revalidated.                                     *)
(* 2. Planning time vs registry size 10/100/500: selection-variant     *)
(*    views bucket away from the query's occurrences in the filter     *)
(*    tree, so view matching — and planning time — stays flat while a  *)
(*    naive pairwise matcher grows linearly in registry size.          *)
(* Results go to stdout and BENCH_views.json; exits nonzero when an    *)
(* acceptance condition fails.                                         *)
(* ------------------------------------------------------------------ *)

let views_bench () =
  banner "bench-views  Views as access paths: wire economics and planning scale";
  let wire_units gets heads = (10 * gets) + heads in
  let sorted_rows rel = List.sort compare (Adm.Relation.rows_arrays rel) in
  (* --- wire economics: both ways on one site ----------------------- *)
  let views_case (site : Sites.t) sql =
    let site_schema = site.schema and site_registry = site.registry in
    let stats = Sites.stats site in
    let vs = Sites.viewstore site in
    let store_http = Websim.Fetcher.http (Matview.fetcher (Viewstore.store vs)) in
    let s0 = Websim.Http.stats store_http in
    let g0 = s0.Websim.Http.gets and h0 = s0.Websim.Http.heads in
    let nav_http = Websim.Http.connect site.site in
    let _, nav_rel =
      Planner.run site_schema stats site_registry
        (Eval.live_source site_schema nav_http) sql
    in
    let nav = Websim.Http.stats nav_http in
    let v_http = Websim.Http.connect site.site in
    let view_outcome, view_rel =
      Planner.run
        ~views:(Viewstore.context vs)
        ~exec_views:(Viewstore.answerer vs)
        site_schema stats site_registry
        (Eval.live_source site_schema v_http) sql
    in
    let v = Websim.Http.stats v_http in
    let s1 = Websim.Http.stats store_http in
    let view_gets = v.Websim.Http.gets + (s1.Websim.Http.gets - g0) in
    let view_heads = v.Websim.Http.heads + (s1.Websim.Http.heads - h0) in
    let identical =
      Adm.Relation.attrs nav_rel = Adm.Relation.attrs view_rel
      && sorted_rows nav_rel = sorted_rows view_rel
    in
    ( Sites.name site.kind, sql,
      view_outcome.Planner.view_used <> [],
      nav.Websim.Http.gets, nav.Websim.Http.heads,
      view_gets, view_heads, identical )
  in
  let wire =
    List.map
      (fun (kind, sql) ->
        let site = Sites.load kind in
        views_case site (sql site.registry))
      [
        (Sites.University, fun _ -> "SELECT p.PName, p.Email FROM Professor p");
        (Catalog, fun _ -> "SELECT p.PName, p.Price FROM Product p");
        ( Bibliography,
          fun registry ->
            let rel = List.hd registry in
            Fmt.str "SELECT x.%s FROM %s x" (List.hd rel.View.rel_attrs) rel.View.rel_name );
      ]
  in
  print_table
    [ "site"; "view chosen"; "nav GETs"; "view GETs"; "view HEADs";
      "nav units"; "view units"; "identical" ]
    (List.map
       (fun (name, _, chosen, ng, nh, vg, vh, identical) ->
         [
           name; (if chosen then "yes" else "NO");
           string_of_int ng; string_of_int vg; string_of_int vh;
           string_of_int (wire_units ng nh); string_of_int (wire_units vg vh);
           (if identical then "yes" else "NO");
         ])
       wire);
  (* --- the stale half: churny schemes price the view out ------------ *)
  let stale_rejected =
    let site = Sites.load University in
    let stats = Sites.stats site in
    let vs = Sites.viewstore site in
    Websim.Site.tick site.site;
    List.iter
      (fun scheme ->
        for _ = 1 to 20 do
          Viewstore.observe vs scheme ~changed:true
        done)
      [ "DeptListPage"; "DeptPage"; "ProfPage" ];
    let outcome =
      Planner.plan_sql ~views:(Viewstore.context vs) site.schema stats site.registry
        "SELECT p.PName, p.Email FROM Professor p"
    in
    outcome.Planner.view_used = []
  in
  Fmt.pr "@.stale store over churny schemes: view %s@."
    (if stale_rejected then "correctly rejected" else "WRONGLY CHOSEN");
  (* --- planning time vs registry size ------------------------------- *)
  let ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  (* [n] selection-variant views over the university navigations, each
     constrained by a constant unique to the view: real registry bulk
     that subsumes nothing the workload names, so the filter tree's
     predicate-signature level prunes it before any semantic check *)
  let uni = Sites.load University in
  let schema = uni.schema and registry = uni.registry in
  let stress_views n =
    let bases = registry in
    List.init n (fun i ->
        let base = List.nth bases (i mod List.length bases) in
        let nav = List.hd base.View.navigations in
        let _, plan_attr = List.hd nav.View.bindings in
        View.relation
          ~name:(Fmt.str "SV%03d" i)
          ~attrs:base.View.rel_attrs
          ~navigations:
            [
              View.navigation ~bindings:nav.View.bindings
                (Nalg.select
                   [ Pred.eq_const plan_attr (Adm.Value.text (Fmt.str "sv-%d" i)) ]
                   nav.View.nav_expr);
            ]
          ())
  in
  let stats = Sites.stats uni in
  let store = Matview.materialize schema (Websim.Http.connect uni.site) in
  let plan_scale =
    List.map
      (fun n ->
        let full = registry @ stress_views (n - List.length registry) in
        let vs = Viewstore.create schema full store in
        let q = Sql_parser.parse full sql_72 in
        let plan_once () =
          Planner.enumerate ~views:(Viewstore.context vs) schema stats full q
        in
        ignore (plan_once ());
        (* min of 5: wall-clock noise hurts the flatness ratio, not
           the workload *)
        let best = ref infinity in
        for _ = 1 to 5 do
          let _, t = ms plan_once in
          if t < !best then best := t
        done;
        let index = Viewstore.index vs in
        let probes =
          List.map (fun (s : Conjunctive.source) -> s.Conjunctive.rel)
            q.Conjunctive.from
          |> List.sort_uniq String.compare
          |> List.filter_map (View.find full)
        in
        let tree_checks =
          List.fold_left
            (fun acc p -> acc + List.length (Viewmatch.candidates index p))
            0 probes
        in
        let naive_checks = List.length probes * (List.length full - 1) in
        (n, !best, tree_checks, naive_checks))
      [ 10; 100; 500 ]
  in
  print_table
    [ "views"; "plan ms"; "tree checks"; "naive checks" ]
    (List.map
       (fun (n, t, tc, nc) ->
         [ string_of_int n; Fmt.str "%.2f" t; string_of_int tc;
           string_of_int nc ])
       plan_scale);
  let time_of n =
    let _, t, _, _ = List.find (fun (m, _, _, _) -> m = n) plan_scale in
    t
  in
  let ratio = time_of 500 /. time_of 10 in
  let within_2x = ratio <= 2.0 in
  Fmt.pr "@.planning time 500 vs 10 views: %.2fx (%s)@." ratio
    (if within_2x then "within 2x, filter tree engaged" else "OVER 2x");
  (* --- JSON + acceptance -------------------------------------------- *)
  let wire_win =
    List.exists
      (fun (_, _, chosen, ng, nh, vg, vh, identical) ->
        chosen && identical && wire_units vg vh < wire_units ng nh)
      wire
  in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, _, i) -> i) wire
  in
  let oc = open_out "BENCH_views.json" in
  Printf.fprintf oc
    "{\n  \"suite\": \"views\",\n  \"head_cost\": 1, \"get_cost\": 10,\n  \"wire\": [\n";
  List.iteri
    (fun i (name, sql, chosen, ng, nh, vg, vh, identical) ->
      Printf.fprintf oc
        "    { \"site\": %S, \"sql\": %S, \"view_chosen\": %b, \
         \"identical\": %b,\n\
        \      \"navigation\": { \"gets\": %d, \"heads\": %d, \"units\": %d },\n\
        \      \"view\": { \"gets\": %d, \"heads\": %d, \"units\": %d } }%s\n"
        name sql chosen identical ng nh (wire_units ng nh) vg vh
        (wire_units vg vh)
        (if i = List.length wire - 1 then "" else ","))
    wire;
  Printf.fprintf oc
    "  ],\n  \"stale_view_rejected\": %b,\n  \"planning\": [\n" stale_rejected;
  List.iteri
    (fun i (n, t, tc, nc) ->
      Printf.fprintf oc
        "    { \"views\": %d, \"plan_ms\": %.2f, \"tree_checks\": %d, \
         \"naive_checks\": %d }%s\n"
        n t tc nc
        (if i = List.length plan_scale - 1 then "" else ","))
    plan_scale;
  Printf.fprintf oc
    "  ],\n  \"planning_ratio_500_over_10\": %.3f, \"within_2x\": %b\n}\n"
    ratio within_2x;
  close_out oc;
  Fmt.pr "@.wrote BENCH_views.json (%d sites, %d registry sizes)@."
    (List.length wire) (List.length plan_scale);
  if not (wire_win && all_identical && stale_rejected && within_2x) then begin
    Fmt.epr "bench-views acceptance FAILED@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bindings benchmark: the rewriting search and the form-only site     *)
(* ------------------------------------------------------------------ *)

(* Two questions. (1) How does the equivalent-rewriting search scale
   with the number of registered path views? The real site has 3; we
   pad the registry with synthetic decoy services (hooked into the
   query's vocabulary so the search must consider them, but never able
   to contribute an output) to 10/100/500 and time the search. (2) On
   the form-only site, how many GETs does the discovered composition
   cost against the oracle that materializes every page before
   answering? Results go to stdout and BENCH_bindings.json; exits
   nonzero when no rewriting is found, when the executed rows diverge
   from ground truth, or when the oracle wins the wire. *)

let bindings_bench () =
  banner "Bindings: rewriting search scaling and the form-only wire";
  let fs = Sitegen.Formsite.build () in
  let site = Sites.of_formsite fs in
  let schema = site.schema and registry = site.registry and stats = Sites.stats site in
  let binding_config = Option.get site.binding_config in
  let sql = Sitegen.Formsite.staff_query "cs" in
  let q = Sql_parser.parse registry sql in
  let ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  (* --- search scaling ------------------------------------------------ *)
  let hooks = [ "dept"; "course"; "prof" ] in
  let real = List.length Sitegen.Formsite.path_views in
  let sizes = [ 10; 100; 500 ] in
  let scaling =
    List.map
      (fun n ->
        let cfg =
          Bindings.add_views binding_config
            (Bindings.decoys ~hooks ~seed:n ~n:(n - real) ())
        in
        (* min of 5 runs: the search allocates, so the first run pays
           the GC's warm-up *)
        let reports, times =
          List.split
            (List.init 5 (fun _ -> ms (fun () -> Bindings.search cfg schema q)))
        in
        let report = List.hd reports in
        let t = List.fold_left min infinity times in
        ( n, t,
          report.Bindings.explored,
          List.length report.Bindings.rewritings,
          report.Bindings.truncated ))
      sizes
  in
  print_table
    [ "path views"; "search ms"; "states"; "rewritings"; "truncated" ]
    (List.map
       (fun (n, t, ex, rw, tr) ->
         [ string_of_int n; Fmt.str "%.2f" t; string_of_int ex;
           string_of_int rw; string_of_bool tr ])
       scaling);
  (* --- the wire: discovered composition vs full materialization ------ *)
  let outcome, plan_ms =
    ms (fun () -> Planner.plan_sql ?bindings:(Sites.bindings site) schema stats registry sql)
  in
  let result, gets, _ = measure_plan schema site.site outcome.Planner.best.Planner.expr in
  let rows =
    List.map
      (function
        | [| a; b |] ->
          ( Option.value ~default:"?" (Adm.Value.as_text a),
            Option.value ~default:"?" (Adm.Value.as_text b) )
        | _ -> ("?", "?"))
      (Adm.Relation.rows_arrays (Planner.rename_output outcome result))
  in
  let expected = Sitegen.Formsite.expected_staff fs ~dept:"cs" in
  let identical = List.sort compare rows = List.sort compare expected in
  let oracle = Sitegen.Formsite.oracle_gets fs in
  Fmt.pr "@.%S@." sql;
  Fmt.pr "planned in %.2f ms, executed with %d GETs (%d rows, %s)@." plan_ms
    gets (List.length rows)
    (if identical then "byte-identical to ground truth" else "ROWS DIVERGED");
  Fmt.pr "full-materialization oracle: %d GETs (%.1fx the rewriting)@." oracle
    (float_of_int oracle /. float_of_int (max 1 gets));
  (* --- JSON + acceptance -------------------------------------------- *)
  let found_all =
    List.for_all (fun (_, _, _, rw, tr) -> rw > 0 && not tr) scaling
  in
  let oc = open_out "BENCH_bindings.json" in
  Printf.fprintf oc
    "{\n\
    \  \"query\": %S,\n\
    \  \"search_scaling\": [\n%s\n  ],\n\
    \  \"execution\": { \"plan_ms\": %.2f, \"gets\": %d, \"rows\": %d, \
     \"identical\": %b },\n\
    \  \"oracle\": { \"gets\": %d },\n\
    \  \"acceptance\": { \"rewriting_at_every_size\": %b, \
     \"identical_rows\": %b, \"fewer_gets_than_oracle\": %b }\n\
     }\n"
    sql
    (String.concat ",\n"
       (List.map
          (fun (n, t, ex, rw, tr) ->
            Printf.sprintf
              "    { \"path_views\": %d, \"search_ms\": %.3f, \
               \"states_explored\": %d, \"rewritings\": %d, \"truncated\": %b }"
              n t ex rw tr)
          scaling))
    plan_ms gets (List.length rows) identical oracle found_all identical
    (gets < oracle);
  close_out oc;
  Fmt.pr "@.wrote BENCH_bindings.json (%d registry sizes)@."
    (List.length scaling);
  if not (found_all && identical && gets < oracle) then begin
    Fmt.epr "bench-bindings acceptance FAILED@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("exp1", exp1); ("exp2", exp2); ("exp3", exp3); ("exp4", exp4);
    ("exp5", exp5); ("exp6", exp6); ("exp7", exp7); ("exp8", exp8);
    ("exp9", exp9); ("exp10", exp10);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let run_all () =
    List.iter (fun (_, f) -> f ()) experiments;
    timings ()
  in
  match args with
  | [] | [ "all" ] -> run_all ()
  | [ "timings" ] -> timings ()
  | [ "kernel" ] -> kernel ()
  | [ "fetch" ] -> fetch ()
  | [ "exec" ] -> exec_bench ()
  | [ "server" ] -> server_bench ()
  | [ "analyze" ] -> analyze_bench ()
  | [ "churn" ] -> churn_bench ()
  | [ "views" ] -> views_bench ()
  | [ "bindings" ] -> bindings_bench ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown experiment %S (have: %s, all, timings, kernel, fetch, exec, server, analyze, churn, views, bindings)@." name
            (String.concat ", " (List.map fst experiments));
          exit 1)
      names
