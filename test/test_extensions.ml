(* Tests for the extension modules: the Ulixes-style DSL, constraint
   discovery, the byte-based cost refinement, staleness tolerance for
   materialized views, and the catalog site. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

let uni = Sitegen.Sites.load University
let uni_schema = uni.schema
let uni_instance = lazy (Sitegen.Sites.crawl uni)

let test_dsl_matches_raw_nalg () =
  let via_dsl =
    Dsl.(
      start "ProfListPage"
      |> dive "ProfList"
      |> follow "ToProf" ~scheme:"ProfPage"
      |> where_eq "Rank" (Adm.Value.text "Full")
      |> keep [ "PName" ]
      |> finish)
  in
  let raw =
    Nalg.project [ "ProfPage.PName" ]
      (Nalg.select
         [ Pred.eq_const "ProfPage.Rank" (Adm.Value.text "Full") ]
         (Nalg.follow
            (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
            "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"))
  in
  check bool_t "structurally equal" true (Nalg.equal via_dsl raw)

let test_dsl_cursor_tracking () =
  let nav = Dsl.(start "SessionListPage" |> dive "SesList") in
  check Alcotest.string "cursor after dive" "SessionListPage.SesList" (Dsl.cursor nav);
  check Alcotest.string "relative attr" "SessionListPage.SesList.Session"
    (Dsl.attr nav "Session");
  let nav = Dsl.follow "ToSes" ~scheme:"SessionPage" nav in
  check Alcotest.string "cursor after follow" "SessionPage" (Dsl.cursor nav)

let test_dsl_join_and_eval () =
  let profs =
    Dsl.(start "ProfListPage" |> dive "ProfList" |> follow "ToProf" ~scheme:"ProfPage")
  in
  let depts =
    Dsl.(start "DeptListPage" |> dive "DeptList" |> follow "ToDept" ~scheme:"DeptPage")
  in
  let joined = Dsl.(join_on [ ("DName", "DName") ] profs depts |> finish) in
  let r =
    Eval.eval uni_schema (Eval.instance_source (Lazy.force uni_instance)) joined
  in
  check int_t "20 profs each with a dept" 20 (Adm.Relation.cardinality r)

let test_dsl_qualified_passthrough () =
  (* already-qualified names are untouched *)
  let nav = Dsl.(start "ProfListPage" |> dive "ProfList") in
  check Alcotest.string "qualified name untouched" "Other.Attr" (Dsl.attr nav "Other.Attr")

(* ------------------------------------------------------------------ *)
(* Discovery                                                           *)
(* ------------------------------------------------------------------ *)

let test_discovery_confirms_university () =
  let audit = Discover.audit uni_schema (Lazy.force uni_instance) in
  check int_t "no declared link constraint refuted" 0
    (List.length audit.Discover.refuted_links);
  check int_t "no declared inclusion refuted" 0
    (List.length audit.Discover.refuted_inclusions)

let test_discovery_finds_paper_constraints () =
  let report = Discover.discover uni_schema (Lazy.force uni_instance) in
  let has_link src tgt =
    List.exists
      (fun (c : Adm.Constraints.link_constraint) ->
        String.equal (Adm.Constraints.path_to_string c.Adm.Constraints.source_attr) src
        && String.equal c.Adm.Constraints.target_attr tgt)
      report.Discover.discovered_links
  in
  (* the paper's two example link constraints (Section 3.2) *)
  check bool_t "ProfPage.DName = DeptPage.DName" true (has_link "ProfPage.DName" "DName");
  check bool_t "SessionPage.Session = CoursePage.Session" true
    (has_link "SessionPage.Session" "Session");
  let has_incl sub sup =
    List.exists
      (fun (c : Adm.Constraints.inclusion) ->
        String.equal (Adm.Constraints.path_to_string c.Adm.Constraints.sub) sub
        && String.equal (Adm.Constraints.path_to_string c.Adm.Constraints.sup) sup)
      report.Discover.discovered_inclusions
  in
  check bool_t "CoursePage.ToProf ⊆ ProfListPage.ProfList.ToProf" true
    (has_incl "CoursePage.ToProf" "ProfListPage.ProfList.ToProf")

let test_discovery_rejects_false_inclusion () =
  (* the converse inclusion must NOT be discovered when some professor
     teaches no course *)
  let uni = Sitegen.University.build () in
  let profs = Sitegen.University.profs uni in
  let courses = Sitegen.University.courses uni in
  let idle_prof_exists =
    List.exists
      (fun (p : Sitegen.University.prof) ->
        not
          (List.exists
             (fun (c : Sitegen.University.course) ->
               String.equal c.Sitegen.University.instructor p.Sitegen.University.p_name)
             courses))
      profs
  in
  if idle_prof_exists then begin
    let report = Discover.discover uni_schema (Lazy.force uni_instance) in
    let bad =
      List.exists
        (fun (c : Adm.Constraints.inclusion) ->
          String.equal
            (Adm.Constraints.path_to_string c.Adm.Constraints.sub)
            "ProfListPage.ProfList.ToProf"
          && String.equal
               (Adm.Constraints.path_to_string c.Adm.Constraints.sup)
               "CoursePage.ToProf")
        report.Discover.discovered_inclusions
    in
    check bool_t "converse not discovered" false bad
  end

let test_discovery_audit_refutes_broken_constraint () =
  (* add a bogus declared constraint; the audit must refute it *)
  let bogus =
    Adm.Constraints.link_constraint
      ~link:(Adm.Constraints.path "ProfPage" [ "ToDept" ])
      ~source_attr:(Adm.Constraints.path "ProfPage" [ "Email" ])
      ~target_scheme:"DeptPage" ~target_attr:"Address"
  in
  let broken =
    Adm.Schema.make ~name:"broken"
      ~schemes:(Adm.Schema.schemes uni_schema)
      ~link_constraints:(bogus :: Adm.Schema.link_constraints uni_schema)
      ~inclusions:(Adm.Schema.inclusions uni_schema)
  in
  let audit = Discover.audit broken (Lazy.force uni_instance) in
  check int_t "exactly the bogus constraint refuted" 1
    (List.length audit.Discover.refuted_links)

(* ------------------------------------------------------------------ *)
(* Byte-based cost (footnote 8)                                        *)
(* ------------------------------------------------------------------ *)

let test_byte_cost_distinguishes_intro_paths () =
  let bib = Sitegen.Sites.load Bibliography in
  let cost e = Cost.byte_cost bib.schema (Sitegen.Sites.stats bib) e in
  let c1 = cost (Sitegen.Bibliography.path1_all_conferences ()) in
  let c2 = cost (Sitegen.Bibliography.path2_db_conferences ()) in
  let c4 = cost (Sitegen.Bibliography.path4_via_authors ()) in
  (* page-count cost ties paths 1 and 2; bytes must not *)
  check bool_t "db-conference path cheaper in bytes" true (c2 < c1);
  check bool_t "author path far worse in bytes" true (c4 > 5.0 *. c1)

let test_byte_cost_tracks_measured_bytes () =
  let bib = Sitegen.Sites.load Bibliography in
  let plan = Sitegen.Bibliography.path3_direct_link () in
  let predicted = Cost.byte_cost bib.schema (Sitegen.Sites.stats bib) plan in
  let http = Websim.Http.connect bib.site in
  let _ = Eval.eval bib.schema (Eval.live_source bib.schema http) plan in
  let measured = float_of_int (Websim.Http.stats http).Websim.Http.bytes in
  check bool_t "within 2x of measured" true
    (predicted > measured /. 2.0 && predicted < measured *. 2.0)

(* ------------------------------------------------------------------ *)
(* Staleness tolerance                                                 *)
(* ------------------------------------------------------------------ *)

let test_max_age_skips_checks () =
  let uni = Sitegen.Sites.load University in
  let mv = Matview.materialize uni.schema (Websim.Http.connect uni.site) in
  let plan =
    Dsl.(
      start "ProfListPage" |> dive "ProfList" |> follow "ToProf" ~scheme:"ProfPage"
      |> keep [ "PName" ] |> finish)
  in
  let fresh = Matview.query_counted ~max_age:1000 mv plan in
  check int_t "no light connections within tolerance" 0 fresh.Matview.light_connections;
  check int_t "no downloads" 0 fresh.Matview.downloads;
  (* without tolerance, checks resume *)
  let strict = Matview.query_counted mv plan in
  check bool_t "strict mode checks again" true (strict.Matview.light_connections > 0)

let test_max_age_serves_stale () =
  let uni = Sitegen.University.build () in
  let site = Sitegen.Sites.of_university uni in
  let mv = Matview.materialize site.schema (Websim.Http.connect site.site) in
  let plan =
    Dsl.(
      start "ProfListPage" |> dive "ProfList" |> follow "ToProf" ~scheme:"ProfPage"
      |> keep [ "PName" ] |> finish)
  in
  let p = List.hd (Sitegen.University.profs uni) in
  ignore (Sitegen.University.promote_professor uni ~p_name:p.Sitegen.University.p_name);
  (* tolerant query: serves the stale rank without network *)
  let tolerant = Matview.query_counted ~max_age:1000 mv plan in
  check int_t "stale but silent" 0 tolerant.Matview.downloads;
  (* strict query: sees the update *)
  let strict = Matview.query_counted mv plan in
  check int_t "strict downloads the change" 1 strict.Matview.downloads

(* ------------------------------------------------------------------ *)
(* Catalog site                                                        *)
(* ------------------------------------------------------------------ *)

let catalog_records = Sitegen.Catalog.build ()
let catalog = Sitegen.Sites.of_catalog catalog_records
let catalog_instance = lazy (Sitegen.Sites.crawl catalog)

let test_catalog_constraints () =
  check Alcotest.(list string) "schema well-formed" []
    (Adm.Schema.validate catalog.schema);
  check Alcotest.(list string) "instance satisfies constraints" []
    (Websim.Crawler.validate catalog.schema (Lazy.force catalog_instance))

let test_catalog_two_paths_equivalent () =
  let source = Eval.instance_source (Lazy.force catalog_instance) in
  let eval = Eval.eval catalog.schema source in
  let names nav_expr =
    Adm.Relation.column "ProductPage.PName" (eval nav_expr)
    |> List.map Adm.Value.to_string |> List.sort_uniq compare
  in
  let by_cat =
    Dsl.(
      start "CategoryListPage" |> dive "CatList" |> follow "ToCat" ~scheme:"CategoryPage"
      |> dive "ProductList" |> follow "ToProduct" ~scheme:"ProductPage" |> finish)
  in
  let by_brand =
    Dsl.(
      start "BrandListPage" |> dive "BrandList" |> follow "ToBrand" ~scheme:"BrandPage"
      |> dive "ProductList" |> follow "ToProduct" ~scheme:"ProductPage" |> finish)
  in
  check bool_t "both paths reach the same products" true (names by_cat = names by_brand);
  check int_t "all products" 120 (List.length (names by_cat))

let test_catalog_planner_picks_matching_entry () =
  let plan_of sql =
    (Planner.plan_sql catalog.schema (Sitegen.Sites.stats catalog) catalog.registry sql)
      .Planner.best
      .Planner.expr
  in
  let brand_plan = plan_of "SELECT p.PName FROM Product p WHERE p.Brand = 'Acme'" in
  check bool_t "brand query enters through brands" true
    (List.mem "BrandListPage" (Nalg.aliases brand_plan));
  let cat_plan = plan_of "SELECT p.PName FROM Product p WHERE p.Category = 'Audio'" in
  check bool_t "category query enters through categories" true
    (List.mem "CategoryListPage" (Nalg.aliases cat_plan))

let test_catalog_range_query_correct () =
  let source = Eval.instance_source (Lazy.force catalog_instance) in
  let _, result =
    Planner.run catalog.schema (Sitegen.Sites.stats catalog) catalog.registry source
      "SELECT p.PName FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50"
  in
  let expected =
    List.filter
      (fun (p : Sitegen.Catalog.product) ->
        String.equal p.Sitegen.Catalog.brand "Acme" && p.Sitegen.Catalog.price < 50)
      (Sitegen.Catalog.products catalog_records)
  in
  check int_t "range query matches ground truth" (List.length expected)
    (Adm.Relation.cardinality result)

let test_catalog_reprice () =
  let c = Sitegen.Catalog.build () in
  let p = List.hd (Sitegen.Catalog.products c) in
  check bool_t "reprice ok" true
    (Sitegen.Catalog.reprice c ~p_name:p.Sitegen.Catalog.p_name ~price:1);
  let instance = Sitegen.Sites.crawl (Sitegen.Sites.of_catalog c) in
  check Alcotest.(list string) "constraints still hold" []
    (Websim.Crawler.validate catalog.schema instance)

let test_catalog_discovery_finds_equivalence () =
  let report = Discover.discover catalog.schema (Lazy.force catalog_instance) in
  let has sub sup =
    List.exists
      (fun (c : Adm.Constraints.inclusion) ->
        String.equal (Adm.Constraints.path_to_string c.Adm.Constraints.sub) sub
        && String.equal (Adm.Constraints.path_to_string c.Adm.Constraints.sup) sup)
      report.Discover.discovered_inclusions
  in
  check bool_t "category ⊆ brand" true
    (has "CategoryPage.ProductList.ToProduct" "BrandPage.ProductList.ToProduct");
  check bool_t "brand ⊆ category" true
    (has "BrandPage.ProductList.ToProduct" "CategoryPage.ProductList.ToProduct")

(* ------------------------------------------------------------------ *)
(* Ablation flags and DOT output                                       *)
(* ------------------------------------------------------------------ *)

let test_ablation_pointer_rules () =
  let stats = Sitegen.Sites.stats uni in
  let sql =
    "SELECT p.PName FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
     WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName \
     AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'"
  in
  let full =
    Planner.plan_sql uni_schema stats uni.registry sql
  in
  let ablated =
    Planner.plan_sql ~pointer_rules:false uni_schema stats uni.registry sql
  in
  check bool_t "pointer rules reduce best cost" true
    (full.Planner.best.Planner.cost < ablated.Planner.best.Planner.cost);
  (* the ablated plans are still correct *)
  let source = Eval.instance_source (Lazy.force uni_instance) in
  let rows o =
    Adm.Relation.rows
      (Planner.rename_output o (Eval.eval uni_schema source o.Planner.best.Planner.expr))
    |> List.map (List.map (fun (_, v) -> Adm.Value.to_string v))
    |> List.sort_uniq compare
  in
  check bool_t "ablated planner still correct" true (rows full = rows ablated)

let test_to_dot_well_formed () =
  let stats = Sitegen.Sites.stats uni in
  let outcome =
    Planner.plan_sql uni_schema stats uni.registry
      "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
  in
  let dot = Explain.to_dot outcome.Planner.best.Planner.expr in
  check bool_t "digraph header" true (String.length dot > 13 && String.sub dot 0 13 = "digraph plan ");
  check bool_t "closed" true (String.length dot > 2 && String.sub dot (String.length dot - 2) 2 = "}\n");
  (* one node per operator *)
  let count sub s =
    let n = ref 0 in
    let len = String.length sub in
    for i = 0 to String.length s - len do
      if String.sub s i len = sub then incr n
    done;
    !n
  in
  check int_t "five nodes" 5 (count "label=" dot);
  check int_t "four edges" 4 (count " -> " dot)

(* ------------------------------------------------------------------ *)
(* Default-navigation inference (the paper's Section 5 suggestion)     *)
(* ------------------------------------------------------------------ *)

let test_infer_matches_declared_view () =
  (* the inferred navigation for ProfPage is exactly the Professor
     default navigation of Section 5 *)
  let declared =
    (View.find_exn uni.registry "Professor").View.navigations
    |> List.map (fun n -> Nalg.canonical n.View.nav_expr)
  in
  let inferred =
    View.infer_navigations uni_schema ~scheme:"ProfPage" |> List.map Nalg.canonical
  in
  check bool_t "inferred = declared" true (inferred = declared)

let test_infer_course_via_sessions () =
  match View.infer_navigations uni_schema ~scheme:"CoursePage" with
  | [ nav ] ->
    (* only the session path covers all courses (the professor path is
       strictly contained, Section 5) *)
    check bool_t "goes through sessions" true (List.mem "SessionPage" (Nalg.aliases nav));
    (* and it indeed reaches every course *)
    let r = Eval.eval uni_schema (Eval.instance_source (Lazy.force uni_instance)) nav in
    check int_t "all 50 courses" 50
      (Adm.Relation.distinct_count "CoursePage.URL" r)
  | navs -> Alcotest.failf "expected exactly one navigation, got %d" (List.length navs)

let test_infer_catalog_equivalence_gives_two () =
  (* products are reachable via two equivalent maximal paths: both are
     inferred *)
  let navs = View.infer_navigations catalog.schema ~scheme:"ProductPage" in
  check int_t "two navigations" 2 (List.length navs);
  let entries = List.concat_map Nalg.aliases navs in
  check bool_t "one per hierarchy" true
    (List.mem "CategoryListPage" entries && List.mem "BrandListPage" entries)

let test_infer_navigations_are_well_formed () =
  List.iter
    (fun scheme ->
      List.iter
        (fun nav ->
          check Alcotest.(list string) (Fmt.str "%s nav checks" scheme) []
            (List.map Diagnostic.to_string (Typecheck.check uni_schema nav)))
        (View.infer_navigations uni_schema ~scheme))
    [ "ProfPage"; "CoursePage"; "DeptPage"; "SessionPage" ]

let suite =
  ( "extensions",
    [
      Alcotest.test_case "ablation pointer rules" `Quick test_ablation_pointer_rules;
      Alcotest.test_case "to_dot well-formed" `Quick test_to_dot_well_formed;
      Alcotest.test_case "infer matches declared view" `Quick test_infer_matches_declared_view;
      Alcotest.test_case "infer course via sessions" `Quick test_infer_course_via_sessions;
      Alcotest.test_case "infer catalog equivalence" `Quick
        test_infer_catalog_equivalence_gives_two;
      Alcotest.test_case "inferred navs well-formed" `Quick
        test_infer_navigations_are_well_formed;
      Alcotest.test_case "dsl matches raw nalg" `Quick test_dsl_matches_raw_nalg;
      Alcotest.test_case "dsl cursor tracking" `Quick test_dsl_cursor_tracking;
      Alcotest.test_case "dsl join and eval" `Quick test_dsl_join_and_eval;
      Alcotest.test_case "dsl qualified passthrough" `Quick test_dsl_qualified_passthrough;
      Alcotest.test_case "discovery confirms university" `Quick test_discovery_confirms_university;
      Alcotest.test_case "discovery finds paper constraints" `Quick
        test_discovery_finds_paper_constraints;
      Alcotest.test_case "discovery rejects false inclusion" `Quick
        test_discovery_rejects_false_inclusion;
      Alcotest.test_case "audit refutes broken constraint" `Quick
        test_discovery_audit_refutes_broken_constraint;
      Alcotest.test_case "byte cost distinguishes intro paths" `Quick
        test_byte_cost_distinguishes_intro_paths;
      Alcotest.test_case "byte cost tracks measured" `Quick test_byte_cost_tracks_measured_bytes;
      Alcotest.test_case "max_age skips checks" `Quick test_max_age_skips_checks;
      Alcotest.test_case "max_age serves stale" `Quick test_max_age_serves_stale;
      Alcotest.test_case "catalog constraints" `Quick test_catalog_constraints;
      Alcotest.test_case "catalog two paths equivalent" `Quick test_catalog_two_paths_equivalent;
      Alcotest.test_case "catalog planner picks entry" `Quick
        test_catalog_planner_picks_matching_entry;
      Alcotest.test_case "catalog range query" `Quick test_catalog_range_query_correct;
      Alcotest.test_case "catalog reprice" `Quick test_catalog_reprice;
      Alcotest.test_case "catalog discovery equivalence" `Quick
        test_catalog_discovery_finds_equivalence;
    ] )
