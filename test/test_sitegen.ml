(* Tests for the site generators: determinism, constraint conformance,
   the intro's four access paths, and mutation consistency. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* University                                                          *)
(* ------------------------------------------------------------------ *)

let test_university_deterministic () =
  let u1 = Sitegen.University.build () in
  let u2 = Sitegen.University.build () in
  let site t = (Sitegen.Sites.of_university t).site in
  let urls t = Websim.Site.urls (site t) in
  check Alcotest.(list string) "same URLs" (urls u1) (urls u2);
  let body t u = (Option.get (Websim.Site.find (site t) u)).Websim.Site.body in
  List.iter (fun u -> check Alcotest.string u (body u1 u) (body u2 u)) (urls u1)

let test_university_scaling () =
  let config =
    { Sitegen.University.default_config with n_profs = 40; n_courses = 100; n_depts = 5 }
  in
  let u = Sitegen.University.build ~config () in
  check int_t "profs scaled" 40 (List.length (Sitegen.University.profs u));
  check int_t "courses scaled" 100 (List.length (Sitegen.University.courses u));
  (* pages: 1 home + 3 entry lists + depts + profs + sessions + courses *)
  check int_t "page count" (4 + 5 + 40 + 3 + 100)
    (Websim.Site.page_count (Sitegen.Sites.of_university u).site)

let test_university_constraints_hold_after_mutations () =
  let u = Sitegen.University.build () in
  let _ = Sitegen.University.hire_professor u ~dept_name:"Computer Science" in
  let c = List.hd (Sitegen.University.courses u) in
  let _ = Sitegen.University.drop_course u ~c_name:c.Sitegen.University.c_name in
  let p = List.hd (Sitegen.University.profs u) in
  let _ = Sitegen.University.promote_professor u ~p_name:p.Sitegen.University.p_name in
  let site = Sitegen.Sites.of_university u in
  check Alcotest.(list string) "constraints hold after mutations" []
    (Websim.Crawler.validate site.schema (Sitegen.Sites.crawl site))

let test_university_mutations_bump_dates () =
  let u = Sitegen.University.build () in
  let site = (Sitegen.Sites.of_university u).site in
  let date url = (Option.get (Websim.Site.find site url)).Websim.Site.last_modified in
  let before = date Sitegen.University.prof_list_url in
  let _ = Sitegen.University.hire_professor u ~dept_name:"Computer Science" in
  check bool_t "prof list page republished" true
    (date Sitegen.University.prof_list_url > before)

let test_full_fraction_config () =
  let config = { Sitegen.University.default_config with full_fraction = 1.0 } in
  let u = Sitegen.University.build ~config () in
  check bool_t "all full" true
    (List.for_all
       (fun (p : Sitegen.University.prof) -> String.equal p.Sitegen.University.rank "Full")
       (Sitegen.University.profs u))

(* ------------------------------------------------------------------ *)
(* Bibliography                                                        *)
(* ------------------------------------------------------------------ *)

let bib_records = Sitegen.Bibliography.build ()
let bib = Sitegen.Sites.of_bibliography bib_records

let test_bibliography_constraints () =
  check Alcotest.(list string) "constraints hold" []
    (Websim.Crawler.validate bib.schema (Sitegen.Sites.crawl bib))

let test_four_paths_same_answer () =
  let source = Webviews.Eval.live_source bib.schema (Websim.Http.connect bib.site) in
  let eval = Webviews.Eval.eval bib.schema source in
  let authors_of expr name_attr year_attr =
    Adm.Relation.rows (eval expr)
    |> List.map (fun t ->
           ( Adm.Value.to_display (Adm.Value.find_exn t name_attr),
             Adm.Value.to_display (Adm.Value.find_exn t year_attr) ))
    |> List.sort_uniq compare
  in
  let a = "EditionPage.PaperList.AuthorList.AName" in
  let y = "EditionPage.Year" in
  let p1 = authors_of (Sitegen.Bibliography.path1_all_conferences ()) a y in
  let p2 = authors_of (Sitegen.Bibliography.path2_db_conferences ()) a y in
  let p3 = authors_of (Sitegen.Bibliography.path3_direct_link ()) a y in
  let p4 =
    authors_of (Sitegen.Bibliography.path4_via_authors ()) "AuthorPage.AName"
      "AuthorPage.PubList.Year"
  in
  check bool_t "paths 1 = 2" true (p1 = p2);
  check bool_t "paths 2 = 3" true (p2 = p3);
  check bool_t "paths 3 = 4" true (p3 = p4)

let test_path4_orders_of_magnitude_worse () =
  let cost expr =
    let http = Websim.Http.connect bib.site in
    let source = Webviews.Eval.live_source bib.schema http in
    let _ = Webviews.Eval.eval bib.schema source expr in
    (Websim.Http.stats http).Websim.Http.gets
  in
  let c3 = cost (Sitegen.Bibliography.path3_direct_link ()) in
  let c4 = cost (Sitegen.Bibliography.path4_via_authors ()) in
  check bool_t "author path ≥ 10x worse" true (c4 >= 10 * c3)

let test_vldb_regulars_ground_truth () =
  let regs = Sitegen.Bibliography.vldb_regulars bib_records 3 in
  check bool_t "some regulars exist" true (regs <> []);
  (* each regular genuinely appears in each of the last 3 years *)
  let years = Sitegen.Bibliography.last_vldb_years bib_records 3 in
  check int_t "three years" 3 (List.length years);
  List.iter
    (fun author ->
      List.iter
        (fun year ->
          let present =
            List.exists
              (fun (e : Sitegen.Bibliography.edition) ->
                String.equal e.Sitegen.Bibliography.conf "VLDB"
                && e.Sitegen.Bibliography.year = year
                && List.exists
                     (fun (p : Sitegen.Bibliography.paper) ->
                       List.mem author p.Sitegen.Bibliography.authors)
                     e.Sitegen.Bibliography.papers)
              (Sitegen.Bibliography.editions bib_records)
          in
          check bool_t (Fmt.str "%s in %d" author year) true present)
        years)
    regs

(* ------------------------------------------------------------------ *)
(* The site table                                                      *)
(* ------------------------------------------------------------------ *)

(* Pins the table against the setup it replaced: for every site,
   [of_name] round-trips, [load] builds at the default size, the view
   registry lints clean, and the per-page-scheme cardinalities equal a
   hand-rolled build → connect → crawl → of_instance over the same
   generator (the declared statistics on the form-only site). *)
let test_site_table () =
  let crawled schema site =
    Webviews.Stats.of_instance (Websim.Crawler.crawl schema (Websim.Http.connect site))
  in
  List.iter
    (fun name ->
      let kind =
        match Sitegen.Sites.of_name name with
        | Ok kind -> kind
        | Error msg -> Alcotest.fail msg
      in
      check Alcotest.string "of_name round-trips" name (Sitegen.Sites.name kind);
      let site = Sitegen.Sites.load kind in
      check Alcotest.(list string) (name ^ ": registry lint clean") []
        (List.map
           (fun (d : Webviews.Diagnostic.t) -> d.Webviews.Diagnostic.code)
           (Webviews.Typecheck.lint_registry site.schema site.registry));
      let expected =
        match kind with
        | University ->
          crawled Sitegen.University.schema
            (Sitegen.University.site (Sitegen.University.build ()))
        | Bibliography ->
          crawled Sitegen.Bibliography.schema
            (Sitegen.Bibliography.site (Sitegen.Bibliography.build ()))
        | Catalog ->
          crawled Sitegen.Catalog.schema (Sitegen.Catalog.site (Sitegen.Catalog.build ()))
        | Formsite ->
          Sitegen.Formsite.stats
            (Sitegen.Formsite.build
               ~config:{ seed = 42; n_depts = 3; n_profs = 20; n_courses = 50 }
               ())
      in
      List.iter
        (fun ps ->
          let scheme = Adm.Page_scheme.name ps in
          check int_t
            (Fmt.str "%s: %s cardinality" name scheme)
            (Webviews.Stats.cardinality expected scheme)
            (Webviews.Stats.cardinality (Sitegen.Sites.stats site) scheme))
        (Adm.Schema.schemes site.schema))
    Sitegen.Sites.names;
  check bool_t "unknown name rejected" true
    (Result.is_error (Sitegen.Sites.of_name "nope"))

(* Every site of the table registers at least one external view, so
   no caller needs an empty-registry branch. *)
let test_every_site_has_views () =
  List.iter
    (fun name ->
      match Sitegen.Sites.of_name name with
      | Error e -> Alcotest.fail e
      | Ok kind ->
        check bool_t (name ^ " registry is non-empty") true
          ((Sitegen.Sites.load kind).registry <> []))
    Sitegen.Sites.names

let suite =
  ( "sitegen",
    [
      Alcotest.test_case "university deterministic" `Quick test_university_deterministic;
      Alcotest.test_case "university scaling" `Quick test_university_scaling;
      Alcotest.test_case "constraints after mutations" `Quick
        test_university_constraints_hold_after_mutations;
      Alcotest.test_case "mutations bump dates" `Quick test_university_mutations_bump_dates;
      Alcotest.test_case "full fraction config" `Quick test_full_fraction_config;
      Alcotest.test_case "bibliography constraints" `Quick test_bibliography_constraints;
      Alcotest.test_case "four paths same answer" `Quick test_four_paths_same_answer;
      Alcotest.test_case "path 4 much worse" `Quick test_path4_orders_of_magnitude_worse;
      Alcotest.test_case "vldb regulars ground truth" `Quick test_vldb_regulars_ground_truth;
      Alcotest.test_case "site table" `Quick test_site_table;
      Alcotest.test_case "every site registers a view" `Quick test_every_site_has_views;
    ] )
