(* Tests for statistics, the cost model, the SQL front end, view
   expansion and the plan-selection algorithm. The key invariant:
   every candidate plan the planner produces computes the same
   relation, and the paper's Examples 7.1 / 7.2 pick the documented
   winners. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* The default university: its generator's ground truth and its
   site-table bundle. *)
let u = Sitegen.University.build ()
let uni = Sitegen.Sites.of_university u
let schema = uni.schema
let registry = uni.registry
let instance = lazy (Sitegen.Sites.crawl uni)
let stats = uni.stats

let eval e = Eval.eval schema (Eval.instance_source (Lazy.force instance)) e

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_cardinalities () =
  let s = Lazy.force stats in
  check int_t "|CoursePage|" 50 (Stats.cardinality s "CoursePage");
  check int_t "|ProfPage|" 20 (Stats.cardinality s "ProfPage");
  check int_t "|DeptPage|" 3 (Stats.cardinality s "DeptPage")

let test_stats_fanout_distinct () =
  let s = Lazy.force stats in
  check bool_t "prof list fanout" true
    (Float.abs (Stats.fanout s "ProfListPage.ProfList" -. 20.0) < 0.001);
  check int_t "distinct sessions" 3 (Stats.distinct s "CoursePage.Session");
  check bool_t "selectivity" true
    (Float.abs (Stats.selectivity s "CoursePage.Session" -. (1.0 /. 3.0)) < 1e-9)

let test_stats_repetition () =
  let s = Lazy.force stats in
  (* ToCourse from SessionPage.CourseList: 50 items, 50 distinct → r=1 *)
  let r = Stats.repetition s "SessionPage" [ "CourseList"; "ToCourse" ] in
  check bool_t "repetition ≈ 1" true (Float.abs (r -. 1.0) < 0.01);
  (* ToProf in CoursePage: 50 pages, 18 distinct instructors → r ≈ 2.8 *)
  let r2 = Stats.repetition s "CoursePage" [ "ToProf" ] in
  let expected = 50.0 /. float_of_int (Stats.distinct s "CoursePage.ToProf") in
  check bool_t "repetition of repeated links" true (Float.abs (r2 -. expected) < 0.01)

let test_stats_page_bytes () =
  let s = Lazy.force stats in
  (* exact average page size collected from the crawl *)
  let total, n =
    List.fold_left
      (fun (total, n) (p : Sitegen.University.prof) ->
        match Websim.Site.find uni.site (Sitegen.University.prof_url p.Sitegen.University.p_name) with
        | Some page -> (total + String.length page.Websim.Site.body, n + 1)
        | None -> (total, n))
      (0, 0) (Sitegen.University.profs u)
  in
  let expected = float_of_int total /. float_of_int n in
  check bool_t "avg professor page size" true
    (Float.abs (Stats.page_bytes s "ProfPage" -. expected) < 0.5)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let profs_nav =
  Nalg.follow
    (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
    "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"

let test_cost_entry () =
  let s = Lazy.force stats in
  check bool_t "entry costs 1" true (Cost.cost schema s (Nalg.entry "ProfListPage") = 1.0)

let test_cost_navigation () =
  let s = Lazy.force stats in
  (* 1 (entry) + 20 (distinct professor links) *)
  check bool_t "profs nav" true (Float.abs (Cost.cost schema s profs_nav -. 21.0) < 0.01)

let test_cost_selection_cuts_navigation () =
  let s = Lazy.force stats in
  let selective =
    Nalg.follow
      (Nalg.select
         [ Pred.eq_const "DeptListPage.DeptList.DName" (Adm.Value.text "Computer Science") ]
         (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList"))
      "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage"
  in
  (* 1 + 3·(1/3) = 2 *)
  check bool_t "selective navigation" true
    (Float.abs (Cost.cost schema s selective -. 2.0) < 0.01)

let test_cost_example_72_shape () =
  (* the paper's Example 7.2 arithmetic: the chase plan costs about
     1 + 1 + |ProfPage|/|DeptPage| + |CoursePage|/|DeptPage| ≈ 25.4
     at 50 courses / 20 profs / 3 depts *)
  let s = Lazy.force stats in
  let chase =
    Nalg.follow
      (Nalg.unnest
         (Nalg.follow
            (Nalg.unnest
               (Nalg.follow
                  (Nalg.select
                     [
                       Pred.eq_const "DeptListPage.DeptList.DName"
                         (Adm.Value.text "Computer Science");
                     ]
                     (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList"))
                  "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage")
               "DeptPage.ProfList")
            "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")
         "ProfPage.CourseList")
      "ProfPage.CourseList.ToCourse" ~scheme:"CoursePage"
  in
  let c = Cost.cost schema s chase in
  check bool_t "paper ballpark (≈23–27)" true (c > 20.0 && c < 30.0)

let test_cardinality_estimates () =
  let s = Lazy.force stats in
  check bool_t "nav card = 20" true
    (Float.abs (Cost.cardinality schema s profs_nav -. 20.0) < 0.01);
  let sel =
    Nalg.select [ Pred.eq_const "ProfPage.Rank" (Adm.Value.text "Full") ] profs_nav
  in
  check bool_t "selection shrinks card" true
    (Cost.cardinality schema s sel < 20.0)

(* ------------------------------------------------------------------ *)
(* SQL front end                                                       *)
(* ------------------------------------------------------------------ *)

let test_sql_lexer () =
  let toks = Sql_lexer.tokenize "SELECT a.B FROM R a WHERE a.B <> 'x y' AND a.C >= 10" in
  check int_t "token count" 20 (List.length toks)

let test_sql_parse_basic () =
  let q = Sql_parser.parse registry "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'" in
  check Alcotest.(list string_t) "select" [ "p.PName" ] q.Conjunctive.select;
  check int_t "one source" 1 (List.length q.Conjunctive.from);
  check int_t "one condition" 1 (List.length q.Conjunctive.where)

let test_sql_star_and_unqualified () =
  let q = Sql_parser.parse registry "SELECT * FROM Dept" in
  check Alcotest.(list string_t) "star expands" [ "Dept.DName"; "Dept.Address" ]
    q.Conjunctive.select;
  let q2 = Sql_parser.parse registry "SELECT Address FROM Dept WHERE DName = 'x'" in
  check Alcotest.(list string_t) "unqualified resolves" [ "Dept.Address" ]
    q2.Conjunctive.select

let test_sql_errors () =
  let fails input =
    match Sql_parser.parse registry input with
    | exception Sql_parser.Parse_error _ -> true
    | _ -> false
  in
  check bool_t "unknown relation" true (fails "SELECT x FROM Nope");
  check bool_t "unknown attribute" true (fails "SELECT p.Nope FROM Professor p");
  check bool_t "ambiguous attribute" true
    (fails "SELECT PName FROM Professor p, ProfDept d");
  check bool_t "syntax error" true (fails "SELECT FROM Professor");
  check bool_t "unterminated string" true
    (fails "SELECT p.PName FROM Professor p WHERE p.Rank = 'oops")

let test_sql_to_algebra_shape () =
  let q =
    Sql_parser.parse registry
      "SELECT p.PName FROM Professor p, ProfDept d WHERE p.PName = d.PName AND d.DName = 'CS'"
  in
  match Conjunctive.to_algebra q with
  | Nalg.Project ([ "p.PName" ], Nalg.Select (_, Nalg.Join (keys, _, _))) ->
    check int_t "join keys" 1 (List.length keys)
  | e -> Alcotest.failf "unexpected shape: %s" (Nalg.to_string e)

(* ------------------------------------------------------------------ *)
(* View expansion (rule 1)                                             *)
(* ------------------------------------------------------------------ *)

let test_expand_cardinality () =
  (* CourseInstructor has 2 default navigations, Professor 1: a join
     of both expands into 2 plans *)
  let q =
    Nalg.join
      [ ("p.PName", "ci.PName") ]
      (Nalg.external_ ~alias:"p" "Professor")
      (Nalg.external_ ~alias:"ci" "CourseInstructor")
  in
  let expansions = View.expand registry q in
  check int_t "2 expansions" 2 (List.length expansions);
  List.iter
    (fun e -> check bool_t "computable" true (Nalg.is_computable e))
    expansions

let test_expand_renames_attrs () =
  let q =
    Nalg.project [ "p.Rank" ] (Nalg.external_ ~alias:"p" "Professor")
  in
  match View.expand registry q with
  | [ Nalg.Project ([ attr ], _) ] ->
    check string_t "bound to plan attribute" "ProfPage.Rank" attr
  | _ -> Alcotest.fail "expansion shape"

let test_expand_self_join_aliases () =
  (* two occurrences of Professor must get disjoint aliases *)
  let q =
    Nalg.join
      [ ("a.PName", "b.PName") ]
      (Nalg.external_ ~alias:"a" "Professor")
      (Nalg.external_ ~alias:"b" "Professor")
  in
  match View.expand registry q with
  | [ e ] ->
    let aliases = Nalg.aliases e in
    check int_t "four distinct page occurrences" 4
      (List.length (List.sort_uniq String.compare aliases))
  | other -> Alcotest.failf "expected 1 expansion, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Planner end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let all_plans_agree sql =
  let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
  let results =
    List.map
      (fun (p : Planner.plan) ->
        Adm.Relation.sort_rows (Planner.rename_output outcome (eval p.Planner.expr)))
      outcome.Planner.candidates
  in
  match results with
  | [] -> Alcotest.fail "no candidates"
  | first :: rest ->
    List.iteri
      (fun i r ->
        if not (Adm.Relation.equal first r) then
          Alcotest.failf "candidate %d disagrees for %s" (i + 1) sql)
      rest;
    (outcome, first)

let test_planner_simple_query () =
  let outcome, result = all_plans_agree "SELECT d.DName, d.Address FROM Dept d" in
  check int_t "3 depts" 3 (Adm.Relation.cardinality result);
  check bool_t "cost sane" true (outcome.Planner.best.Planner.cost >= 2.0)

let test_planner_example_71 () =
  (* pointer-join must beat pointer-chase (paper, Example 7.1) *)
  let sql =
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
     WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = 'Fall' AND p.Rank = 'Full'"
  in
  let outcome, result = all_plans_agree sql in
  let best = outcome.Planner.best.Planner.expr in
  (* the best plan joins two pointer sets below a follow *)
  let is_pointer_join =
    Nalg.fold
      (fun acc n ->
        acc || match n with Nalg.Follow { src = Nalg.Join _; _ } -> true | _ -> false)
      false best
  in
  check bool_t "pointer join wins 7.1" true is_pointer_join;
  (* sanity: correct answer against ground truth *)
  let expected =
    List.filter
      (fun (c : Sitegen.University.course) ->
        String.equal c.Sitegen.University.c_session "Fall"
        && List.exists
             (fun (p : Sitegen.University.prof) ->
               String.equal p.Sitegen.University.p_name c.Sitegen.University.instructor
               && String.equal p.Sitegen.University.rank "Full")
             (Sitegen.University.profs u))
      (Sitegen.University.courses u)
  in
  check int_t "ground truth rows" (List.length expected) (Adm.Relation.cardinality result)

let test_planner_example_72 () =
  (* pointer-chase must beat pointer-join (paper, Example 7.2) *)
  let sql =
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
     WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName \
     AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'"
  in
  let outcome, result = all_plans_agree sql in
  let best = outcome.Planner.best.Planner.expr in
  check bool_t "no join in the winning plan (pure chase)" true
    (Nalg.fold
       (fun acc n -> acc && match n with Nalg.Join _ -> false | _ -> true)
       true best);
  check bool_t "chase starts from the dept list" true
    (List.mem "DeptListPage" (Nalg.aliases best));
  let expected =
    List.filter
      (fun (p : Sitegen.University.prof) ->
        String.equal p.Sitegen.University.p_dept "Computer Science"
        && List.exists
             (fun (c : Sitegen.University.course) ->
               String.equal c.Sitegen.University.instructor p.Sitegen.University.p_name
               && String.equal c.Sitegen.University.c_type "Graduate")
             (Sitegen.University.courses u))
      (Sitegen.University.profs u)
  in
  check int_t "ground truth rows" (List.length expected) (Adm.Relation.cardinality result)

let test_planner_cost_orders_match_measured () =
  (* the estimated order of the top plans must match measured accesses
     for the 7.2 query *)
  let sql =
    "SELECT p.PName FROM Professor p, ProfDept pd WHERE p.PName = pd.PName \
     AND pd.DName = 'Computer Science'"
  in
  let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
  let measured (p : Planner.plan) =
    let http = Websim.Http.connect uni.site in
    let source = Eval.live_source schema http in
    let _ = Eval.eval schema source p.Planner.expr in
    (Websim.Http.stats http).Websim.Http.gets
  in
  match outcome.Planner.candidates with
  | best :: _ ->
    let worst = List.nth outcome.Planner.candidates (List.length outcome.Planner.candidates - 1) in
    check bool_t "cheapest plan downloads fewer pages than the costliest" true
      (measured best <= measured worst)
  | [] -> Alcotest.fail "no candidates"

let test_planner_rejects_unknown () =
  check bool_t "parse error surfaces" true
    (match Planner.plan_sql schema (Lazy.force stats) registry "SELECT x FROM Nope" with
    | exception Sql_parser.Parse_error _ -> true
    | _ -> false)

let test_planner_figure2_query () =
  (* "Name and Description of courses held by members of the CS
     department" — the Figure 2 query *)
  let sql =
    "SELECT c.CName, c.Description FROM Course c, CourseInstructor ci, ProfDept pd \
     WHERE c.CName = ci.CName AND ci.PName = pd.PName AND pd.DName = 'Computer Science'"
  in
  let _, result = all_plans_agree sql in
  let expected =
    List.filter
      (fun (c : Sitegen.University.course) ->
        List.exists
          (fun (p : Sitegen.University.prof) ->
            String.equal p.Sitegen.University.p_name c.Sitegen.University.instructor
            && String.equal p.Sitegen.University.p_dept "Computer Science")
          (Sitegen.University.profs u))
      (Sitegen.University.courses u)
  in
  check int_t "figure 2 rows" (List.length expected) (Adm.Relation.cardinality result)

(* ------------------------------------------------------------------ *)
(* Plan pins                                                           *)
(* ------------------------------------------------------------------ *)

(* What the planner decides for a fixed set of queries, pinned in
   planner_pins.txt: the best plan, every candidate's cost in order,
   the explored and merged counts and the diagnostic codes (W0401
   included). A change that only makes planning cheaper must leave
   all of it unchanged. The queries are the five join families of the
   planning benchmark on a 20-dept/400-prof/800-course/4-session
   university, two constant sets each, and every query the examples
   plan. *)

let pin_join_site =
  lazy
    (Sitegen.Sites.of_university
       (Sitegen.University.build
          ~config:
            {
              Sitegen.University.default_config with
              Sitegen.University.n_depts = 20;
              n_profs = 400;
              n_courses = 800;
              n_sessions = 4;
            }
          ()))

let pin_uni_site = lazy (Sitegen.Sites.load University)
let pin_catalog_site = lazy (Sitegen.Sites.load Catalog)

(* Schema, registry and crawled statistics of a pinned site. *)
let pin_parts site =
  let (s : Sitegen.Sites.t) = Lazy.force site in
  (s.schema, s.registry, Sitegen.Sites.stats s)

let pin_dept_members dept =
  Printf.sprintf
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d WHERE p.PName = \
     d.PName AND d.DName = '%s'"
    dept

let pin_fig2 dept =
  Printf.sprintf
    "SELECT c.CName, c.Description FROM Course c, CourseInstructor ci, \
     ProfDept pd WHERE c.CName = ci.CName AND ci.PName = pd.PName AND \
     pd.DName = '%s'"
    dept

let pin_ex71 session rank =
  Printf.sprintf
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, \
     Course c WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session \
     = '%s' AND p.Rank = '%s'"
    session rank

let pin_ex72 dept ctype =
  Printf.sprintf
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
     ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName \
     = pd.PName AND pd.DName = '%s' AND c.Type = '%s'"
    dept ctype

let pin_ex72_session dept session =
  Printf.sprintf
    "SELECT c.CName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
     ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName \
     = pd.PName AND pd.DName = '%s' AND c.Session = '%s'"
    dept session

let pin_cases =
  [
    ("dept-members/cs", pin_join_site, pin_dept_members "Computer Science");
    ("dept-members/d16", pin_join_site, pin_dept_members "Department 16");
    ("fig2/cs", pin_join_site, pin_fig2 "Computer Science");
    ("fig2/d12", pin_join_site, pin_fig2 "Department 12");
    ("ex7.1/fall-full", pin_join_site, pin_ex71 "Fall" "Full");
    ("ex7.1/summer-assistant", pin_join_site, pin_ex71 "Summer" "Assistant");
    ("ex7.2/cs-graduate", pin_join_site, pin_ex72 "Computer Science" "Graduate");
    ("ex7.2/physics-undergraduate", pin_join_site, pin_ex72 "Physics" "Undergraduate");
    ("ex7.2-session/cs-fall", pin_join_site, pin_ex72_session "Computer Science" "Fall");
    ("ex7.2-session/d20-winter", pin_join_site, pin_ex72_session "Department 20" "Winter");
    ("examples/quickstart", pin_uni_site, pin_dept_members "Computer Science");
    ("examples/optimizer_tour", pin_uni_site, pin_ex71 "Fall" "Full");
    ( "examples/materialized_views/cs-ranks",
      pin_uni_site,
      "SELECT p.PName, p.Rank FROM Professor p, ProfDept d WHERE p.PName = \
       d.PName AND d.DName = 'Computer Science'" );
    ("examples/materialized_views/all", pin_uni_site, "SELECT p.PName FROM Professor p");
    ( "examples/catalog_shopping/brand",
      pin_catalog_site,
      "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND \
       p.Price < 50" );
    ( "examples/catalog_shopping/category",
      pin_catalog_site,
      "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND \
       p.Price >= 400" );
    ( "examples/catalog_shopping/price",
      pin_catalog_site,
      "SELECT p.PName FROM Product p WHERE p.Price > 495" );
  ]

(* One pin block: the case's name and query, then the outcome. Plans
   print on one line (line breaks escaped). *)
let pin_block (name, site, sql) =
  let schema, registry, stats = pin_parts site in
  let o = Planner.plan_sql schema stats registry sql in
  let one_line s = String.concat "\\n" (String.split_on_char '\n' s) in
  String.concat "\n"
    [
      "query " ^ name;
      "sql " ^ sql;
      "best " ^ one_line (Nalg.to_string o.Planner.best.Planner.expr);
      "costs "
      ^ String.concat " "
          (List.map
             (fun (p : Planner.plan) -> Printf.sprintf "%.17g" p.Planner.cost)
             o.Planner.candidates);
      Printf.sprintf "explored %d merged %d" o.Planner.explored o.Planner.merged;
      "diagnostics "
      ^ String.concat ","
          (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) o.Planner.diagnostics);
    ]

(* The pinned blocks, keyed by case name. *)
let pinned =
  lazy
    (In_channel.with_open_text "planner_pins.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.fold_left
         (fun acc line ->
           match acc with
           | _ when String.length line > 6 && String.sub line 0 6 = "query " ->
             (String.sub line 6 (String.length line - 6), [ line ]) :: acc
           | (name, lines) :: rest when line <> "" -> (name, line :: lines) :: rest
           | _ -> acc)
         []
    |> List.rev_map (fun (name, lines) -> (name, String.concat "\n" (List.rev lines))))

let test_plan_pins () =
  let pinned = Lazy.force pinned in
  check
    Alcotest.(list string_t)
    "pinned cases" (List.map fst pinned)
    (List.map (fun (name, _, _) -> name) pin_cases);
  List.iter
    (fun ((name, _, _) as case) ->
      check string_t name (List.assoc name pinned) (pin_block case))
    pin_cases

(* Lowering is total: every candidate the planner returns for a pinned
   query lowers to a physical plan without raising, and so does every
   candidate for the server workload templates of the two sites the
   pins do not cover (bibliography, and the form-only site, whose
   plans unnest the lists of call-fetched pages). *)
let test_candidates_lower () =
  let lowers name schema stats (o : Planner.outcome) =
    List.iter
      (fun (p : Planner.plan) ->
        match Cost.lower schema stats p.Planner.expr with
        | _ -> ()
        | exception e ->
          Alcotest.failf "%s: %a raised %s" name Nalg.pp p.Planner.expr
            (Printexc.to_string e))
      o.Planner.candidates
  in
  List.iter
    (fun (name, site, sql) ->
      let schema, registry, stats = pin_parts site in
      lowers name schema stats (Planner.plan_sql schema stats registry sql))
    pin_cases;
  let bib_schema, bib_registry, bib_stats =
    pin_parts (lazy (Sitegen.Sites.load Bibliography))
  in
  List.iter
    (fun sql ->
      lowers sql bib_schema bib_stats
        (Planner.plan_sql bib_schema bib_stats bib_registry sql))
    Server.Workload.bibliography_templates;
  let fs = Sitegen.Sites.of_formsite (Sitegen.Formsite.build ()) in
  let fs_stats = Sitegen.Sites.stats fs in
  List.iter
    (fun sql ->
      lowers sql fs.schema fs_stats
        (Planner.plan_sql ?bindings:(Sitegen.Sites.bindings fs) fs.schema fs_stats
           fs.registry sql))
    Server.Workload.formsite_templates

let suite =
  ( "planner",
    [
      Alcotest.test_case "stats cardinalities" `Quick test_stats_cardinalities;
      Alcotest.test_case "stats fanout/distinct" `Quick test_stats_fanout_distinct;
      Alcotest.test_case "stats repetition" `Quick test_stats_repetition;
      Alcotest.test_case "stats page bytes" `Quick test_stats_page_bytes;
      Alcotest.test_case "cost entry" `Quick test_cost_entry;
      Alcotest.test_case "cost navigation" `Quick test_cost_navigation;
      Alcotest.test_case "cost selective navigation" `Quick test_cost_selection_cuts_navigation;
      Alcotest.test_case "cost example 7.2 ballpark" `Quick test_cost_example_72_shape;
      Alcotest.test_case "cardinality estimates" `Quick test_cardinality_estimates;
      Alcotest.test_case "sql lexer" `Quick test_sql_lexer;
      Alcotest.test_case "sql parse basic" `Quick test_sql_parse_basic;
      Alcotest.test_case "sql star/unqualified" `Quick test_sql_star_and_unqualified;
      Alcotest.test_case "sql errors" `Quick test_sql_errors;
      Alcotest.test_case "sql to algebra" `Quick test_sql_to_algebra_shape;
      Alcotest.test_case "expand cardinality" `Quick test_expand_cardinality;
      Alcotest.test_case "expand renames attrs" `Quick test_expand_renames_attrs;
      Alcotest.test_case "expand self-join aliases" `Quick test_expand_self_join_aliases;
      Alcotest.test_case "planner simple query" `Quick test_planner_simple_query;
      Alcotest.test_case "planner example 7.1" `Quick test_planner_example_71;
      Alcotest.test_case "planner example 7.2" `Quick test_planner_example_72;
      Alcotest.test_case "planner cost vs measured" `Quick test_planner_cost_orders_match_measured;
      Alcotest.test_case "planner rejects unknown" `Quick test_planner_rejects_unknown;
      Alcotest.test_case "planner figure 2 query" `Quick test_planner_figure2_query;
      Alcotest.test_case "plan pins unchanged" `Quick test_plan_pins;
      Alcotest.test_case "every candidate lowers" `Quick test_candidates_lower;
    ] )
