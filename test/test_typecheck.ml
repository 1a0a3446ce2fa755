(* The static analyzer: one unit test per diagnostic code (deliberately
   broken expressions, schemas, queries and registries), the soundness
   judgment, and the master property — every candidate plan the planner
   enumerates, on all three generated sites, passes the typechecker
   with zero errors and zero soundness violations. *)

open Webviews

let { Sitegen.Sites.schema = uni_schema; registry = uni_view; _ } = Sitegen.Sites.load University
let { Sitegen.Sites.schema = cat_schema; registry = cat_view; _ } = Sitegen.Sites.load Catalog
let { Sitegen.Sites.schema = bib_schema; registry = bib_view; _ } = Sitegen.Sites.load Bibliography

let codes ds =
  List.sort_uniq String.compare
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)

let has_code c ds = List.mem c (codes ds)

let check_code name c ds =
  Alcotest.(check bool)
    (Fmt.str "%s reports %s (got %a)" name c Fmt.(Dump.list string) (codes ds))
    true (has_code c ds)

let check_no_errors name ds =
  Alcotest.(check (list string))
    (name ^ " has no errors") []
    (List.map Diagnostic.to_string (Diagnostic.errors ds))

(* The canonical well-typed navigation: all professor pages. *)
let profs_nav =
  Nalg.follow
    (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
    "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"

(* --- typed NALG inference (E01xx) ---------------------------------- *)

let test_infer_env () =
  let env, ds = Typecheck.infer uni_schema profs_nav in
  check_no_errors "profs_nav" ds;
  Alcotest.(check bool)
    "URL is a link to its own scheme" true
    (match List.assoc_opt "ProfPage.URL" env with
    | Some (Adm.Webtype.Link "ProfPage") -> true
    | _ -> false);
  Alcotest.(check bool)
    "Rank is text" true
    (List.assoc_opt "ProfPage.Rank" env = Some Adm.Webtype.Text)

let test_e0101_unknown_scheme () =
  check_code "entry" "E0101" (Typecheck.check uni_schema (Nalg.entry "Nowhere"));
  check_code "follow" "E0101"
    (Typecheck.check uni_schema
       (Nalg.follow profs_nav "ProfPage.ToDept" ~scheme:"Nowhere"))

let test_e0102_not_entry () =
  check_code "entry ProfPage" "E0102"
    (Typecheck.check uni_schema (Nalg.entry "ProfPage"))

let test_e0103_unavailable_attr () =
  let sel =
    Nalg.select [ Pred.eq_const "ProfPage.Nope" (Adm.Value.text "x") ] profs_nav
  in
  check_code "selection" "E0103" (Typecheck.check uni_schema sel);
  check_code "projection" "E0103"
    (Typecheck.check uni_schema (Nalg.project [ "ProfPage.Nope" ] profs_nav));
  check_code "join key" "E0103"
    (Typecheck.check uni_schema
       (Nalg.join
          [ ("ProfPage.Nope", "DeptPage.DName") ]
          profs_nav (Nalg.entry "DeptListPage")))

let test_e0104_unnest_non_list () =
  check_code "unnest of text" "E0104"
    (Typecheck.check uni_schema (Nalg.unnest profs_nav "ProfPage.Rank"))

let test_e0105_ambiguous_attr () =
  check_code "join of same alias" "E0105"
    (Typecheck.check uni_schema
       (Nalg.join [] (Nalg.entry "ProfListPage") (Nalg.entry "ProfListPage")))

let test_e0106_type_mismatch () =
  let sel =
    Nalg.select [ Pred.eq_const "ProfPage.Rank" (Adm.Value.Int 3) ] profs_nav
  in
  check_code "text vs int" "E0106" (Typecheck.check uni_schema sel);
  let multi =
    Nalg.select
      [ Pred.eq_const "ProfListPage.ProfList" (Adm.Value.text "x") ]
      (Nalg.entry "ProfListPage")
  in
  check_code "multi-valued operand" "E0106" (Typecheck.check uni_schema multi)

let test_e0107_external_remains () =
  check_code "external" "E0107"
    (Typecheck.check uni_schema (Nalg.external_ "Professor"))

let test_e0108_follow_non_link () =
  check_code "follow of text" "E0108"
    (Typecheck.check uni_schema
       (Nalg.follow profs_nav "ProfPage.Rank" ~scheme:"DeptPage"))

let test_e0109_follow_target_mismatch () =
  check_code "follow to wrong scheme" "E0109"
    (Typecheck.check uni_schema
       (Nalg.follow profs_nav "ProfPage.ToDept" ~scheme:"CoursePage"))

let test_w0110_duplicate_projection () =
  let ds =
    Typecheck.check uni_schema
      (Nalg.project [ "ProfPage.PName"; "ProfPage.PName" ] profs_nav)
  in
  check_code "duplicate projection" "W0110" ds;
  check_no_errors "duplicate projection is only a warning" ds

let test_diagnostic_path_locates () =
  (* The broken unnest sits under a projection: its diagnostic's path
     must walk back to the unnest operator. *)
  let bad = Nalg.unnest profs_nav "ProfPage.Rank" in
  let e = Nalg.project [ "ProfPage.PName" ] bad in
  let ds = Typecheck.check uni_schema e in
  let d =
    List.find (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code "E0104") ds
  in
  Alcotest.(check (list string)) "path" [ "project" ] d.Diagnostic.path;
  match Explain.locate e d.Diagnostic.path with
  | Some node ->
    Alcotest.(check string) "locates the unnest" "◦ ProfPage.Rank"
      (Explain.node_label node)
  | None -> Alcotest.fail "path did not resolve"

(* --- schema lint (E02xx) ------------------------------------------- *)

let text = Adm.Webtype.Text
let link s = Adm.Webtype.Link s
let attr = Adm.Page_scheme.attr
let path = Adm.Constraints.path

let fixture ?(links = []) ?(incls = []) schemes =
  Adm.Schema.make ~name:"Fixture" ~schemes ~link_constraints:links
    ~inclusions:incls

let home ?(extra = []) () =
  Adm.Page_scheme.make ~entry_url:"/index.html" "Home"
    ([ attr "Title" text; attr "ToLeaf" (link "Leaf") ] @ extra)

let leaf = Adm.Page_scheme.make "Leaf" [ attr "Name" text ]

let lc ?(link = path "Home" [ "ToLeaf" ]) ?(src = path "Home" [ "Title" ])
    ?(tgt_scheme = "Leaf") ?(tgt_attr = "Name") () =
  Adm.Constraints.link_constraint ~link ~source_attr:src
    ~target_scheme:tgt_scheme ~target_attr:tgt_attr

let test_schema_lint_codes () =
  let lint = Typecheck.lint_schema in
  check_code "unknown scheme in path" "E0201"
    (lint
       (fixture [ home (); leaf ]
          ~links:[ lc ~link:(path "Ghost" [ "L" ]) ~src:(path "Ghost" [ "A" ]) () ]));
  check_code "unresolved path" "E0202"
    (lint (fixture [ home (); leaf ] ~links:[ lc ~link:(path "Home" [ "Nope" ]) () ]));
  check_code "constraint on non-link" "E0203"
    (lint (fixture [ home (); leaf ] ~links:[ lc ~link:(path "Home" [ "Title" ]) () ]));
  check_code "target scheme mismatch" "E0204"
    (lint (fixture [ home (); leaf ] ~links:[ lc ~tgt_scheme:"Home" ~tgt_attr:"Title" () ]));
  let with_list = home ~extra:[ attr "Items" (Adm.Webtype.List [ ("X", text) ]) ] () in
  check_code "multi-valued source" "E0205"
    (lint (fixture [ with_list; leaf ] ~links:[ lc ~src:(path "Home" [ "Items" ]) () ]));
  check_code "unknown target attribute" "E0206"
    (lint (fixture [ home (); leaf ] ~links:[ lc ~tgt_attr:"Nope" () ]));
  let with_int = home ~extra:[ attr "Num" Adm.Webtype.Int ] () in
  check_code "incompatible constraint types" "E0214"
    (lint (fixture [ with_int; leaf ] ~links:[ lc ~src:(path "Home" [ "Num" ]) () ]));
  check_code "inclusion over non-links" "E0207"
    (lint
       (fixture [ home (); leaf ]
          ~incls:
            [
              Adm.Constraints.inclusion ~sub:(path "Home" [ "Title" ])
                ~sup:(path "Home" [ "ToLeaf" ]);
            ]));
  let two_links = home ~extra:[ attr "ToHome" (link "Home") ] () in
  check_code "inclusion targets differ" "E0208"
    (lint
       (fixture [ two_links; leaf ]
          ~incls:
            [
              Adm.Constraints.inclusion ~sub:(path "Home" [ "ToLeaf" ])
                ~sup:(path "Home" [ "ToHome" ]);
            ]));
  check_code "dangling link target" "E0209"
    (lint (fixture [ home ~extra:[ attr "ToGhost" (link "Ghost") ] (); leaf ]));
  check_code "no entry point" "E0211" (lint (fixture [ leaf ]));
  check_code "duplicate scheme name" "E0212" (lint (fixture [ home (); leaf; leaf ]));
  check_code "duplicate attribute" "E0213"
    (lint
       (fixture
          [
            home ~extra:[ attr "Items" (Adm.Webtype.List [ ("X", text); ("X", text) ]) ] ();
            leaf;
          ]))

let test_w0210_unreachable () =
  let island = Adm.Page_scheme.make ~entry_url:"/i.html" "Home" [ attr "Title" text ] in
  let ds = Typecheck.lint_schema (fixture [ island; leaf ]) in
  check_code "unreachable scheme" "W0210" ds;
  check_no_errors "unreachable is only a warning" ds

let test_schema_lint_clean_sites () =
  check_no_errors "university schema" (Typecheck.lint_schema uni_schema);
  check_no_errors "catalog schema" (Typecheck.lint_schema cat_schema);
  check_no_errors "bibliography schema" (Typecheck.lint_schema bib_schema)

(* --- query lint (E03xx) -------------------------------------------- *)

let test_query_lint_codes () =
  let uni sql = Typecheck.lint_sql uni_schema uni_view sql in
  check_code "unknown relation" "E0301" (uni "SELECT n.X FROM Nope n");
  check_code "unknown alias" "E0303"
    (Typecheck.lint_query uni_schema uni_view
       {
         Conjunctive.select = [ "q.PName" ];
         from = [ Conjunctive.source ~alias:"p" "Professor" ];
         where = [];
       });
  check_code "unknown attribute" "E0304" (uni "SELECT p.Nope FROM Professor p");
  check_code "type mismatch" "E0305"
    (Typecheck.lint_sql cat_schema cat_view
       "SELECT p.PName FROM Product p WHERE p.Price = 'expensive'");
  check_code "parse error" "E0308" (uni "SELECT FROM WHERE")

let test_e0302_duplicate_alias () =
  let q =
    {
      Conjunctive.select = [ "p.PName" ];
      from = [ Conjunctive.source ~alias:"p" "Professor"; Conjunctive.source ~alias:"p" "Dept" ];
      where = [];
    }
  in
  check_code "duplicate alias" "E0302" (Typecheck.lint_query uni_schema uni_view q)

let test_w0306_cartesian () =
  let ds =
    Typecheck.lint_sql uni_schema uni_view
      "SELECT p.PName, d.DName FROM Professor p, Dept d"
  in
  check_code "cartesian product" "W0306" ds;
  check_no_errors "cartesian is only a warning" ds

let test_w0307_always_false () =
  (* contradictory constant equalities, via SQL *)
  check_code "contradictory equalities" "W0307"
    (Typecheck.lint_sql uni_schema uni_view
       "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full' AND p.Rank = 'Associate'");
  (* constant-constant and self-comparison atoms, built directly *)
  let q where =
    {
      Conjunctive.select = [ "p.PName" ];
      from = [ Conjunctive.source ~alias:"p" "Professor" ];
      where;
    }
  in
  check_code "false constant comparison" "W0307"
    (Typecheck.lint_query uni_schema uni_view
       (q [ Pred.atom (Pred.Const (Adm.Value.text "a")) Pred.Eq (Pred.Const (Adm.Value.text "b")) ]));
  check_code "self-inequality" "W0307"
    (Typecheck.lint_query uni_schema uni_view
       (q [ Pred.atom (Pred.Attr "p.PName") Pred.Neq (Pred.Attr "p.PName") ]))

(* --- registry lint (E05xx) ----------------------------------------- *)

let test_registry_lint_codes () =
  let bad_nav =
    View.relation ~name:"Bad" ~attrs:[ "R" ]
      ~navigations:
        [ View.navigation ~bindings:[ ("R", "ProfPage.Rank") ] (Nalg.entry "ProfPage") ]
      ()
  in
  check_code "ill-typed navigation" "E0501"
    (Typecheck.lint_registry uni_schema [ bad_nav ]);
  let bad_binding =
    View.relation ~name:"Bad" ~attrs:[ "R" ]
      ~navigations:[ View.navigation ~bindings:[ ("R", "ProfPage.Nope") ] profs_nav ]
      ()
  in
  check_code "binding to unproduced attribute" "E0502"
    (Typecheck.lint_registry uni_schema [ bad_binding ]);
  let conflicting =
    View.relation ~name:"Mixed" ~attrs:[ "X" ]
      ~navigations:
        [
          View.navigation
            ~bindings:[ ("X", "ProfListPage.URL") ]
            (Nalg.entry "ProfListPage");
          View.navigation ~bindings:[ ("X", "ProfPage.Rank") ] profs_nav;
        ]
      ()
  in
  check_code "conflicting types across navigations" "E0503"
    (Typecheck.lint_registry uni_schema [ conflicting ])

let test_registry_lint_clean_sites () =
  check_no_errors "university view" (Typecheck.lint_registry uni_schema uni_view);
  check_no_errors "catalog view" (Typecheck.lint_registry cat_schema cat_view);
  check_no_errors "bibliography auto view" (Typecheck.lint_registry bib_schema bib_view)

(* --- rewrite soundness (E04xx) ------------------------------------- *)

let test_soundness () =
  Alcotest.(check (list string))
    "identical plans are sound" []
    (List.map Diagnostic.to_string
       (Typecheck.soundness uni_schema ~parent:profs_nav ~child:profs_nav));
  check_code "ill-typed child" "E0402"
    (Typecheck.soundness uni_schema ~parent:profs_nav
       ~child:(Nalg.unnest profs_nav "ProfPage.Rank"));
  check_code "output type changed" "E0403"
    (Typecheck.soundness uni_schema
       ~parent:(Nalg.project [ "ProfPage.PName" ] profs_nav)
       ~child:(Nalg.project [ "ProfPage.PName"; "ProfPage.Email" ] profs_nav));
  Alcotest.(check (list string))
    "ill-typed parent yields no verdict" []
    (List.map Diagnostic.to_string
       (Typecheck.soundness uni_schema ~parent:(Nalg.entry "Nowhere")
          ~child:profs_nav))

(* --- structural equality and memoized output_attrs ----------------- *)

let test_structural_equal () =
  let sel e = Nalg.select [ Pred.eq_const "ProfPage.Rank" (Adm.Value.text "Full") ] e in
  Alcotest.(check bool) "equal to itself" true (Nalg.equal (sel profs_nav) (sel profs_nav));
  Alcotest.(check bool) "different predicate" false
    (Nalg.equal (sel profs_nav)
       (Nalg.select [ Pred.eq_const "ProfPage.Rank" (Adm.Value.text "Assoc") ] profs_nav));
  Alcotest.(check bool) "different shape" false
    (Nalg.equal profs_nav (Nalg.entry "ProfListPage"))

let test_output_attrs_memo () =
  let exprs =
    [
      profs_nav;
      Nalg.project [ "ProfPage.PName" ] profs_nav;
      Nalg.join [ ("ProfPage.DName", "DeptPage.DName") ] profs_nav
        (Nalg.follow
           (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList")
           "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage");
    ]
  in
  let memo = Memo.create uni_schema (Stats.create ()) in
  List.iter
    (fun e ->
      Alcotest.(check (list string))
        "memoized output_attrs agrees"
        (List.map fst (fst (Typecheck.infer uni_schema e)))
        (Memo.attrs memo (Memo.intern memo e)))
    exprs

(* --- the planner property: every candidate typechecks -------------- *)

let empty_stats = Stats.create ()

let assert_outcome_clean site sql (o : Planner.outcome) =
  check_no_errors (Fmt.str "%s: %s planner diagnostics" site sql) o.Planner.diagnostics;
  List.iter
    (fun (p : Planner.plan) ->
      let _, ds = Typecheck.infer (match site with
        | "catalog" -> cat_schema
        | "bibliography" -> bib_schema
        | _ -> uni_schema)
        p.Planner.expr
      in
      check_no_errors (Fmt.str "%s: candidate of %s" site sql) ds)
    o.Planner.candidates

let uni_queries =
  [
    "SELECT d.DName, d.Address FROM Dept d";
    "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'";
    "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci WHERE c.CName = ci.CName";
    "SELECT p.PName, p.Email FROM Professor p, ProfDept pd WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'";
    "SELECT d.DName, p.PName FROM Dept d, ProfDept pd, Professor p WHERE d.DName = pd.DName AND pd.PName = p.PName";
  ]

let cat_queries =
  [
    "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'";
    "SELECT c.CatName FROM Category c";
    "SELECT p.PName FROM Product p, Brand b WHERE p.Brand = b.BrandName";
  ]

let test_university_candidates_typecheck () =
  List.iter
    (fun sql ->
      assert_outcome_clean "university" sql
        (Planner.plan_sql uni_schema empty_stats uni_view sql))
    uni_queries

let test_catalog_candidates_typecheck () =
  List.iter
    (fun sql ->
      assert_outcome_clean "catalog" sql
        (Planner.plan_sql cat_schema empty_stats cat_view sql))
    cat_queries

let test_bibliography_candidates_typecheck () =
  (* Queries derived from the auto-registry itself: one per external
     relation, selecting its first attribute. *)
  List.iter
    (fun (rel : View.relation) ->
      match rel.View.rel_attrs with
      | [] -> ()
      | a :: _ ->
        let sql = Fmt.str "SELECT x.%s FROM %s x" a rel.View.rel_name in
        assert_outcome_clean "bibliography" sql
          (Planner.plan_sql bib_schema empty_stats bib_view sql))
    bib_view

(* Randomized: connected conjunctive queries over the university view,
   several fixed seeds, every candidate of every plan typechecks. *)
let joinable =
  [
    (("Professor", "PName"), ("ProfDept", "PName"));
    (("Professor", "PName"), ("CourseInstructor", "PName"));
    (("Course", "CName"), ("CourseInstructor", "CName"));
    (("ProfDept", "DName"), ("Dept", "DName"));
  ]

let first_attr = function
  | "Professor" -> "PName"
  | "Course" -> "CName"
  | "CourseInstructor" -> "CName"
  | "ProfDept" -> "DName"
  | _ -> "DName"

let random_query st =
  let pick xs = List.nth xs (Random.State.int st (List.length xs)) in
  let seed_rel = pick [ "Professor"; "Course"; "Dept"; "ProfDept" ] in
  let rec grow rels joins fuel =
    if fuel = 0 then (rels, joins)
    else
      let candidates =
        List.filter_map
          (fun ((r1, a1), (r2, a2)) ->
            if List.mem r1 rels && not (List.mem r2 rels) then
              Some (r2, (r1, a1, r2, a2))
            else if List.mem r2 rels && not (List.mem r1 rels) then
              Some (r1, (r1, a1, r2, a2))
            else None)
          joinable
      in
      match candidates with
      | [] -> (rels, joins)
      | _ ->
        let rel, edge = pick candidates in
        grow (rel :: rels) (edge :: joins) (fuel - 1)
  in
  let rels, joins = grow [ seed_rel ] [] (Random.State.int st 3) in
  let select = List.map (fun r -> r ^ "." ^ first_attr r) rels in
  let where =
    List.map (fun (r1, a1, r2, a2) -> Pred.eq_attrs (r1 ^ "." ^ a1) (r2 ^ "." ^ a2)) joins
  in
  {
    Conjunctive.select;
    from = List.map (fun r -> Conjunctive.source r) rels;
    where;
  }

let test_random_candidates_typecheck () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      for _ = 1 to 8 do
        let q = random_query st in
        let o = Planner.enumerate uni_schema empty_stats uni_view q in
        assert_outcome_clean "university" (Fmt.str "%a" Conjunctive.pp q) o
      done)
    [ 7; 21; 42 ]

(* A reordering step is judged in the planner's join groups: a
   commutation that swaps a join's operands but not its keys adds an
   ill-typed member to the join's own group, and only the judgment of
   such a member can report it, since the step reaches no other
   group. *)
let test_reordering_judged () =
  let schema, registry, stats = Pins.parts Pins.uni_site in
  let memo = Memo.create schema stats in
  let bad_commute _ w i =
    match Memo.sub w i with
    | Nalg.Join (keys, e1, e2) -> [ (Memo.rebuild w i (Nalg.Join (keys, e2, e1)), Fun.id) ]
    | _ -> []
  in
  let found = ref [] in
  let judge ~by_name ~parent ~child =
    found :=
      !found
      @ (if by_name then Typecheck.judge_reordering else Typecheck.judge)
          ~parent:(Memo.infer memo parent) ~child:(Memo.infer memo child)
  in
  ignore
    (Planner.join_groups ~judge memo [ bad_commute ]
       (Pins.seeds memo registry (Pins.dept_members "Computer Science")));
  check_code "bad commutation" "E0402" !found

let suite =
  ( "typecheck",
    [
      Alcotest.test_case "infer: env types and order" `Quick test_infer_env;
      Alcotest.test_case "E0101 unknown page-scheme" `Quick test_e0101_unknown_scheme;
      Alcotest.test_case "E0102 not an entry point" `Quick test_e0102_not_entry;
      Alcotest.test_case "E0103 unavailable attribute" `Quick test_e0103_unavailable_attr;
      Alcotest.test_case "E0104 unnest of non-list" `Quick test_e0104_unnest_non_list;
      Alcotest.test_case "E0105 ambiguous attribute" `Quick test_e0105_ambiguous_attr;
      Alcotest.test_case "E0106 predicate type mismatch" `Quick test_e0106_type_mismatch;
      Alcotest.test_case "E0107 external remains" `Quick test_e0107_external_remains;
      Alcotest.test_case "E0108 follow of non-link" `Quick test_e0108_follow_non_link;
      Alcotest.test_case "E0109 follow target mismatch" `Quick
        test_e0109_follow_target_mismatch;
      Alcotest.test_case "W0110 duplicate projection" `Quick
        test_w0110_duplicate_projection;
      Alcotest.test_case "diagnostic paths locate operators" `Quick
        test_diagnostic_path_locates;
      Alcotest.test_case "schema lint: one broken schema per rule" `Quick
        test_schema_lint_codes;
      Alcotest.test_case "W0210 unreachable page-scheme" `Quick test_w0210_unreachable;
      Alcotest.test_case "schema lint: generated sites are clean" `Quick
        test_schema_lint_clean_sites;
      Alcotest.test_case "query lint codes" `Quick test_query_lint_codes;
      Alcotest.test_case "E0302 duplicate FROM alias" `Quick test_e0302_duplicate_alias;
      Alcotest.test_case "W0306 Cartesian product" `Quick test_w0306_cartesian;
      Alcotest.test_case "W0307 always-false conditions" `Quick test_w0307_always_false;
      Alcotest.test_case "registry lint codes" `Quick test_registry_lint_codes;
      Alcotest.test_case "registry lint: site views are clean" `Quick
        test_registry_lint_clean_sites;
      Alcotest.test_case "soundness judgment" `Quick test_soundness;
      Alcotest.test_case "reordering steps are judged" `Quick test_reordering_judged;
      Alcotest.test_case "structural equality" `Quick test_structural_equal;
      Alcotest.test_case "output_attrs_memo agrees" `Quick test_output_attrs_memo;
      Alcotest.test_case "university: candidates typecheck" `Quick
        test_university_candidates_typecheck;
      Alcotest.test_case "catalog: candidates typecheck" `Quick
        test_catalog_candidates_typecheck;
      Alcotest.test_case "bibliography: candidates typecheck" `Quick
        test_bibliography_candidates_typecheck;
      Alcotest.test_case "random queries: candidates typecheck (seeds 7/21/42)"
        `Quick test_random_candidates_typecheck;
    ] )
