(* Tests for the navigational algebra AST, predicates and evaluation. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* Shared fixture: one university site, its generator's records and a
   crawled instance. *)
let uni_records = Sitegen.University.build ()
let uni = Sitegen.Sites.of_university uni_records
let uni_schema = uni.schema
let instance = lazy (Sitegen.Sites.crawl uni)

let eval_instance expr =
  Eval.eval uni_schema (Eval.instance_source (Lazy.force instance)) expr

(* ProfListPage ◦ ProfList → ProfPage — the paper's Expression 1 *)
let profs_nav =
  Nalg.follow
    (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
    "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"

(* ------------------------------------------------------------------ *)
(* Pred                                                                *)
(* ------------------------------------------------------------------ *)

let test_pred_eval () =
  let t = [ ("A", Adm.Value.Int 3); ("B", Adm.Value.text "x") ] in
  check bool_t "eq const" true (Pred.eval [ Pred.eq_const "A" (Adm.Value.Int 3) ] t);
  check bool_t "eq const false" false (Pred.eval [ Pred.eq_const "A" (Adm.Value.Int 4) ] t);
  check bool_t "conjunction" false
    (Pred.eval [ Pred.eq_const "A" (Adm.Value.Int 3); Pred.eq_const "B" (Adm.Value.text "y") ] t);
  check bool_t "lt" true
    (Pred.eval [ Pred.atom (Pred.Attr "A") Pred.Lt (Pred.Const (Adm.Value.Int 5)) ] t);
  check bool_t "empty pred is true" true (Pred.eval [] t)

let test_pred_nulls () =
  let t = [ ("A", Adm.Value.Null) ] in
  check bool_t "null = x is false" false (Pred.eval [ Pred.eq_const "A" (Adm.Value.Int 0) ] t);
  check bool_t "null <> x is false too" false
    (Pred.eval [ Pred.atom (Pred.Attr "A") Pred.Neq (Pred.Const (Adm.Value.Int 0)) ] t);
  check bool_t "missing attr behaves as null" false
    (Pred.eval [ Pred.eq_const "Zed" (Adm.Value.Int 0) ] t)

let test_pred_subst () =
  let p = [ Pred.eq_attrs "A" "B" ] in
  let p' = Pred.subst_attr ~from:"A" ~into:"X" p in
  check string_t "substituted" "X = B" (Pred.to_string p')

(* ------------------------------------------------------------------ *)
(* AST basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_alias_env () =
  let env = Nalg.alias_env profs_nav in
  check bool_t "ProfListPage in env" true (List.mem_assoc "ProfListPage" env);
  check bool_t "ProfPage in env" true (List.mem_assoc "ProfPage" env);
  check (Alcotest.option string_t) "scheme lookup" (Some "ProfPage")
    (Nalg.scheme_of_alias profs_nav "ProfPage")

let test_output_attrs () =
  let attrs = Nalg.output_attrs uni_schema profs_nav in
  check bool_t "prof attrs present" true (List.mem "ProfPage.Rank" attrs);
  check bool_t "unnested attrs present" true
    (List.mem "ProfListPage.ProfList.PName" attrs);
  check bool_t "url present" true (List.mem "ProfPage.URL" attrs)

let test_split_attr () =
  match Nalg.split_attr [ "ProfPage"; "X" ] "ProfPage.CourseList.CName" with
  | Some (alias, steps) ->
    check string_t "alias" "ProfPage" alias;
    check Alcotest.(list string_t) "steps" [ "CourseList"; "CName" ] steps
  | None -> Alcotest.fail "split failed"

let test_constraint_path () =
  match Nalg.constraint_path_of_attr profs_nav "ProfPage.Rank" with
  | Some (p, alias) ->
    check string_t "scheme" "ProfPage" p.Adm.Constraints.scheme;
    check string_t "alias" "ProfPage" alias
  | None -> Alcotest.fail "path resolution failed"

let test_externals_computability () =
  let q = Nalg.join [] (Nalg.external_ "Professor") (Nalg.external_ "Course") in
  check int_t "two externals" 2 (List.length (Nalg.externals q));
  check bool_t "not computable" false (Nalg.is_computable q);
  check bool_t "navigation computable" true (Nalg.is_computable profs_nav)

let test_rename_alias () =
  let renamed = Nalg.rename_alias ~from:"ProfPage" ~into:"P2" profs_nav in
  check bool_t "alias renamed" true (List.mem "P2" (Nalg.aliases renamed));
  check bool_t "old alias gone" false (List.mem "ProfPage" (Nalg.aliases renamed));
  (* attribute references follow *)
  let attrs = Nalg.output_attrs uni_schema renamed in
  check bool_t "attrs requalified" true (List.mem "P2.Rank" attrs)

let test_uniquify () =
  let taken = [ "ProfPage"; "ProfListPage" ] in
  let e = Nalg.uniquify_aliases ~taken profs_nav in
  check bool_t "fresh aliases avoid taken" true
    (List.for_all (fun a -> not (List.mem a taken)) (Nalg.aliases e))

let test_canonical_equal () =
  check bool_t "equal to itself" true (Nalg.equal profs_nav profs_nav);
  check bool_t "differs from variant" false
    (Nalg.equal profs_nav (Nalg.select [] profs_nav))

let test_size_fold () =
  check int_t "size of nav" 3 (Nalg.size profs_nav)

let diag_codes schema e =
  List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) (Typecheck.check schema e)

let test_static_check_accepts () =
  check Alcotest.(list string_t) "valid navigation" [] (diag_codes uni_schema profs_nav)

let test_static_check_rejects () =
  let bad_entry = Nalg.entry "ProfPage" in
  check bool_t "non-entry rejected" true (diag_codes uni_schema bad_entry <> []);
  let bad_select =
    Nalg.select [ Pred.eq_const "Nope.X" (Adm.Value.Int 0) ] profs_nav
  in
  check bool_t "unknown attribute rejected" true (diag_codes uni_schema bad_select <> []);
  let bad_unnest = Nalg.unnest profs_nav "ProfPage.Rank" in
  check bool_t "unnest of atom rejected" true (diag_codes uni_schema bad_unnest <> []);
  let bad_follow =
    Nalg.follow profs_nav "ProfPage.ToDept" ~scheme:"CoursePage"
  in
  check bool_t "wrong follow target rejected" true (diag_codes uni_schema bad_follow <> []);
  let external_left = Nalg.external_ "Professor" in
  check bool_t "external rejected" true (diag_codes uni_schema external_left <> [])

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let test_eval_entry () =
  let r = eval_instance (Nalg.entry "ProfListPage") in
  check int_t "single page" 1 (Adm.Relation.cardinality r);
  check bool_t "qualified attrs" true (Adm.Relation.has_attr r "ProfListPage.URL")

let test_eval_entry_requires_entry_point () =
  Alcotest.check_raises "non-entry scan rejected"
    (Eval.Not_computable "page-scheme ProfPage is not an entry point") (fun () ->
      ignore (eval_instance (Nalg.entry "ProfPage")))

let test_eval_external_rejected () =
  Alcotest.check_raises "external rejected"
    (Eval.Not_computable
       "external relation Professor must be replaced by a default navigation (rule 1)")
    (fun () -> ignore (eval_instance (Nalg.external_ "Professor")))

let test_eval_unnest_follow () =
  let r = eval_instance profs_nav in
  check int_t "all professors" 20 (Adm.Relation.cardinality r);
  check bool_t "rank available" true (Adm.Relation.has_attr r "ProfPage.Rank");
  (* the link value equals the page URL (the follow's implicit join) *)
  check bool_t "link = URL" true
    (List.for_all
       (fun t ->
         Adm.Value.equal
           (Adm.Value.find_exn t "ProfListPage.ProfList.ToProf")
           (Adm.Value.find_exn t "ProfPage.URL"))
       (Adm.Relation.rows r))

let test_eval_select_project () =
  let e =
    Nalg.project [ "ProfPage.PName" ]
      (Nalg.select [ Pred.eq_const "ProfPage.Rank" (Adm.Value.text "Full") ] profs_nav)
  in
  let r = eval_instance e in
  let full_profs =
    List.filter
      (fun (p : Sitegen.University.prof) -> String.equal p.Sitegen.University.rank "Full")
      (Sitegen.University.profs uni_records)
  in
  check int_t "full professors" (List.length full_profs) (Adm.Relation.cardinality r)

let test_eval_join () =
  (* professors joined with their department pages through DName *)
  let dept_nav =
    Nalg.follow
      (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList")
      "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage"
  in
  let e = Nalg.join [ ("ProfPage.DName", "DeptPage.DName") ] profs_nav dept_nav in
  let r = eval_instance e in
  check int_t "every prof has one dept" 20 (Adm.Relation.cardinality r);
  check bool_t "address joined in" true (Adm.Relation.has_attr r "DeptPage.Address")

let test_eval_deep_nesting () =
  (* bibliography: two-level unnest of papers then authors *)
  let bib = Sitegen.Sites.load Bibliography in
  let r =
    Eval.eval bib.schema
      (Eval.instance_source (Sitegen.Sites.crawl bib))
      (Sitegen.Bibliography.path3_direct_link ())
  in
  check bool_t "author names exposed" true
    (Adm.Relation.has_attr r "EditionPage.PaperList.AuthorList.AName");
  check bool_t "non-empty" true (Adm.Relation.cardinality r > 0)

let test_eval_live_cache () =
  let http = Websim.Http.connect uni.site in
  (* navigating professors twice within one query must fetch each page
     once (distinct network accesses, as the cost model counts) *)
  let e =
    Nalg.join
      [ ("ProfPage.PName", "P2.PName") ]
      profs_nav
      (Nalg.follow
         (Nalg.unnest (Nalg.entry ~alias:"PL2" "ProfListPage") "PL2.ProfList")
         "PL2.ProfList.ToProf" ~scheme:"ProfPage" ~alias:"P2")
  in
  Websim.Http.reset_stats http;
  let source = Eval.live_source uni_schema http in
  let r = Eval.eval uni_schema source e in
  check int_t "self join" 20 (Adm.Relation.cardinality r);
  check int_t "21 distinct pages fetched" 21 (Websim.Http.stats http).Websim.Http.gets

let test_eval_nocache () =
  let http = Websim.Http.connect uni.site in
  Websim.Http.reset_stats http;
  let source = Eval.live_source ~cache:false uni_schema http in
  let _ = Eval.eval uni_schema source profs_nav in
  check int_t "21 fetches without cache" 21 (Websim.Http.stats http).Websim.Http.gets

let suite =
  ( "nalg",
    [
      Alcotest.test_case "pred eval" `Quick test_pred_eval;
      Alcotest.test_case "pred nulls" `Quick test_pred_nulls;
      Alcotest.test_case "pred subst" `Quick test_pred_subst;
      Alcotest.test_case "alias env" `Quick test_alias_env;
      Alcotest.test_case "output attrs" `Quick test_output_attrs;
      Alcotest.test_case "split attr" `Quick test_split_attr;
      Alcotest.test_case "constraint path" `Quick test_constraint_path;
      Alcotest.test_case "externals/computability" `Quick test_externals_computability;
      Alcotest.test_case "rename alias" `Quick test_rename_alias;
      Alcotest.test_case "uniquify" `Quick test_uniquify;
      Alcotest.test_case "canonical equal" `Quick test_canonical_equal;
      Alcotest.test_case "size" `Quick test_size_fold;
      Alcotest.test_case "static check accepts" `Quick test_static_check_accepts;
      Alcotest.test_case "static check rejects" `Quick test_static_check_rejects;
      Alcotest.test_case "eval entry" `Quick test_eval_entry;
      Alcotest.test_case "eval entry non-entry" `Quick test_eval_entry_requires_entry_point;
      Alcotest.test_case "eval external rejected" `Quick test_eval_external_rejected;
      Alcotest.test_case "eval unnest/follow" `Quick test_eval_unnest_follow;
      Alcotest.test_case "eval select/project" `Quick test_eval_select_project;
      Alcotest.test_case "eval join" `Quick test_eval_join;
      Alcotest.test_case "eval deep nesting" `Quick test_eval_deep_nesting;
      Alcotest.test_case "eval live cache" `Quick test_eval_live_cache;
      Alcotest.test_case "eval nocache" `Quick test_eval_nocache;
    ] )
