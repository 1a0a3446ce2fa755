(* Tests for the rewriting rules (Section 6.1). Every rule is checked
   two ways: it fires on its motivating pattern, and the rewritten
   plan evaluates to the same relation as the original (semantics
   preservation on a real site instance). *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Apply a rule (or sinking, or pruning) to a plan interned in a fresh
   planning memo. *)
let on_memo rule schema e =
  let m = Memo.create schema (Stats.create ()) in
  rule m (Memo.intern m e)

let uni = Sitegen.Sites.load University
let schema = uni.schema
let instance = lazy (Sitegen.Sites.crawl uni)

let eval e = Eval.eval schema (Eval.instance_source (Lazy.force instance)) e

let same_answer ~on_attrs e1 e2 =
  let r1 = Adm.Relation.project on_attrs (eval e1) in
  let r2 = Adm.Relation.project on_attrs (eval e2) in
  Adm.Relation.equal r1 r2

(* Compare results ignoring attribute names (rewrites that merge
   occurrences legitimately rename output columns). *)
let same_values e1 e2 =
  let matrix e =
    Adm.Relation.rows (eval e)
    |> List.map (fun t -> List.map (fun (_, v) -> Adm.Value.to_string v) t)
    |> List.sort compare
  in
  matrix e1 = matrix e2

(* Building blocks. *)
let profs_nav ?(alias = "ProfPage") ?(list_alias = "ProfListPage") () =
  Nalg.follow
    (Nalg.unnest (Nalg.entry ~alias:list_alias "ProfListPage") (list_alias ^ ".ProfList"))
    (list_alias ^ ".ProfList.ToProf")
    ~scheme:"ProfPage" ~alias

let dept_nav ?(alias = "DeptPage") () =
  Nalg.follow
    (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList")
    "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage" ~alias

let sessions_nav ?(alias = "SessionPage") ?(list_alias = "SessionListPage") () =
  Nalg.follow
    (Nalg.unnest (Nalg.entry ~alias:list_alias "SessionListPage") (list_alias ^ ".SesList"))
    (list_alias ^ ".SesList.ToSes")
    ~scheme:"SessionPage" ~alias

let courses_nav ?(ses_alias = "SessionPage") ?(alias = "CoursePage") () =
  Nalg.follow
    (Nalg.unnest (sessions_nav ~alias:ses_alias ()) (ses_alias ^ ".CourseList"))
    (ses_alias ^ ".CourseList.ToCourse")
    ~scheme:"CoursePage" ~alias

(* ------------------------------------------------------------------ *)
(* Rule 2                                                              *)
(* ------------------------------------------------------------------ *)

let test_rule2_fires () =
  (* joining professor pages with the DeptListPage entry point on the
     DName link constraint is a follow... the university scheme has no
     entry-point link constraint, so exercise the negative case: *)
  let e =
    Nalg.join
      [ ("ProfPage.DName", "DeptListPage.Wrong") ]
      (profs_nav ()) (Nalg.entry "DeptListPage")
  in
  check int_t "no spurious rule 2" 0 (List.length (on_memo Rewrite.rule2 schema e))

(* ------------------------------------------------------------------ *)
(* Rule 4                                                              *)
(* ------------------------------------------------------------------ *)

let test_rule4_merges_repeated_navigation () =
  (* (ProfListPage ◦ PL → ProfPage ◦ CourseList) ⋈_{PName} (ProfListPage ◦ PL → ProfPage) *)
  let long = Nalg.unnest (profs_nav ()) "ProfPage.CourseList" in
  let short = profs_nav ~alias:"ProfPage@2" ~list_alias:"ProfListPage@2" () in
  let e =
    Nalg.join [ ("ProfPage.PName", "ProfPage@2.PName") ] long short
  in
  let rewrites = on_memo Rewrite.rule4 schema e in
  check bool_t "rule 4 fires" true (rewrites <> []);
  let merged = List.hd rewrites in
  check bool_t "join eliminated" true
    (Nalg.fold
       (fun acc n -> acc && match n with Nalg.Join _ -> false | _ -> true)
       true merged);
  check bool_t "same answer" true
    (same_answer ~on_attrs:[ "ProfPage.PName"; "ProfPage.CourseList.CName" ] e merged)

let test_rule4_respects_keys () =
  (* joining on an attribute that does not collapse must not merge *)
  let long = Nalg.unnest (profs_nav ()) "ProfPage.CourseList" in
  let short = profs_nav ~alias:"ProfPage@2" ~list_alias:"ProfListPage@2" () in
  let e = Nalg.join [ ("ProfPage.PName", "ProfPage@2.Email") ] long short in
  check int_t "no merge on mismatched keys" 0 (List.length (on_memo Rewrite.rule4 schema e))

let test_rule4_identical_relations () =
  (* R ⋈ R = R; the merged plan keeps one occurrence, so compare the
     projected values (column names follow the surviving occurrence) *)
  let r1 = profs_nav () in
  let r2 = profs_nav ~alias:"ProfPage@2" ~list_alias:"ProfListPage@2" () in
  let e = Nalg.join [ ("ProfPage.PName", "ProfPage@2.PName") ] r1 r2 in
  let rewrites = on_memo Rewrite.rule4 schema e in
  check bool_t "fires" true (rewrites <> []);
  let merged = List.hd rewrites in
  let names e =
    Adm.Relation.column
      (List.find
         (fun a -> Filename.check_suffix a ".PName")
         (Adm.Relation.attrs (eval e)))
      (eval e)
    |> List.map Adm.Value.to_string |> List.sort_uniq compare
  in
  check bool_t "same professor set" true (names e = names merged)

(* ------------------------------------------------------------------ *)
(* Rule 6                                                              *)
(* ------------------------------------------------------------------ *)

let test_rule6_moves_selection_across_link () =
  (* σ[CoursePage.Session='Fall'](… → CoursePage) can test
     SessionPage.Session instead (link constraint) *)
  let e =
    Nalg.select
      [ Pred.eq_const "CoursePage.Session" (Adm.Value.text "Fall") ]
      (courses_nav ())
  in
  let rewrites = on_memo Rewrite.rule6 schema e in
  check bool_t "rule 6 fires" true (rewrites <> []);
  let moved =
    List.exists
      (fun e' ->
        List.mem "SessionPage.Session"
          (Nalg.fold
             (fun acc n ->
               match n with Nalg.Select (p, _) -> Pred.attrs p @ acc | _ -> acc)
             [] e'))
      rewrites
  in
  check bool_t "selection now on SessionPage.Session" true moved;
  List.iter
    (fun e' ->
      check bool_t "same answer" true
        (same_answer ~on_attrs:[ "CoursePage.CName" ] e e'))
    rewrites

let test_rule6_then_sink_reduces_cost () =
  let e =
    Nalg.select
      [ Pred.eq_const "CoursePage.Session" (Adm.Value.text "Fall") ]
      (courses_nav ())
  in
  let stats = Sitegen.Sites.stats uni in
  let baseline = Cost.cost schema stats e in
  let improved =
    on_memo Rewrite.rule6 schema e
    |> List.map (on_memo Rewrite.sink_selections schema)
    |> List.map (Cost.cost schema stats)
    |> List.fold_left Float.min baseline
  in
  check bool_t "pushing the selection is cheaper" true (improved < baseline)

(* ------------------------------------------------------------------ *)
(* Selection sinking                                                   *)
(* ------------------------------------------------------------------ *)

let test_sink_selections () =
  let e =
    Nalg.select
      [ Pred.eq_const "ProfListPage.ProfList.PName" (Adm.Value.text "nobody") ]
      (profs_nav ())
  in
  let sunk = on_memo Rewrite.sink_selections schema e in
  (* the selection must now sit below the Follow *)
  (match sunk with
  | Nalg.Follow { src = Nalg.Select _; _ } -> ()
  | _ -> Alcotest.failf "selection not sunk: %s" (Nalg.to_string sunk));
  check bool_t "same (empty) answer" true
    (same_answer ~on_attrs:[ "ProfPage.PName" ] e sunk)

let test_sink_respects_scope () =
  let e =
    Nalg.select [ Pred.eq_const "ProfPage.Rank" (Adm.Value.text "Full") ] (profs_nav ())
  in
  let sunk = on_memo Rewrite.sink_selections schema e in
  (* Rank only exists after the follow: selection must stay on top *)
  (match sunk with
  | Nalg.Select _ -> ()
  | _ -> Alcotest.failf "selection moved illegally: %s" (Nalg.to_string sunk));
  check bool_t "same answer" true (same_answer ~on_attrs:[ "ProfPage.PName" ] e sunk)

(* ------------------------------------------------------------------ *)
(* Rule 8: pointer join                                                *)
(* ------------------------------------------------------------------ *)

let example_71_join () =
  (* (sessions → CoursePage) ⋈_{CName} (profs ◦ CourseList) *)
  let course_side = courses_nav () in
  let prof_side =
    Nalg.unnest (profs_nav ~alias:"P2" ~list_alias:"PL2" ()) "P2.CourseList"
  in
  Nalg.join [ ("CoursePage.CName", "P2.CourseList.CName") ] course_side prof_side

let test_rule8_fires () =
  let e = example_71_join () in
  let rewrites = on_memo Rewrite.rule8 schema e in
  check bool_t "rule 8 fires" true (rewrites <> []);
  (* the rewritten plan joins the two link sets below a follow *)
  let has_join_under_follow =
    List.exists
      (fun e' ->
        Nalg.fold
          (fun acc n ->
            acc
            || match n with Nalg.Follow { src = Nalg.Join _; _ } -> true | _ -> false)
          false e')
      rewrites
  in
  check bool_t "join pushed below follow" true has_join_under_follow;
  List.iter
    (fun e' ->
      check bool_t "same answer" true
        (same_answer ~on_attrs:[ "CoursePage.CName"; "P2.PName" ] e e'))
    rewrites

(* ------------------------------------------------------------------ *)
(* Rule 9: pointer chase                                               *)
(* ------------------------------------------------------------------ *)

let test_rule9_fires_with_inclusion () =
  let e = example_71_join () in
  let rewrites = on_memo Rewrite.rule9 schema e in
  check bool_t "rule 9 fires" true (rewrites <> []);
  (* chase: sessions disappear, courses reached from professors *)
  let chased =
    List.filter (fun e' -> not (List.mem "SessionPage" (Nalg.aliases e'))) rewrites
  in
  check bool_t "session path dropped in some rewriting" true (chased <> []);
  List.iter
    (fun e' ->
      check bool_t "same answer" true
        (same_answer ~on_attrs:[ "CoursePage.CName"; "P2.PName" ] e e'))
    rewrites

let test_rule9_blocked_by_references () =
  (* if the query needs SessionPage.Session, the session path cannot
     be abandoned *)
  let e =
    Nalg.project [ "SessionPage.Session"; "CoursePage.CName" ] (example_71_join ())
  in
  let rewrites = on_memo Rewrite.rule9 schema e in
  check bool_t "no rewriting keeps the needed attribute" true
    (List.for_all (fun e' -> List.mem "SessionPage" (Nalg.aliases e')) rewrites)

let test_rule9_requires_inclusion () =
  (* joining DeptPage's prof pointers with course instructor pointers:
     CoursePage.ToProf ⊆ ProfListPage…, but NOT ⊆ DeptPage.ProfList…,
     so chasing from CoursePage.ToProf is allowed only against the
     prof-list path *)
  let prof_follow =
    Nalg.follow
      (Nalg.unnest (dept_nav ()) "DeptPage.ProfList")
      "DeptPage.ProfList.ToProf" ~scheme:"ProfPage"
  in
  let course_side = courses_nav () in
  let e =
    Nalg.join [ ("ProfPage.PName", "CoursePage.PName") ] prof_follow course_side
  in
  (* chase would follow CoursePage.ToProf; inclusion CoursePage.ToProf
     ⊆ DeptPage.ProfList.ToProf does NOT hold, so rule 9 must not
     produce a plan that drops the DeptPage path *)
  let rewrites = on_memo Rewrite.rule9 schema e in
  check bool_t "dept path never dropped" true
    (List.for_all (fun e' -> List.mem "DeptPage" (Nalg.aliases e')) rewrites)

let test_rule9_requires_pure_navigation () =
  (* the chased-away prefix must enumerate the link path's full
     extent. Here the prof-list navigation is restricted by a join to
     the course spine ("professors that teach"): the declared inclusion
     DeptPage.ProfList.ToProf ⊆ ProfListPage.ProfList.ToProf speaks
     about the unrestricted path, so chasing from the dept side and
     dropping the restricted prefix would widen the answer to
     professors that teach nothing *)
  let restricted_profs =
    Nalg.follow
      (Nalg.join
         [ ("ProfListPage.ProfList.ToProf", "CoursePage.ToProf") ]
         (Nalg.unnest (Nalg.entry ~alias:"ProfListPage" "ProfListPage") "ProfListPage.ProfList")
         (courses_nav ()))
      "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage" ~alias:"ProfPage"
  in
  let dept_profs = Nalg.unnest (dept_nav ()) "DeptPage.ProfList" in
  let e =
    Nalg.project [ "ProfPage.PName" ]
      (Nalg.join [ ("ProfPage.PName", "DeptPage.ProfList.PName") ] restricted_profs dept_profs)
  in
  let rewrites = on_memo Rewrite.rule9 schema e in
  check bool_t "restricted prefix never dropped" true
    (List.for_all (fun e' -> List.mem "CoursePage" (Nalg.aliases e')) rewrites);
  List.iter
    (fun e' -> check bool_t "same answer" true (same_answer ~on_attrs:[ "ProfPage.PName" ] e e'))
    rewrites

(* ------------------------------------------------------------------ *)
(* Pruning (rules 3 and 5)                                             *)
(* ------------------------------------------------------------------ *)

let test_prune_drops_unneeded_follow () =
  (* π[names from the list page] over profs_nav: no ProfPage attribute
     needed, so the follow disappears (rule 5) *)
  let e = Nalg.project [ "ProfListPage.ProfList.PName" ] (profs_nav ()) in
  let pruned = on_memo Rewrite.prune schema e in
  check bool_t "follow dropped" false (List.mem "ProfPage" (Nalg.aliases pruned));
  check bool_t "same answer" true
    (same_answer ~on_attrs:[ "ProfListPage.ProfList.PName" ] e pruned)

let test_prune_drops_unneeded_unnest () =
  (* π[DName] over DeptPage ◦ ProfList: unnest contributes nothing and
     the schema declares ProfList non-empty, licensing rule 3 *)
  let e = Nalg.project [ "DeptPage.DName" ] (Nalg.unnest (dept_nav ()) "DeptPage.ProfList") in
  let pruned = on_memo Rewrite.prune schema e in
  let has_unnest =
    Nalg.fold
      (fun acc n -> acc || match n with Nalg.Unnest (_, a) -> String.equal a "DeptPage.ProfList" | _ -> false)
      false pruned
  in
  check bool_t "unnest dropped" false has_unnest;
  check bool_t "same answer" true (same_answer ~on_attrs:[ "DeptPage.DName" ] e pruned)

let test_prune_keeps_needed () =
  let e = Nalg.project [ "ProfPage.Rank" ] (profs_nav ()) in
  let pruned = on_memo Rewrite.prune schema e in
  check bool_t "follow kept" true (List.mem "ProfPage" (Nalg.aliases pruned));
  check bool_t "same answer" true (same_answer ~on_attrs:[ "ProfPage.Rank" ] e pruned)

let test_prune_keeps_possibly_empty_unnest () =
  (* ProfPage.CourseList carries no non-emptiness declaration: a
     professor may teach no course, so the unnest restricts (it is the
     "professors that teach" filter) and rule 3 must not drop it even
     though nothing above reads its attributes *)
  let e =
    Nalg.project [ "ProfPage.PName" ] (Nalg.unnest (profs_nav ()) "ProfPage.CourseList")
  in
  let pruned = on_memo Rewrite.prune schema e in
  let has_unnest =
    Nalg.fold
      (fun acc n ->
        acc || match n with Nalg.Unnest (_, a) -> String.equal a "ProfPage.CourseList" | _ -> false)
      false pruned
  in
  check bool_t "possibly-empty unnest kept" true has_unnest;
  check bool_t "same answer" true (same_answer ~on_attrs:[ "ProfPage.PName" ] e pruned)

(* ------------------------------------------------------------------ *)
(* Rule 7 (literal form)                                               *)
(* ------------------------------------------------------------------ *)

let test_rule7_replace_eliminates_navigation () =
  (* the intro's redundancy example, on the university site: asking
     only for professor names of a department needs no professor
     pages — the names are replicated in the department's ProfList *)
  let e =
    Nalg.project [ "ProfPage.PName" ]
      (Nalg.follow
         (Nalg.unnest (dept_nav ()) "DeptPage.ProfList")
         "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")
  in
  let variants =
    on_memo Rewrite.rule7_replace schema e |> List.map (on_memo Rewrite.prune schema)
  in
  let eliminated =
    List.filter (fun e' -> not (List.mem "ProfPage" (Nalg.aliases e'))) variants
  in
  check bool_t "a variant drops the professor pages" true (eliminated <> []);
  List.iter
    (fun e' -> check bool_t "same values" true (same_values e e'))
    eliminated

let test_rule7_literal () =
  (* π[DeptPage.DName](DeptListPage ◦ DeptList → DeptPage) =
     π[DeptListPage.DeptList.DName](DeptListPage ◦ DeptList) *)
  let e = Nalg.project [ "DeptPage.DName" ] (dept_nav ()) in
  let rewrites = on_memo Rewrite.rule7_literal schema e in
  check bool_t "rule 7 fires" true (rewrites <> []);
  let r1 = eval e in
  List.iter
    (fun e' ->
      let r2 = eval e' in
      check bool_t "same values modulo attribute name" true
        (List.sort compare (List.map Adm.Value.to_string (List.concat_map (List.map snd) (Adm.Relation.rows r1)))
        = List.sort compare (List.map Adm.Value.to_string (List.concat_map (List.map snd) (Adm.Relation.rows r2)))))
    rewrites

(* ------------------------------------------------------------------ *)
(* Join reordering                                                     *)
(* ------------------------------------------------------------------ *)

let test_join_commute_preserves () =
  let e = example_71_join () in
  match on_memo Rewrite.join_commute schema e with
  | e' :: _ ->
    check bool_t "commuted same answer" true
      (same_answer ~on_attrs:[ "CoursePage.CName" ] e e')
  | [] -> Alcotest.fail "commute must fire on a join"

let test_join_rotate_preserves () =
  (* ((profs ⋈ courses) ⋈ depts) — rotate right *)
  let profs = profs_nav () in
  let courses = courses_nav () in
  let depts = dept_nav () in
  let e =
    Nalg.join
      [ ("ProfPage.DName", "DeptPage.DName") ]
      (Nalg.join [ ("ProfPage.PName", "CoursePage.PName") ] profs courses)
      depts
  in
  let rotated = on_memo Rewrite.join_rotate schema e in
  (* k2's left attr comes from profs (the a side), not b: rotation is
     NOT legal here, so rotate must not fire *)
  check int_t "illegal rotation blocked" 0 (List.length rotated);
  let e2 =
    Nalg.join
      [ ("CoursePage.Session", "SessionPage@9.Session") ]
      (Nalg.join [ ("ProfPage.PName", "CoursePage.PName") ] profs courses)
      (sessions_nav ~alias:"SessionPage@9" ~list_alias:"SessionListPage@9" ())
  in
  match on_memo Rewrite.join_rotate schema e2 with
  | e2' :: _ ->
    check bool_t "rotation same answer" true
      (same_answer ~on_attrs:[ "ProfPage.PName"; "CoursePage.CName" ] e2 e2')
  | [] -> Alcotest.fail "legal rotation must fire"

let suite =
  ( "rewrite",
    [
      Alcotest.test_case "rule 2 negative" `Quick test_rule2_fires;
      Alcotest.test_case "rule 4 merges" `Quick test_rule4_merges_repeated_navigation;
      Alcotest.test_case "rule 4 respects keys" `Quick test_rule4_respects_keys;
      Alcotest.test_case "rule 4 identical relations" `Quick test_rule4_identical_relations;
      Alcotest.test_case "rule 6 moves selection" `Quick test_rule6_moves_selection_across_link;
      Alcotest.test_case "rule 6 reduces cost" `Quick test_rule6_then_sink_reduces_cost;
      Alcotest.test_case "sink selections" `Quick test_sink_selections;
      Alcotest.test_case "sink respects scope" `Quick test_sink_respects_scope;
      Alcotest.test_case "rule 8 pointer join" `Quick test_rule8_fires;
      Alcotest.test_case "rule 9 pointer chase" `Quick test_rule9_fires_with_inclusion;
      Alcotest.test_case "rule 9 blocked by references" `Quick test_rule9_blocked_by_references;
      Alcotest.test_case "rule 9 requires inclusion" `Quick test_rule9_requires_inclusion;
      Alcotest.test_case "rule 9 requires pure navigation" `Quick
        test_rule9_requires_pure_navigation;
      Alcotest.test_case "prune drops follow (rule 5)" `Quick test_prune_drops_unneeded_follow;
      Alcotest.test_case "prune drops unnest (rule 3)" `Quick test_prune_drops_unneeded_unnest;
      Alcotest.test_case "prune keeps needed" `Quick test_prune_keeps_needed;
      Alcotest.test_case "prune keeps possibly-empty unnest" `Quick
        test_prune_keeps_possibly_empty_unnest;
      Alcotest.test_case "rule 7 eliminates navigation" `Quick
        test_rule7_replace_eliminates_navigation;
      Alcotest.test_case "rule 7 literal" `Quick test_rule7_literal;
      Alcotest.test_case "join commute" `Quick test_join_commute_preserves;
      Alcotest.test_case "join rotate" `Quick test_join_rotate_preserves;
    ] )
