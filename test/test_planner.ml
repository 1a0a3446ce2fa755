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
(* The pinned queries                                                  *)
(* ------------------------------------------------------------------ *)

(* Planning is a function of the query alone: the pinned queries
   planned forwards and then backwards in one process give the same
   outcomes byte for byte, so no memo of the planning context survives
   an [enumerate] call. *)
let test_plan_order_independent () =
  let forwards = List.map Pins.block Pins.cases in
  let backwards = List.rev_map Pins.block (List.rev Pins.cases) in
  List.iter2
    (fun (name, _, _) (f, b) -> check string_t name f b)
    Pins.cases (List.combine forwards backwards)

(* Every member of the groups below [roots], each once. *)
let group_members roots =
  let seen = Hashtbl.create 64 and out = ref [] in
  let rec visit n =
    match Memo.group_of n with
    | Some g when not (Hashtbl.mem seen (Memo.gid g)) ->
      Hashtbl.add seen (Memo.gid g) ();
      out := List.rev_append (Memo.members g) !out;
      List.iter (fun m -> List.iter visit (Memo.kids m)) (Memo.members g)
    | _ -> ()
  in
  List.iter visit roots;
  List.rev !out

(* Every plan the phases of [enumerate] reach for a query, rebuilt
   from the public rules phase by phase over one memo: the join rules'
   whole-plan closure, every member of the join groups, and from one
   root group per class the selection closure, its plans sunk into
   the groups' cheapest members, the projection closure and its plans
   pruned. *)
let closure_plans memo registry sql =
  let joins = Pins.join_phase memo registry sql in
  let roots = Pins.representatives memo registry sql in
  let selections, sunk, projections = Pins.later_phases memo roots in
  List.map Memo.expr (joins @ group_members roots @ selections @ sunk @ projections)
  @ List.map (Rewrite.prune memo) projections

(* The least cost of a well-typed plan that the selection and
   projection phases reach from [seeds], each plan's selections sunk
   as it stands (no group to choose another join order from) and its
   navigations pruned. *)
let later_best_cost memo seeds =
  let _, _, projections = Pins.later_phases memo seeds in
  List.fold_left
    (fun best n ->
      let n = Memo.intern ~hint:n memo (Rewrite.prune memo n) in
      if Memo.has_errors memo n then best else Float.min best (Memo.estimate memo n).Cost.cost)
    infinity projections

(* The best cost over the complete plan space, searched without
   groups: the selection and projection closures start from every
   plan of the join rules' whole-plan closure. *)
let ungrouped_best_cost schema stats registry sql =
  let memo = Memo.create schema stats in
  later_best_cost memo (Pins.join_phase memo registry sql)

(* Each pinned query finds the best cost of the ungrouped search, and
   so does each of eight FROM orders: six of the pinned Example 7.2
   query, two at each of the best costs its 24 orders reach
   (planner_orders.expected), and two of the 5-way [Pins.chain5]. The
   best cost depends on the FROM order, but from each order the groups
   find the ungrouped search's. The 4-way Example 7.2-session query on
   the join-plan-sized university reaches 24. *)
let test_complete_search () =
  let best_cost name site sql =
    let schema, registry, stats = Pins.parts site in
    let o = Planner.plan_sql schema stats registry sql in
    Alcotest.(check (float 1e-9))
      (name ^ ": the ungrouped search's best cost")
      (ungrouped_best_cost schema stats registry sql) o.Planner.best.Planner.cost;
    o.Planner.best.Planner.cost
  in
  List.iter (fun (name, site, sql) -> ignore (best_cost name site sql)) Pins.cases;
  List.iter
    (fun (sql, order, expected) ->
      Alcotest.(check (float 1e-9)) (order ^ ": best cost") expected
        (best_cost order Pins.join_site (List.assoc order (Pins.from_orders sql))))
    (List.map
       (fun (order, cost) -> (Pins.ex72 "Computer Science" "Graduate", order, cost))
       [
         ("c, ci, p, pd", 62.0); ("ci, p, c, pd", 62.0); ("c, p, ci, pd", 26.0);
         ("pd, p, c, ci", 26.0); ("c, ci, pd, p", 441.0); ("pd, ci, p, c", 441.0);
       ]
    @ [ (Pins.chain5, "c, ci, p, pd, d", 421.0); (Pins.chain5, "c, ci, p, d, pd", 61.0) ]);
  let schema, registry, stats = Pins.parts Pins.join_site in
  let o = Planner.plan_sql schema stats registry (Pins.ex72_session "Computer Science" "Fall") in
  Alcotest.(check (float 1e-9)) "ex7.2-session: best cost" 24.0 o.Planner.best.Planner.cost

(* No plan of the join phase is lost to its class: on the pinned
   Fig. 2, Example 7.1, 7.2 and 7.2-session queries the planner's best
   cost is at most what the selection and projection phases make of
   any single plan of the join rules' whole-plan closure. The planner
   keeps one root group per class, and sinking a plan's selections
   picks every group's cheapest member, so a class cannot keep a join
   order whose later plans cost more than another's. *)
let test_no_plan_lost_to_its_class () =
  List.iter
    (fun (name, site, sql) ->
      let family = List.hd (String.split_on_char '/' name) in
      if List.mem family [ "fig2"; "ex7.1"; "ex7.2"; "ex7.2-session" ] then begin
        let schema, registry, stats = Pins.parts site in
        let o = Planner.plan_sql schema stats registry sql in
        let memo = Memo.create schema stats in
        let joins = Pins.join_phase memo registry sql in
        let least =
          List.fold_left (fun acc n -> Float.min acc (later_best_cost memo [ n ])) infinity joins
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: best cost %g <= %g over %d join-phase plans" name
             o.Planner.best.Planner.cost least (List.length joins))
          true
          (o.Planner.best.Planner.cost <= least)
      end)
    Pins.cases

(* One extraction per join class matches the whole-plan reference of
   the selection and projection phases ([Pins.later_phases], pruned):
   each class's candidate has the least cost and cardinality of that
   class's reference plans, and the best plan is the reference's best.
   On every pinned query, on [Pins.chain5] and on the 24 FROM orders of
   the pinned Example 7.2 query. *)
let test_extraction_matches_reference () =
  let ex72 = Pins.ex72 "Computer Science" "Graduate" in
  List.iter
    (fun (name, site, sql) ->
      let schema, registry, stats = Pins.parts site in
      Alcotest.(check (list string))
        (name ^ ": extraction departs from the reference")
        []
        (Pins.extraction_mismatches schema stats registry sql))
    (Pins.cases
    @ [ ("chain5", Pins.join_site, Pins.chain5) ]
    @ List.map (fun (order, sql) -> ("ex7.2 " ^ order, Pins.join_site, sql)) (Pins.from_orders ex72))

(* The planner's join groups reach exactly the groups of the join
   rules' whole-plan closure, and [enumerate] explores one plan per
   root group (the pinned queries have no view-scan or
   binding-pattern plans): on every pinned query and on the 5-way
   [Pins.chain5]. *)
let test_classes () =
  List.iter
    (fun (name, site, sql) ->
      let schema, registry, stats = Pins.parts site in
      let memo = Memo.create schema stats in
      let roots =
        Planner.join_groups memo
          (Planner.join_steps ~pointer_rules:true)
          (Pins.seeds memo registry sql)
      in
      Alcotest.(check (list int))
        (name ^ ": the groups reach the closure's groups")
        (Pins.group_ids memo (Pins.join_phase memo registry sql))
        (Pins.group_ids memo roots);
      Alcotest.(check int)
        (name ^ ": one plan explored per root group")
        (List.length roots)
        (Planner.plan_sql schema stats registry sql).Planner.explored)
    (Pins.cases @ [ ("chain5", Pins.join_site, Pins.chain5) ])

(* The planning context — the interned memo — answers every property
   as the context-free function does: output attributes, alias
   environment, available links, the typed environment with its
   diagnostics (full paths, in order), the soundness verdict against
   the first plan and the cost estimate, for every plan and every
   subexpression. One memo serves all plans of a query, so
   its nodes are read back as often as the planner reads them. *)
let context_agrees ?memo ~what schema stats (plans : Nalg.expr list) =
  let memo = match memo with Some m -> m | None -> Memo.create schema stats in
  let root = Memo.intern memo (List.hd plans) in
  let outcome f x = match f x with v -> Ok v | exception ex -> Error (Printexc.to_string ex) in
  let names e = List.map fst (fst (Typecheck.infer schema e)) in
  let mismatches = ref [] in
  let agree property e same =
    if not same then mismatches := (property ^ " of " ^ Nalg.to_string e) :: !mismatches
  in
  List.iter
    (fun e ->
      let w = Memo.walk memo (Memo.intern memo e) in
      Memo.concat_map w (fun i -> [ (Memo.sub w i, Memo.node_at w i) ])
      |> List.iter (fun (sub, n) ->
          agree "walk" sub (Memo.intern memo sub == n);
          agree "expr" sub (Nalg.equal sub (Memo.expr n));
          agree "attrs" sub
            (outcome names sub = outcome (Memo.attrs memo) n);
          agree "alias env" sub (Nalg.alias_env sub = Memo.alias_env n);
          agree "links" sub
            (outcome (fun e -> Nalg.links_in schema (Nalg.alias_env e) (names e)) sub
            = outcome (Memo.links memo) n);
          let inferred = Typecheck.infer schema sub in
          agree "infer" sub (inferred = Memo.infer memo n);
          agree "errors" sub
            (Diagnostic.has_errors (snd inferred) = Memo.has_errors memo n);
          agree "estimate" sub
            (outcome (Cost.estimate schema stats sub) sub = outcome (Memo.estimate memo) n));
      agree "judge" e
        (Typecheck.judge ~parent:(Typecheck.infer schema (Memo.expr root))
           ~child:(Typecheck.infer schema e)
        = Typecheck.judge ~parent:(Memo.infer memo root) ~child:(Memo.infer memo (Memo.intern memo e))))
    plans;
  check Alcotest.(list string_t) (what ^ ": context disagreements") [] (List.rev !mismatches)

let test_context_closure_plans () =
  List.iter
    (fun (name, site, sql) ->
      let schema, registry, stats = Pins.parts site in
      let memo = Memo.create schema stats in
      context_agrees ~memo ~what:name schema stats (closure_plans memo registry sql))
    Pins.cases

(* Hand-made plans the closures never reach: ill-typed ones (their
   diagnostics, paths and order included, and the E0402/E0403 verdicts
   built from them), calls, and pairs of plans with one multiset of key
   items read through one memo — a duplicate alias, seven occurrences
   of one page-scheme joined left-deep and right-deep, and a residual
   attribute-attribute comparison. *)
let test_context_hand_made_plans () =
  let schema, _, stats = Pins.parts Pins.uni_site in
  let e = Nalg.entry in
  let profs = Nalg.unnest (e "ProfListPage") "ProfListPage.ProfList" in
  let ill_typed =
    [
      Nalg.project [ "ProfListPage.URL"; "ProfListPage.ProfList.PName" ] profs;
      Nalg.project [ "ProfListPage.Nope" ] (e "ProfListPage");
      Nalg.unnest (e "ProfListPage") "ProfListPage.URL";
      Nalg.join [ ("ProfListPage.URL", "ProfListPage.URL") ] (e "ProfListPage") (e "ProfListPage");
      Nalg.follow profs "ProfListPage.ProfList.PName" ~scheme:"ProfPage";
      Nalg.follow profs "ProfListPage.ProfList.ToProf" ~scheme:"CoursePage";
      e "NoSuchPage";
      e "ProfPage";
      Nalg.external_ "Professor";
      Nalg.select [ Pred.eq_const "ProfListPage.ProfList" (Adm.Value.Int 3) ] (e "ProfListPage");
      Nalg.project [ "ProfListPage.URL" ] profs;
    ]
  in
  context_agrees ~what:"ill-typed" schema stats ill_typed;
  let codes =
    List.concat_map
      (fun p -> List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) (snd (Typecheck.infer schema p)))
      ill_typed
    @ List.map
        (fun (d : Diagnostic.t) -> d.Diagnostic.code)
        (List.concat_map
           (fun child ->
             Typecheck.judge
               ~parent:(Typecheck.infer schema (List.hd ill_typed))
               ~child:(Typecheck.infer schema child))
           ill_typed)
  in
  List.iter
    (fun code -> check bool_t ("reaches " ^ code) true (List.mem code codes))
    [ "E0101"; "E0102"; "E0103"; "E0104"; "E0105"; "E0106"; "E0107"; "E0108"; "E0109";
      "E0402"; "E0403" ];
  let shared_items ~what p1 p2 = context_agrees ~what schema stats [ p1; p2 ] in
  let j = Nalg.join [] in
  let top a = Nalg.project [ a ^ ".URL" ] in
  shared_items ~what:"duplicate alias"
    (top "DeptListPage" (j (e "ProfListPage") (j (e "ProfListPage") (e "DeptListPage"))))
    (top "DeptListPage" (j (j (e "ProfListPage") (e "ProfListPage")) (e "DeptListPage")));
  let occs = List.init 7 (fun i -> e ~alias:(Printf.sprintf "P%d" i) "ProfListPage") in
  let left_deep = List.fold_left j (List.hd occs) (List.tl occs) in
  let right_deep = List.fold_right j (List.tl occs) (List.hd occs) in
  shared_items ~what:"seven-way self-join" (top "P0" left_deep) (top "P0" right_deep);
  (* the residual's left term sits in the class {A.URL, C.URL}, whose
     root is whichever of A and C the plan numbers first *)
  let residual ~a_first =
    let a = Nalg.unnest (e ~alias:"A" "ProfListPage") "A.ProfList" in
    let b = e ~alias:"B" "ProfListPage" and c = e ~alias:"C" "ProfListPage" in
    Nalg.project [ "A.URL" ]
      (Nalg.select
         [
           Pred.eq_attrs "A.URL" "C.URL";
           Pred.atom (Pred.Attr "A.URL") Pred.Lt (Pred.Attr "B.URL");
         ]
         (if a_first then j (j a b) c else j (j c b) a))
  in
  shared_items ~what:"residual comparison" (residual ~a_first:true)
    (residual ~a_first:false);
  let fs = Sitegen.Sites.of_formsite (Sitegen.Formsite.build ()) in
  let hook = Option.get (Sitegen.Sites.bindings fs) in
  let calls =
    List.concat_map
      (fun sql -> hook (Sql_parser.parse fs.registry sql))
      Server.Workload.formsite_templates
  in
  check bool_t "call plans" true (calls <> []);
  context_agrees ~what:"call" fs.schema (Sitegen.Sites.stats fs) calls

(* A rule output is interned against the plan it rewrote: the subtrees
   the rule kept are the parent's nodes (same ids), and only the
   rebuilt spine is new. *)
let test_memo_shares_subtrees () =
  let schema, registry, stats = Pins.parts Pins.uni_site in
  let memo = Memo.create schema stats in
  let q = Sql_parser.parse registry (Pins.ex72 "Computer Science" "Graduate") in
  let seeds = List.map (Memo.intern memo) (View.expand registry (Conjunctive.to_algebra q)) in
  let ids n =
    let rec go acc n = List.fold_left go (Memo.id n :: acc) (Memo.kids n) in
    go [] n
  in
  let outputs = ref 0 in
  List.iter
    (fun parent ->
      let w = Memo.walk memo parent in
      let parent_subs = Memo.concat_map w (fun i -> [ Memo.sub w i ]) in
      List.iter
        (fun child ->
          let parent_ids = ids parent in
          let before = Memo.size memo in
          let n = Memo.intern ~hint:parent memo child in
          incr outputs;
          check bool_t "same plan" true (Nalg.equal child (Memo.expr n));
          (* every subtree of the output physically shared with the
             parent's plan has the parent's node *)
          let rec shared e n =
            if List.exists (( == ) e) parent_subs then check bool_t "kept subtree keeps its id" true (List.mem (Memo.id n) parent_ids)
            else List.iter2 shared (Nalg.children e) (Memo.kids n)
          in
          shared child n;
          (* the new nodes are at most the output's nodes not shared *)
          let fresh = Memo.size memo - before in
          check bool_t "only rebuilt nodes are new" true (fresh <= Nalg.size child))
        (Rewrite.join_commute memo parent @ Rewrite.rules8_9 memo parent))
    seeds;
  check bool_t "rules applied" true (!outputs > 0)

(* Lowering is total: every candidate the planner returns for a pinned
   query lowers to a physical plan without raising, and so does every
   candidate for the server workload templates of the two sites the
   pins do not cover (bibliography, and the form-only site, whose
   plans unnest the lists of call-fetched pages). *)
let test_candidates_lower () =
  let lowers name schema (o : Planner.outcome) =
    List.iter
      (fun (p : Planner.plan) ->
        match Physplan.lower schema p.Planner.expr with
        | _ -> ()
        | exception e ->
          Alcotest.failf "%s: %a raised %s" name Nalg.pp p.Planner.expr
            (Printexc.to_string e))
      o.Planner.candidates
  in
  List.iter
    (fun (name, site, sql) ->
      let schema, registry, stats = Pins.parts site in
      lowers name schema (Planner.plan_sql schema stats registry sql))
    Pins.cases;
  let bib_schema, bib_registry, bib_stats =
    Pins.parts (lazy (Sitegen.Sites.load Bibliography))
  in
  List.iter
    (fun sql ->
      lowers sql bib_schema
        (Planner.plan_sql bib_schema bib_stats bib_registry sql))
    Server.Workload.bibliography_templates;
  let fs = Sitegen.Sites.of_formsite (Sitegen.Formsite.build ()) in
  let fs_stats = Sitegen.Sites.stats fs in
  List.iter
    (fun sql ->
      lowers sql fs.schema
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
      Alcotest.test_case "grouped search keeps the best cost" `Slow test_complete_search;
      Alcotest.test_case "one plan per class between the phases" `Quick test_classes;
      Alcotest.test_case "one extraction per class matches the reference" `Quick
        test_extraction_matches_reference;
      Alcotest.test_case "every candidate lowers" `Quick test_candidates_lower;
      Alcotest.test_case "planning is order-independent" `Quick test_plan_order_independent;
      Alcotest.test_case "context agrees on closure plans" `Quick test_context_closure_plans;
      Alcotest.test_case "context agrees on hand-made plans" `Quick test_context_hand_made_plans;
      Alcotest.test_case "memo shares a rule output's kept subtrees" `Quick
        test_memo_shares_subtrees;
      Alcotest.test_case "no join-phase plan lost to its class" `Slow
        test_no_plan_lost_to_its_class;
    ] )
