(* The optimizer's master invariant, checked on randomized queries:
   every candidate plan Algorithm 1 enumerates for a conjunctive query
   computes exactly the same relation (modulo the positional output
   renaming), and the plan the cost model ranks first never downloads
   more pages than the plan it ranks last. *)

open Webviews

let uni = Sitegen.Sites.load University
let schema = uni.schema
let registry = uni.registry
let instance = lazy (Sitegen.Sites.crawl uni)
let stats = uni.stats

(* --- a small generator of valid conjunctive queries ---------------- *)

(* join graph of the university view: which relations can be equi-
   joined on which attributes *)
let joinable =
  [
    (("Professor", "PName"), ("ProfDept", "PName"));
    (("Professor", "PName"), ("CourseInstructor", "PName"));
    (("Course", "CName"), ("CourseInstructor", "CName"));
    (("ProfDept", "DName"), ("Dept", "DName"));
  ]

let selections =
  [
    ("Professor", "Rank", [ "Full"; "Associate"; "Assistant" ]);
    ("Course", "Session", [ "Fall"; "Winter"; "Spring" ]);
    ("Course", "Type", [ "Graduate"; "Undergraduate" ]);
    ("ProfDept", "DName", [ "Computer Science"; "Mathematics"; "Physics" ]);
    ("Dept", "DName", [ "Computer Science"; "Mathematics" ]);
  ]

let projectable =
  [
    ("Professor", [ "PName"; "Rank"; "Email" ]);
    ("Course", [ "CName"; "Session"; "Type" ]);
    ("CourseInstructor", [ "CName"; "PName" ]);
    ("ProfDept", [ "PName"; "DName" ]);
    ("Dept", [ "DName"; "Address" ]);
  ]

(* Build a random connected query: start from one relation, repeatedly
   attach a joinable relation, add 0-2 selections, project 1-2
   attributes of relations in scope. *)
let query_gen =
  let open QCheck.Gen in
  let rec grow rels joins fuel st =
    if fuel = 0 then (rels, joins)
    else
      let candidates =
        List.filter_map
          (fun (((r1, a1), (r2, a2)) as _edge) ->
            if List.mem r1 rels && not (List.mem r2 rels) then Some (r2, (r1, a1, r2, a2))
            else if List.mem r2 rels && not (List.mem r1 rels) then Some (r1, (r1, a1, r2, a2))
            else None)
          joinable
      in
      match candidates with
      | [] -> (rels, joins)
      | _ ->
        let n = int_bound (List.length candidates - 1) st in
        let rel, edge = List.nth candidates n in
        grow (rel :: rels) (edge :: joins) (fuel - 1) st
  in
  let gen st =
    let seed_rel =
      List.nth [ "Professor"; "Course"; "Dept"; "ProfDept" ] (int_bound 3 st)
    in
    let fuel = int_bound 2 st in
    let rels, joins = grow [ seed_rel ] [] fuel st in
    let wanted_selections = int_bound 2 st in
    let available_selections =
      List.filter (fun (r, _, _) -> List.mem r rels) selections
    in
    let sels =
      List.filteri (fun i _ -> i < wanted_selections) available_selections
      |> List.map (fun (r, a, vs) -> (r, a, List.nth vs (int_bound (List.length vs - 1) st)))
    in
    let outputs =
      List.concat_map
        (fun r ->
          match List.assoc_opt r projectable with
          | Some (a :: _) -> [ r ^ "." ^ a ]
          | _ -> [])
        rels
    in
    let where =
      List.map (fun (r1, a1, r2, a2) -> Fmt.str "%s.%s = %s.%s" r1 a1 r2 a2) joins
      @ List.map (fun (r, a, v) -> Fmt.str "%s.%s = '%s'" r a v) sels
    in
    Fmt.str "SELECT %s FROM %s%s"
      (String.concat ", " outputs)
      (String.concat ", " rels)
      (match where with [] -> "" | w -> " WHERE " ^ String.concat " AND " w)
  in
  gen

let query_arb = QCheck.make ~print:Fun.id query_gen

let rows_of rel =
  Adm.Relation.rows rel
  |> List.map (fun t -> List.map (fun (_, v) -> Adm.Value.to_string v) t)
  |> List.sort compare

let prop_all_candidates_agree =
  QCheck.Test.make ~name:"all candidate plans compute the same relation" ~count:60
    query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      let source = Eval.instance_source (Lazy.force instance) in
      let results =
        List.map
          (fun (p : Planner.plan) ->
            rows_of (Planner.rename_output outcome (Eval.eval schema source p.Planner.expr)))
          outcome.Planner.candidates
      in
      match results with
      | [] -> false
      | first :: rest -> List.for_all (fun r -> r = first) rest)

let prop_best_not_worse_than_worst =
  QCheck.Test.make ~name:"cheapest plan downloads no more pages than costliest"
    ~count:25 query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      let measure (p : Planner.plan) =
        let http = Websim.Http.connect uni.site in
        let source = Eval.live_source schema http in
        let _ = Eval.eval schema source p.Planner.expr in
        (Websim.Http.stats http).Websim.Http.gets
      in
      match outcome.Planner.candidates with
      | [] -> false
      | [ _ ] -> true
      | best :: rest ->
        let worst = List.nth rest (List.length rest - 1) in
        measure best <= measure worst)

let prop_plans_are_computable =
  QCheck.Test.make ~name:"every candidate is computable" ~count:60 query_arb
    (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      List.for_all
        (fun (p : Planner.plan) -> Nalg.is_computable p.Planner.expr)
        outcome.Planner.candidates)

let prop_plans_statically_well_formed =
  QCheck.Test.make ~name:"every candidate passes the static checker" ~count:60
    query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      List.for_all
        (fun (p : Planner.plan) ->
          not (Diagnostic.has_errors (Typecheck.check schema p.Planner.expr)))
        outcome.Planner.candidates)

let prop_matview_agrees_with_live =
  QCheck.Test.make ~name:"materialized view answers = live answers" ~count:15
    query_arb (fun sql ->
      (* fresh site per sample: matview mutates statuses *)
      let u = Sitegen.Sites.load University in
      let outcome = Planner.plan_sql schema (Sitegen.Sites.stats u) registry sql in
      let plan = outcome.Planner.best.Planner.expr in
      let live = rows_of (Eval.eval schema (Eval.instance_source (Sitegen.Sites.crawl u)) plan) in
      let mv = Matview.materialize schema (Websim.Http.connect u.site) in
      let mat = rows_of (Matview.query mv plan) in
      live = mat)

let suite =
  ( "equivalence",
    [
      QCheck_alcotest.to_alcotest prop_all_candidates_agree;
      QCheck_alcotest.to_alcotest prop_best_not_worse_than_worst;
      QCheck_alcotest.to_alcotest prop_plans_are_computable;
      QCheck_alcotest.to_alcotest prop_plans_statically_well_formed;
      QCheck_alcotest.to_alcotest prop_matview_agrees_with_live;
    ] )
