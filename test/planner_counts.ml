(* Planner counters over the join-plan queries of the end-to-end
   benchmark (university of 20 departments, 400 professors, 800
   courses and 4 sessions; [E2e.Oracle.join_query]), 200 queries at
   seed 7 and 200 at the held-out seed 11, planned at the default
   settings. Per seed and query family it prints the plans explored,
   the candidates and the sums of the best plans'
   estimated costs and cardinalities. The output is diffed against
   planner_counts.expected; `dune promote` accepts a new one. On the
   first 100 queries of each seed it also checks that the planner's
   join groups reach exactly the groups the whole-plan closure of the
   join rules reaches, and that the one candidate extracted per root
   group matches the whole-plan reference of the selection and
   projection phases ({!Pins.extraction_mismatches}), and fails on the
   first query where either does not. *)

module U = Sitegen.University
open Webviews

(* The groups of the join phase's plans, reached over groups and by
   the whole-plan closure, over one memo. *)
let join_group_ids stats sql =
  let q, _ = Contain.minimize_query U.view (Sql_parser.parse U.view sql) in
  let memo = Memo.create U.schema stats in
  let seeds =
    View.expand U.view (Conjunctive.to_algebra q)
    |> List.map (fun e -> Planner.rule4_fixpoint memo (Memo.intern memo e))
  in
  let roots = Planner.join_groups memo (Planner.join_steps ~pointer_rules:true) seeds in
  (Pins.group_ids memo roots, Pins.group_ids memo (Pins.closure memo Pins.join_rules seeds))

let table stats oracle seed =
  let rng = Random.State.make [| seed |] in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let c = E2e.Oracle.join_query oracle rng i in
      if i < 100 then begin
        let groups, closure = join_group_ids stats c.E2e.Oracle.sql in
        if groups <> closure then
          failwith
            (Printf.sprintf "seed %d query %d: the groups reach %d groups, the closure %d: %s" seed
               i (List.length groups) (List.length closure) c.E2e.Oracle.sql);
        match Pins.extraction_mismatches U.schema stats U.view c.E2e.Oracle.sql with
        | [] -> ()
        | m :: _ -> failwith (Printf.sprintf "seed %d query %d: %s: %s" seed i m c.E2e.Oracle.sql)
      end;
      let o = Planner.plan_sql U.schema stats U.view c.E2e.Oracle.sql in
      let n, explored, candidates, cost, card =
        Option.value (Hashtbl.find_opt totals c.E2e.Oracle.family) ~default:(0, 0, 0, 0.0, 0.0)
      in
      Hashtbl.replace totals c.E2e.Oracle.family
        ( n + 1,
          explored + o.Planner.explored,
          candidates + List.length o.Planner.candidates,
          cost +. o.Planner.best.Planner.cost,
          card +. o.Planner.best.Planner.card ))
    (List.init 200 Fun.id);
  Printf.printf
    "seed %d (join groups reach the closure's groups, extraction matches the reference on \
     queries 0-99)\n"
    seed;
  Printf.printf "%-14s %7s %8s %10s %10s %10s\n" "family" "queries" "explored" "candidates"
    "best_cost" "best_card";
  List.iter
    (fun family ->
      let n, explored, candidates, cost, card = Hashtbl.find totals family in
      Printf.printf "%-14s %7d %8d %10d %10.1f %10.1f\n" family n explored candidates cost card)
    (List.sort_uniq String.compare E2e.Oracle.join_cycle)

let () =
  let config =
    { U.default_config with U.n_depts = 20; n_profs = 400; n_courses = 800; n_sessions = 4 }
  in
  let u = U.build ~config () in
  let instance = Websim.Crawler.crawl U.schema (Websim.Http.connect (U.site u)) in
  let stats = Stats.of_instance instance in
  let oracle = E2e.Oracle.university u in
  table stats oracle 7;
  table stats oracle 11
