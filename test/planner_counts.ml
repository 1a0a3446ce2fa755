(* Planner counters over the 200 seed-7 join-plan queries of the
   end-to-end benchmark (university of 20 departments, 400 professors,
   800 courses and 4 sessions; [E2e.Oracle.join_query]), planned at
   the default settings. Per query family it prints the plans
   explored, the plans merged, the W0401 cap warnings and the sums of
   the best plans' estimated costs and cardinalities. The output is
   diffed against planner_counts.expected; `dune promote` accepts a
   new one. *)

module U = Sitegen.University
open Webviews

let () =
  let config =
    { U.default_config with U.n_depts = 20; n_profs = 400; n_courses = 800; n_sessions = 4 }
  in
  let u = U.build ~config () in
  let instance = Websim.Crawler.crawl U.schema (Websim.Http.connect (U.site u)) in
  let stats = Stats.of_instance instance in
  let oracle = E2e.Oracle.university u in
  let rng = Random.State.make [| 7 |] in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let c = E2e.Oracle.join_query oracle rng i in
      let o = Planner.plan_sql U.schema stats U.view c.E2e.Oracle.sql in
      let caps =
        List.length
          (List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = "W0401") o.Planner.diagnostics)
      in
      let n, explored, merged, w0401, cost, card =
        Option.value (Hashtbl.find_opt totals c.E2e.Oracle.family) ~default:(0, 0, 0, 0, 0.0, 0.0)
      in
      Hashtbl.replace totals c.E2e.Oracle.family
        ( n + 1,
          explored + o.Planner.explored,
          merged + o.Planner.merged,
          w0401 + caps,
          cost +. o.Planner.best.Planner.cost,
          card +. o.Planner.best.Planner.card ))
    (List.init 200 Fun.id);
  Printf.printf "%-14s %7s %8s %6s %5s %10s %10s\n" "family" "queries" "explored" "merged" "W0401"
    "best_cost" "best_card";
  List.iter
    (fun family ->
      let n, explored, merged, w0401, cost, card = Hashtbl.find totals family in
      Printf.printf "%-14s %7d %8d %6d %5d %10.1f %10.1f\n" family n explored merged w0401 cost card)
    (List.sort_uniq String.compare E2e.Oracle.join_cycle)
