(* The plan the planner chooses for each FROM order of the pinned
   Example 7.2 query on the join-plan-sized university: per order, the
   best plan's estimated cost, the GETs of running it over a fresh
   connection, and the row count and MD5 of the sorted rows. Every
   order is the same query, so the rows agree; the costs need not, as
   the join phase does not reach every join order from every FROM
   order. dune diffs the output against planner_orders.expected;
   `dune promote` accepts a deliberate change. *)

open Webviews

let () =
  let (site : Sitegen.Sites.t) = Lazy.force Pins.join_site in
  let schema, registry, stats = Pins.parts Pins.join_site in
  let sql = Pins.ex72 "Computer Science" "Graduate" in
  List.iter
    (fun (order, sql) ->
      let http = Websim.Http.connect site.site in
      let o, rel = Planner.run schema stats registry (Eval.live_source schema http) sql in
      let rows = Fmt.str "%a" Adm.Relation.pp (Adm.Relation.sort_rows rel) in
      Printf.printf "%-16s cost %6.1f gets %4d rows %3d digest %s\n" order
        o.Planner.best.Planner.cost (Websim.Http.stats http).Websim.Http.gets
        (Adm.Relation.cardinality rel)
        (Digest.to_hex (Digest.string rows)))
    (Pins.from_orders sql)
