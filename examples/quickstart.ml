(* Quickstart: build a site, pose a SQL query against its relational
   view, and let the optimizer choose a navigation plan.

   Run with:  dune exec examples/quickstart.exe *)

open Webviews

let () =
  (* 1. A web site. The site table builds the paper's Figure-1
     university site as real HTML pages on a simulated web server. *)
  let uni = Sitegen.Sites.load University in
  Fmt.pr "The university site has %d HTML pages.@.@." (Websim.Site.page_count uni.site);

  (* 2. Its ADM web scheme: page-schemes, entry points, link and
     inclusion constraints. *)
  let schema = uni.schema in
  Fmt.pr "%a@.@." Adm.Schema.pp schema;

  (* 3. Site statistics for the cost model, collected by crawling the
     site once (the paper assumes a WebSQL-style exploration). *)
  let stats = Sitegen.Sites.stats uni in

  (* 4. A SQL query against the external view of Section 5. *)
  let sql =
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Computer Science'"
  in
  Fmt.pr "Query: %s@.@." sql;

  (* 5. Plan it: Algorithm 1 enumerates candidate navigation plans via
     the rewrite rules and picks the cheapest under the page-access
     cost model. *)
  let outcome = Planner.plan_sql schema stats uni.registry sql in
  Fmt.pr "The optimizer considered %d candidate plans; chosen plan:@.@.%a@."
    (List.length outcome.Planner.candidates)
    (Explain.pp_annotated schema stats)
    outcome.Planner.best.Planner.expr;

  (* 6. Execute it against the live site and count network accesses. *)
  let http = Websim.Http.connect uni.site in
  let source = Eval.live_source schema http in
  let result =
    Planner.rename_output outcome (Eval.eval schema source outcome.Planner.best.Planner.expr)
  in
  Fmt.pr "@.%a@.@." Adm.Relation.pp result;
  Fmt.pr "Network: %a@." Websim.Http.pp_stats (Websim.Http.stats http)
