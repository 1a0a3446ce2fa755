(* Querying a product catalog: the same optimizer on a different site
   family. Every product is reachable both through its category and
   through its brand (an equivalence, not a mere inclusion), so the
   optimizer picks whichever side the selections make cheaper — and a
   price-range predicate exercises non-equality selections.

   Run with:  dune exec examples/catalog_shopping.exe *)

open Webviews

let () =
  let cat = Sitegen.Catalog.build () in
  let { Sitegen.Sites.schema; registry; site; _ } as catalog = Sitegen.Sites.of_catalog cat in
  Fmt.pr "Catalog: %d pages, %d products, %d categories, %d brands.@.@."
    (Websim.Site.page_count site)
    (List.length (Sitegen.Catalog.products cat))
    (List.length (Sitegen.Catalog.categories cat))
    (List.length (Sitegen.Catalog.brands cat));

  let http = Websim.Http.connect site in
  let stats = Sitegen.Sites.stats catalog in

  let run sql =
    Fmt.pr "Query: %s@." sql;
    Websim.Http.reset_stats http;
    let source = Eval.live_source schema http in
    let outcome, result = Planner.run schema stats registry source sql in
    Fmt.pr "plan (cost %.1f, %d candidates):@.%a@.@." outcome.Planner.best.Planner.cost
      (List.length outcome.Planner.candidates)
      Nalg.pp_plan outcome.Planner.best.Planner.expr;
    Fmt.pr "%a@.network: %a@.@." Adm.Relation.pp result Websim.Http.pp_stats
      (Websim.Http.stats http)
  in

  (* Selection on the brand: the optimizer should enter through the
     brand list, not download every category. *)
  run "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50";

  (* Selection on the category: the symmetric choice. *)
  run "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND p.Price >= 400";

  (* No selective attribute: both navigations cost the same (the two
     paths are equivalent); the optimizer just picks one. *)
  run "SELECT p.PName FROM Product p WHERE p.Price > 495"
