(* Fetch-order pins for every page-fetch shape the executor runs:
   entry scans, follow chains, all-constant form calls and call
   chains. Each case plans a query, runs the best plan (in full and
   under LIMIT 1) over a source that records every prefetch window
   and every fetch, and prints the record beside the physical plan
   annotated with the executor's metrics. dune diffs the text against
   exec_trace.expected, so any drift in fetch order, windows,
   per-operator counters or operator labels fails `dune runtest`.
   Accept a change (`dune promote`) only from code whose fetch
   behaviour is known to be right. *)

open Webviews

(* A source that logs each prefetch window and fetch, in call order. *)
let recording log (s : Eval.source) : Eval.source =
  {
    s with
    Eval.fetch =
      (fun ~scheme ~url ->
        Buffer.add_string log (Printf.sprintf "fetch %s %s\n" scheme url);
        s.Eval.fetch ~scheme ~url);
    prefetch =
      (fun ~scheme urls ->
        Buffer.add_string log
          (Printf.sprintf "prefetch %s [%s]\n" scheme (String.concat " " urls));
        s.Eval.prefetch ~scheme urls);
  }

(* One run of a case's best plan over a fresh connection. *)
let run_block ~name ~sql ?limit (site : Sitegen.Sites.t) stats
    (o : Planner.outcome) =
  let http = Websim.Http.connect site.site in
  let log = Buffer.create 1024 in
  let source = recording log (Eval.live_source site.schema http) in
  let plan = Exec.lower site.schema source o.Planner.best.Planner.expr in
  let rel, m = Exec.run_metrics ?limit site.schema source plan in
  let estimates = Cost.estimates site.schema stats plan in
  let s = Websim.Http.stats http in
  String.concat ""
    [
      Printf.sprintf "case %s%s\n" name
        (match limit with Some l -> Printf.sprintf " limit %d" l | None -> "");
      Printf.sprintf "sql %s\n" sql;
      Buffer.contents log;
      Fmt.str "%a@." (Explain.pp_physical ~estimates ~metrics:m ()) plan;
      Printf.sprintf
        "rows %d gets %d heads %d bytes %d state_rows %d peak_queue_rows %d \
         max_batch_rows %d exhausted %b\n\n"
        (Adm.Relation.cardinality rel) s.Websim.Http.gets s.Websim.Http.heads
        s.Websim.Http.bytes m.Exec.state_rows m.Exec.peak_queue_rows
        m.Exec.max_batch_rows m.Exec.exhausted;
    ]

let case_blocks (name, site, sql) ?bindings () =
  let (site : Sitegen.Sites.t) = Lazy.force site in
  let stats = Sitegen.Sites.stats site in
  let o = Planner.plan_sql ?bindings site.schema stats site.registry sql in
  run_block ~name ~sql site stats o ^ run_block ~name ~sql ~limit:1 site stats o

let formsite = lazy (Sitegen.Sites.of_formsite (Sitegen.Formsite.build ()))

let () =
  let uni = List.map (fun case -> case_blocks case ()) Pins.cases in
  let forms =
    List.mapi
      (fun i sql ->
        case_blocks
          (Printf.sprintf "formsite/%d" i, formsite, sql)
          ?bindings:(Sitegen.Sites.bindings (Lazy.force formsite))
          ())
      Server.Workload.formsite_templates
  in
  let others =
    [
      case_blocks
        ( "catalog/audio",
          lazy (Sitegen.Sites.load Catalog),
          "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'" )
        ();
      case_blocks
        ( "bibliography/editions",
          lazy (Sitegen.Sites.load Bibliography),
          "SELECT e.CName, e.Year FROM EditionPage e" )
        ();
    ]
  in
  print_string (String.concat "" (uni @ forms @ others))
