(* Fetch-order pins for every page-fetch shape the executor runs:
   entry scans, follow chains, all-constant form calls and call
   chains. Each case plans a query, runs the best plan (in full and
   under LIMIT 1) over a source that records every prefetch window
   and every fetch, and prints the record beside the physical plan
   annotated with the executor's metrics. The text is pinned in
   exec_trace.expected; any drift in fetch order, windows, per-operator
   counters or operator labels fails the test. On a mismatch the
   current text is written to exec_trace.actual beside the test binary.
   Regenerate the expected file only from code whose fetch behaviour
   is known to be right. *)

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
  let plan =
    Cost.lower ~window:source.Eval.window site.schema stats
      o.Planner.best.Planner.expr
  in
  let rel, m = Exec.run_metrics ?limit site.schema source plan in
  let s = Websim.Http.stats http in
  String.concat ""
    [
      Printf.sprintf "case %s%s\n" name
        (match limit with Some l -> Printf.sprintf " limit %d" l | None -> "");
      Printf.sprintf "sql %s\n" sql;
      Buffer.contents log;
      Fmt.str "%a@." (Explain.pp_physical ~metrics:m ()) plan;
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

let trace () =
  let uni =
    List.map (fun case -> case_blocks case ()) Test_planner.pin_cases
  in
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
  String.concat "" (uni @ forms @ others)

let test_trace_pinned () =
  let expected = In_channel.with_open_text "exec_trace.expected" In_channel.input_all in
  let actual = trace () in
  if not (String.equal expected actual) then begin
    Out_channel.with_open_text "exec_trace.actual" (fun oc ->
        Out_channel.output_string oc actual);
    let rec first_diff i = function
      | e :: es, a :: as_ when String.equal e a -> first_diff (i + 1) (es, as_)
      | e :: _, a :: _ -> Printf.sprintf "line %d: expected %S, got %S" i e a
      | [], a :: _ -> Printf.sprintf "line %d: unexpected %S" i a
      | e :: _, [] -> Printf.sprintf "line %d: missing %S" i e
      | [], [] -> "no line differs"
    in
    Alcotest.failf "exec trace diverged from exec_trace.expected (%s)"
      (first_diff 1
         (String.split_on_char '\n' expected, String.split_on_char '\n' actual))
  end

let suite =
  ( "exec_trace",
    [ Alcotest.test_case "fetch trace matches exec_trace.expected" `Slow
        test_trace_pinned ] )
