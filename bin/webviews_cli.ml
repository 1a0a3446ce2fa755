(* Command-line interface: explore the generated sites, plan and run
   SQL queries over their relational views, and exercise materialized
   views.

     webviews scheme   [--site ...]
     webviews crawl    [--site ...]
     webviews plan     [--site ...] [--candidates N] "SELECT ..."
     webviews explain  [--site ...] [--physical] [--window N] "SELECT ..."
     webviews query    [--site ...] [--views] [--faults R] [--latency] [--window N]
                       [--retries N] [--limit N] "SELECT ..."
     webviews serve    [--site ...] [--workload FILE | --queries N]
                       [--concurrency K] [--quantum N] [--policy rr|priority]
                       [--deadline MS] [--stale] [--faults R] [--latency] [--json]
     webviews churn    [--site ...] [--churn-rate R] [--budget U] [--max-age N]
                       [--maintenance incremental|full-refresh|none]
                       [--queries N] [--json] [--fail-on-violation]
     webviews matview  [--site ...] "SELECT ..."
     webviews check    [--site ...] [--views] [--json] [--strict]
                       ["SELECT ..." ...]

   webviews --version prints the release. The planner searches the
   whole plan space of a query; no option bounds it. *)

open Cmdliner
open Webviews

module Sites = Sitegen.Sites

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let site_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sites.of_name s) in
  Arg.conv (parse, fun ppf k -> Fmt.string ppf (Sites.name k))

let site_arg =
  Arg.(value & opt site_conv Sites.University & info [ "s"; "site" ] ~docv:"SITE"
         ~doc:"Generated site to use: $(b,university), $(b,bibliography), \
               $(b,catalog), or $(b,formsite) (form-only: every data page \
               behind a parameterized entry point, answered through the \
               binding-pattern rewriting search).")

(* Counts and sizes: an integer of at least [min] — a site the
   generators can build has one department and one professor (courses
   draw both), a scheduler one lane. A bad value is a usage error
   (exit 124) naming its flag. *)
let size_conv ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected an integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Fmt.int)

(* A probability, in [0, 1]. *)
let rate_conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | _ -> Error (`Msg (Fmt.str "expected a rate between 0 and 1, got %S" s))
  in
  Arg.conv (parse, Fmt.float)

(* A non-negative, finite amount: a rate, a budget or a deadline. *)
let amount_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x >= 0.0 -> Ok x
    | _ -> Error (`Msg (Fmt.str "expected a non-negative finite number, got %S" s))
  in
  Arg.conv (parse, Fmt.float)

let depts_arg =
  Arg.(value & opt (size_conv ~min:1) 3 & info [ "depts" ] ~docv:"N"
         ~doc:"Number of departments (at least 1).")

let profs_arg =
  Arg.(value & opt (size_conv ~min:1) 20 & info [ "profs" ] ~docv:"N"
         ~doc:"Number of professors (at least 1).")

let courses_arg =
  Arg.(value & opt (size_conv ~min:0) 50 & info [ "courses" ] ~docv:"N"
         ~doc:"Number of courses.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let views_arg =
  Arg.(value & flag & info [ "views" ]
         ~doc:"Materialize the site's registered views first and offer them \
               to the planner as cost-priced access paths (HEAD=1 vs GET=10 \
               light-connection economics); a chosen substitution is \
               reported with its residual predicate and HEAD/GET split.")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

(* The simulated network and the fetch engine over it. *)

let faults_arg =
  Arg.(value & opt rate_conv 0.0 & info [ "faults" ] ~docv:"RATE"
         ~doc:"Transient-failure probability per URL (0.0–1.0) of the \
               simulated network; failures are retried with backoff.")

let latency_arg =
  Arg.(value & flag & info [ "latency" ]
         ~doc:"Simulate per-request latency even with no faults, so the \
               elapsed-time report is meaningful.")

let window_arg =
  Arg.(value & opt (size_conv ~min:1) 8 & info [ "window" ] ~docv:"N"
         ~doc:"In-flight width of a navigation's fetch batch (the streaming \
               executor's prefetch window); 1 fetches sequentially.")

let retries_arg =
  Arg.(value & opt (size_conv ~min:0) 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Extra attempts after a failed exchange.")

let net_seed_arg =
  Arg.(value & opt int 42 & info [ "net-seed" ] ~docv:"SEED"
         ~doc:"Seed of the network model; every fault and latency draw \
               replays deterministically from it.")

(* A network model only when something is simulated: the perfect
   transport otherwise. *)
let netmodel ~faults ~latency ~net_seed =
  if faults > 0.0 || latency then
    Some (Websim.Netmodel.create (Websim.Netmodel.config ~seed:net_seed ~fault_rate:faults ()))
  else None

let with_site f site depts profs courses seed =
  f (Sites.load ~size:{ Sites.depts; profs; courses; seed } site)

(* The static lint gate of the commands that plan a query: a query
   with an error-severity finding (syntax E0308, unknown relation,
   alias or attribute E0301-E0304, a form-only query no composition
   of forms answers E0111, ...) is reported as coded diagnostics and
   exits 2 before planning, instead of escaping as an exception. *)
let fail_gate ds =
  List.iter (fun d -> Fmt.epr "%a@." Diagnostic.pp d) (List.sort Diagnostic.compare ds);
  exit 2

let lint_gate loaded sql =
  let ds = Sites.lint_query loaded sql in
  if Diagnostic.has_errors ds then fail_gate ds

(* An empty plan space the gate did not foresee is still a coded
   diagnostic (E0309, as in [check]) with exit 2. *)
let or_e0309 plan =
  match plan () with
  | planned -> planned
  | exception Invalid_argument msg ->
    fail_gate [ Diagnostic.error ~code:"E0309" "planning failed: %s" msg ]

let plan_query ?views (loaded : Sites.t) stats sql =
  or_e0309 (fun () ->
      Planner.plan_sql ?views ?bindings:(Sites.bindings loaded) loaded.schema
        stats loaded.registry sql)

(* A workload file passes the same gate line by line: each error is
   printed after its file and line number, then the command exits 2. *)
let load_workload (loaded : Sites.t) path =
  let numbered = Server.Workload.load path in
  let errors =
    List.concat_map
      (fun (line, (e : Server.Workload.entry)) ->
        List.map (fun d -> (line, d))
          (Diagnostic.errors (Sites.lint_query loaded e.Server.Workload.sql)))
      numbered
  in
  if errors <> [] then begin
    List.iter (fun (line, d) -> Fmt.epr "%s:%d: %a@." path line Diagnostic.pp d) errors;
    exit 2
  end;
  List.map snd numbered

let site_args f =
  Term.(const (with_site f) $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let scheme_cmd =
  let run (loaded : Sites.t) = Fmt.pr "%a@." Adm.Schema.pp loaded.schema in
  Cmd.v (Cmd.info "scheme" ~doc:"Print the ADM web scheme of a site.") (site_args run)

let crawl_cmd =
  let run (loaded : Sites.t) =
    let http = Websim.Http.connect loaded.site in
    let instance = Websim.Crawler.crawl loaded.schema http in
    Fmt.pr "crawled %d pages (%a)@.@." instance.Websim.Crawler.fetched
      Websim.Http.pp_stats (Websim.Http.stats http);
    List.iter
      (fun (name, rel) -> Fmt.pr "  %-18s %4d pages@." name (Adm.Relation.cardinality rel))
      instance.Websim.Crawler.relations;
    (match Websim.Crawler.validate loaded.schema instance with
    | [] -> Fmt.pr "@.all link and inclusion constraints hold@."
    | errs ->
      Fmt.pr "@.%d constraint violations:@." (List.length errs);
      List.iter (Fmt.pr "  %s@.") errs);
    Fmt.pr "@.%a@." Stats.pp (Stats.of_instance instance)
  in
  Cmd.v
    (Cmd.info "crawl" ~doc:"Crawl a site, validate its constraints, print statistics.")
    (site_args run)

let plan_cmd =
  let run n dot sql (loaded : Sites.t) =
    lint_gate loaded sql;
    let stats = Sites.stats loaded in
    let outcome = plan_query loaded stats sql in
    if dot then Fmt.pr "%s@." (Explain.to_dot outcome.Planner.best.Planner.expr)
    else begin
      Fmt.pr "%a@." Explain.pp_outcome outcome;
      List.iter
        (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
        outcome.Planner.diagnostics;
      List.iteri
        (fun i (p : Planner.plan) ->
          if i < n then
            Fmt.pr "@.--- candidate #%d, cost %.2f ---@.%a@." (i + 1) p.Planner.cost
              (Explain.pp_annotated loaded.schema stats)
              p.Planner.expr)
        outcome.Planner.candidates
    end
  in
  let n_arg =
    Arg.(value & opt (size_conv ~min:0) 3 & info [ "candidates" ] ~docv:"N"
           ~doc:"How many candidate plans to display.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Emit the best plan as a Graphviz digraph instead of text.")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show the optimizer's candidate navigation plans for a query.")
    Term.(const (fun site depts profs courses seed n dot sql ->
              with_site (run n dot sql) site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ n_arg
          $ dot_arg $ sql_arg)

let explain_cmd =
  let run physical window use_views sql (loaded : Sites.t) =
    lint_gate loaded sql;
    let stats = Sites.stats loaded in
    let vs = if use_views then Some (Sites.viewstore loaded) else None in
    let econ = Option.map Viewstore.econ vs in
    let outcome =
      plan_query ?views:(Option.map Viewstore.context vs) loaded stats sql
    in
    let best = outcome.Planner.best.Planner.expr in
    Fmt.pr "%a@.@." Explain.pp_outcome outcome;
    if physical then begin
      (* lower and execute over the live site exactly as [query] does,
         so the tree shows estimated vs actual rows and page accesses
         side by side *)
      let http = Websim.Http.connect loaded.site in
      let config = Websim.Fetcher.config ~window () in
      let fetcher = Websim.Fetcher.create ~config http in
      let source =
        { (Eval.fetcher_source loaded.schema fetcher) with
          views = Option.map Viewstore.answerer vs }
      in
      let plan = Exec.lower loaded.schema source best in
      List.iter
        (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
        (Typecheck.check_plan loaded.schema ~parent:best plan);
      let _result, metrics = Exec.run_metrics loaded.schema source plan in
      let estimates = Cost.estimates ?views:econ loaded.schema stats plan in
      Fmt.pr "%a@." (Explain.pp_physical ~estimates ~metrics ()) plan
    end
    else Fmt.pr "%a@." (Explain.pp_annotated ?views:econ loaded.schema stats) best
  in
  let physical_arg =
    Arg.(value & flag & info [ "physical" ]
           ~doc:"Lower the best plan to physical operators, execute it, and \
                 print the physical tree with estimated vs actual rows and \
                 page accesses per operator. The plan is lowered and run \
                 exactly as $(b,query) runs it.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain the optimizer's chosen plan: the annotated logical tree by \
          default, or with $(b,--physical) the lowered physical operator tree \
          (fused filters, hash joins, streaming navigations) with \
          per-operator estimated vs actual counters. With $(b,--views) \
          registered views compete as access paths and any substitution in \
          the winning plan is reported.")
    Term.(const (fun site depts profs courses seed physical window use_views sql ->
              with_site (run physical window use_views sql) site depts profs
                courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ physical_arg $ window_arg $ views_arg $ sql_arg)

let query_cmd =
  let run use_views faults latency window retries net_seed limit sql
      (loaded : Sites.t) =
    lint_gate loaded sql;
    let stats = Sites.stats loaded in
    let vs = if use_views then Some (Sites.viewstore loaded) else None in
    let outcome =
      plan_query ?views:(Option.map Viewstore.context vs) loaded stats sql
    in
    let best = outcome.Planner.best.Planner.expr in
    let fetcher =
      Websim.Fetcher.create
        ~config:(Websim.Fetcher.config ~window ~retries ())
        ?netmodel:(netmodel ~faults ~latency ~net_seed)
        (Websim.Http.connect loaded.site)
    in
    let source =
      { (Eval.fetcher_source loaded.schema fetcher) with
        views = Option.map Viewstore.answerer vs }
    in
    let result = Eval.eval ?limit loaded.schema source best in
    Fmt.pr "%a@." Explain.pp_outcome outcome;
    Fmt.pr "plan (cost %.2f, predicted %.0f ms at window %d):@.%a@.@."
      outcome.Planner.best.Planner.cost
      (Cost.elapsed_estimate ?views:(Option.map Viewstore.econ vs) ~window
         loaded.schema stats best)
      window Nalg.pp_plan best;
    Fmt.pr "%a@.@." Adm.Relation.pp (Planner.rename_output outcome result);
    Fmt.pr "%a@." Explain.pp_fetch_report
      { Eval.result; fetch = Websim.Fetcher.report fetcher };
    Option.iter
      (fun vs ->
        let store_http = Matview.fetcher (Viewstore.store vs) |> Websim.Fetcher.http in
        Fmt.pr "view store: %a@." Websim.Http.pp_stats (Websim.Http.stats store_http))
      vs
  in
  let limit_arg =
    Arg.(value & opt (some (size_conv ~min:0)) None & info [ "limit" ] ~docv:"N"
           ~doc:"Stop after N result rows: the streaming executor's \
                 early-exit protocol stops fetching pages the truncated \
                 answer does not need.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Plan and execute a SQL query over the site's relational view \
          through the resilient fetch engine: batched fetch windows, retries \
          with backoff, circuit breaker and page cache, optionally over a \
          simulated faulty network. Reports the plan with its predicted \
          elapsed time, the rows, both cost ledgers (page accesses and \
          fetch-engine counters) and the simulated elapsed time. With \
          $(b,--views) the registered views are materialized first and \
          compete as access paths; a chosen view scan answers from the local \
          store after bounded HEAD revalidation.")
    Term.(const (fun site depts profs courses seed use_views faults latency
                     window retries net_seed limit sql ->
              with_site
                (run use_views faults latency window retries net_seed limit sql)
                site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ views_arg $ faults_arg $ latency_arg $ window_arg $ retries_arg
          $ net_seed_arg $ limit_arg $ sql_arg)

let matview_cmd =
  let run sql (loaded : Sites.t) =
    if Option.is_some loaded.binding_config then begin
      (* materialization crawls; a form-only site has nothing to crawl *)
      Fmt.epr "this site cannot be crawled (form-only); use query instead@.";
      exit 2
    end;
    lint_gate loaded sql;
    let stats = Sites.stats loaded in
    let http = Websim.Http.connect loaded.site in
    let mv = Matview.materialize loaded.schema http in
    Fmt.pr "materialized %d pages@.@." (Matview.total_pages mv);
    let outcome = plan_query loaded stats sql in
    let report = Matview.query_counted mv outcome.Planner.best.Planner.expr in
    Fmt.pr "%a@.@." Adm.Relation.pp
      (Planner.rename_output outcome report.Matview.result);
    Fmt.pr "light connections: %d, downloads: %d, local hits: %d@."
      report.Matview.light_connections report.Matview.downloads
      report.Matview.local_hits
  in
  Cmd.v
    (Cmd.info "matview" ~doc:"Materialize the site and answer a query from the local view.")
    Term.(const (fun site depts profs courses seed sql ->
              with_site (run sql) site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ sql_arg)

let navigations_cmd =
  let run (loaded : Sites.t) =
    List.iter
      (fun ps ->
        let name = Adm.Page_scheme.name ps in
        match View.infer_navigations loaded.schema ~scheme:name with
        | [] -> ()
        | navs ->
          Fmt.pr "@.%s:@." name;
          List.iter (fun nav -> Fmt.pr "  %a@." Nalg.pp nav) navs)
      (Adm.Schema.schemes loaded.schema)
  in
  Cmd.v
    (Cmd.info "navigations"
       ~doc:
         "Infer default navigations for every page-scheme from the web scheme's \
          entry points and inclusion constraints (the paper's Section 5 \
          suggestion).")
    (site_args run)

let discover_cmd =
  let run (loaded : Sites.t) =
    let audit = Discover.audit loaded.schema (Sites.crawl loaded) in
    let section title (items : string list) =
      Fmt.pr "@.%s (%d):@." title (List.length items);
      List.iter (Fmt.pr "  %s@.") items
    in
    let links = List.map (Fmt.str "%a" Adm.Constraints.pp_link_constraint) in
    let incls = List.map (Fmt.str "%a" Adm.Constraints.pp_inclusion) in
    section "confirmed link constraints" (links audit.Discover.confirmed_links);
    section "refuted link constraints" (links audit.Discover.refuted_links);
    section "candidate link constraints (hold but undeclared)"
      (links audit.Discover.candidate_links);
    section "confirmed inclusions" (incls audit.Discover.confirmed_inclusions);
    section "refuted inclusions" (incls audit.Discover.refuted_inclusions);
    section "candidate inclusions (hold but undeclared)"
      (incls audit.Discover.candidate_inclusions)
  in
  Cmd.v
    (Cmd.info "discover"
       ~doc:
         "Mine link and inclusion constraints from a crawl of the site and audit \
          them against the declared scheme (the reverse-engineering step the \
          paper assigns to WebSQL-style exploration).")
    (site_args run)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_diag (d : Diagnostic.t) =
  Fmt.str "{\"code\":\"%s\",\"severity\":\"%a\",\"message\":\"%s\"}"
    (json_escape d.Diagnostic.code) Diagnostic.pp_severity d.Diagnostic.severity
    (json_escape d.Diagnostic.message)

let json_of_diags ds = "[" ^ String.concat "," (List.map json_of_diag ds) ^ "]"

(* ------------------------------------------------------------------ *)
(* check: the static and semantic analyzer                             *)
(* ------------------------------------------------------------------ *)

(* What [check] finds for one query. A query the lint rejects is
   neither minimized nor planned. *)
type query_report = {
  sql : string;
  occurrences : string list;  (** the relations its FROM names *)
  minimized : (Conjunctive.t * int * int) option;
      (** the minimized query, sources before and after *)
  planned : Planner.outcome option;  (** [None]: not planned, or E0309 *)
  diagnostics : Diagnostic.t list;
}

let check_query ?views (loaded : Sites.t) sql =
  let lint = Typecheck.lint_sql loaded.schema loaded.registry sql in
  if Diagnostic.has_errors lint then
    { sql; occurrences = []; minimized = None; planned = None;
      diagnostics = Diagnostic.dedup lint }
  else
    let q = Sql_parser.parse loaded.registry sql in
    let q_min, semantic = Contain.analyze_query loaded.registry q in
    let planned, planner =
      match
        Planner.plan_sql ?views ?bindings:(Sites.bindings loaded) loaded.schema
          (Sites.stats loaded) loaded.registry sql
      with
      | outcome -> (Some outcome, outcome.Planner.diagnostics)
      | exception Invalid_argument msg ->
        (None, [ Diagnostic.error ~code:"E0309" "planning failed: %s" msg ])
    in
    {
      sql;
      occurrences = List.map (fun (s : Conjunctive.source) -> s.Conjunctive.rel) q.Conjunctive.from;
      minimized =
        Some (q_min, List.length q.Conjunctive.from, List.length q_min.Conjunctive.from);
      planned;
      diagnostics =
        Diagnostic.dedup (lint @ semantic @ Sites.binding_lint loaded q @ planner);
    }

let json_of_query_report r =
  let minimized =
    match r.minimized with
    | None -> ""
    | Some (q_min, before, after) ->
      Fmt.str ",\"minimized\":\"%s\",\"sources_before\":%d,\"sources_after\":%d"
        (json_escape (Fmt.str "%a" Conjunctive.pp q_min))
        before after
  in
  let plan_part =
    match r.planned with
    | None -> ""
    | Some (o : Planner.outcome) ->
      let subs =
        List.map
          (fun (s : Planner.substitution) ->
            Fmt.str
              "{\"view\":\"%s\",\"occurrence\":\"%s\",\"residual\":\"%s\",\
               \"heads\":%.1f,\"gets\":%.1f}"
              (json_escape s.Planner.sub_view)
              (json_escape s.Planner.sub_alias)
              (json_escape (Pred.to_string s.Planner.sub_residual))
              s.Planner.sub_heads s.Planner.sub_gets)
          o.Planner.view_used
      in
      Fmt.str
        ",\"candidates\":%d,\"best_cost\":%.2f,\"substitutions\":[%s]"
        (List.length o.Planner.candidates)
        o.Planner.best.Planner.cost
        (String.concat "," subs)
  in
  Fmt.str "{\"sql\":\"%s\"%s%s,\"diagnostics\":%s}" (json_escape r.sql) minimized
    plan_part (json_of_diags r.diagnostics)

let pp_query_report ppf r =
  Fmt.pf ppf "@.query %S:@." r.sql;
  (match r.minimized with
  | Some (q_min, before, after) when after < before ->
    Fmt.pf ppf "  minimized (%d -> %d sources): %a@." before after Conjunctive.pp q_min
  | _ -> ());
  Option.iter
    (fun (o : Planner.outcome) ->
      Fmt.pf ppf "  %d candidate plan(s), best cost %.2f@."
        (List.length o.Planner.candidates)
        o.Planner.best.Planner.cost;
      List.iter
        (fun (s : Planner.substitution) ->
          Fmt.pf ppf "  occurrence %s answered from view %s (≈%.1f HEAD, ≈%.1f GET)@."
            s.Planner.sub_alias s.Planner.sub_view s.Planner.sub_heads s.Planner.sub_gets)
        o.Planner.view_used)
    r.planned;
  match r.diagnostics with
  | [] -> Fmt.pf ppf "  ok@."
  | ds ->
    List.iter (fun d -> Fmt.pf ppf "  %a@." Diagnostic.pp d) (List.sort Diagnostic.compare ds)

let check_cmd =
  let run strict json use_views sqls (loaded : Sites.t) =
    let schema_diags = Diagnostic.dedup (Typecheck.lint_schema loaded.schema) in
    let index = Viewmatch.make loaded.registry in
    let registry_diags =
      Diagnostic.dedup
        (Typecheck.lint_registry loaded.schema loaded.registry
        @ Viewmatch.registry_lint index)
    in
    let views = if use_views then Some (Viewstore.context (Sites.viewstore loaded)) else None in
    let reports = List.map (check_query ?views loaded) sqls in
    (* dead-view lint: registered views no workload occurrence can
       ever use — not named, and sharing no filter-tree bucket with
       any named occurrence *)
    let workload_diags =
      List.concat_map (fun r -> r.occurrences) reports
      |> List.sort_uniq String.compare
      |> List.filter_map (View.find loaded.registry)
      |> Viewmatch.workload_lint index
    in
    let all =
      schema_diags @ registry_diags @ workload_diags
      @ List.concat_map (fun r -> r.diagnostics) reports
    in
    if json then
      Fmt.pr
        "{\"schema_diagnostics\":%s,\"views\":%d,\"view_buckets\":%d,\
         \"registry_diagnostics\":%s,\"workload_diagnostics\":%s,\"queries\":[%s],\
         \"errors\":%d,\"warnings\":%d}@."
        (json_of_diags schema_diags) (Viewmatch.size index) (Viewmatch.buckets index)
        (json_of_diags registry_diags) (json_of_diags workload_diags)
        (String.concat "," (List.map json_of_query_report reports))
        (List.length (Diagnostic.errors all))
        (List.length (Diagnostic.warnings all))
    else begin
      let section title = function
        | [] -> Fmt.pr "%s: ok@." title
        | ds ->
          Fmt.pr "%s:@." title;
          List.iter
            (fun d -> Fmt.pr "  %a@." Diagnostic.pp d)
            (List.sort Diagnostic.compare ds)
      in
      section "schema" schema_diags;
      section
        (Fmt.str "view registry (%d views in %d filter-tree buckets)"
           (Viewmatch.size index) (Viewmatch.buckets index))
        registry_diags;
      section "workload" workload_diags;
      List.iter (Fmt.pr "%a" pp_query_report) reports;
      Fmt.pr "@.%s@." (Diagnostic.summary all)
    end;
    exit (Diagnostic.exit_code ~strict all)
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Exit 1 when only warning-severity diagnostics are reported \
                 (errors always exit 2).")
  in
  let sqls_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"SQL" ~doc:"Queries to check.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the static and semantic analyzer: lint the site's web scheme \
          and view registry (including view subsumption via the filter-tree \
          index), the dead-view lint against the given workload \
          ($(b,W0606): views no query can ever use), then per query the \
          query lint, satisfiability ($(b,E0601)), redundant-occurrence \
          minimization ($(b,W0602)), trivial answerability ($(b,W0604)), \
          binding-pattern violations on form-only sites ($(b,E0111): the \
          vocabulary covers the query but no executable composition of \
          parameterized entry points answers it), and planning with the \
          rewrite-soundness check live ($(b,E0309) when no plan exists), \
          reporting the planner's equivalence-keyed candidate \
          deduplication. With $(b,--views) registered views compete as \
          access paths and chosen substitutions are reported (JSON: \
          per-query $(b,substitutions)). Exits 2 on any error, 1 with \
          $(b,--strict) when only warnings remain, else 0.")
    Term.(const (fun site depts profs courses seed strict json use_views sqls ->
              with_site (run strict json use_views sqls) site depts profs courses
                seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ strict_arg $ json_arg $ views_arg $ sqls_arg)

(* ------------------------------------------------------------------ *)
(* churn: the live-churn runtime (mutations + maintenance + SLAs)      *)
(* ------------------------------------------------------------------ *)

let json_of_freshness = function
  | None -> "null"
  | Some (f : Server.Sched.freshness) ->
    Fmt.str
      "{\"verdict\":\"%s\",\"pages_served\":%d,\"stale_served\":%d,\
       \"mean_staleness\":%.3f,\"max_staleness\":%d,\"checks_denied\":%d,\
       \"pages_missing\":%d}"
      (Server.Sched.verdict_to_string f.Server.Sched.verdict)
      f.Server.Sched.pages_served f.Server.Sched.stale_served
      f.Server.Sched.mean_staleness f.Server.Sched.max_staleness
      f.Server.Sched.checks_denied f.Server.Sched.pages_missing

let json_of_result (r : Server.Sched.result) =
  Fmt.str
    "{\"qid\":%d,\"label\":\"%s\",\"rows\":%d,\"complete\":%b,\
     \"stale_pages\":%d,\"missing_pages\":%d,\"elapsed_ms\":%.3f,\
     \"freshness\":%s}"
    r.Server.Sched.qid
    (json_escape r.Server.Sched.label)
    (Adm.Relation.cardinality r.Server.Sched.rows)
    r.Server.Sched.completeness.Server.Sched.complete
    r.Server.Sched.completeness.Server.Sched.stale_pages
    r.Server.Sched.completeness.Server.Sched.missing_pages
    r.Server.Sched.elapsed_ms
    (json_of_freshness r.Server.Sched.freshness)

let json_of_sched_report (r : Server.Sched.report) =
  Fmt.str
    "{\"makespan_ms\":%.3f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"domains\":%d,\
     \"turns\":%d,\"queries\":[%s]}"
    r.Server.Sched.makespan_ms r.Server.Sched.p50_ms r.Server.Sched.p95_ms
    r.Server.Sched.domains r.Server.Sched.turns
    (String.concat "," (List.map json_of_result r.Server.Sched.results))

let json_of_churn_report (r : Churn.Runtime.report) =
  let m = r.Churn.Runtime.maintenance in
  Fmt.str
    "{\"policy\":\"%s\",\"ticks\":%d,\"mutations\":%d,\
     \"mutations_by_kind\":{%s},\
     \"maintenance\":{\"slices\":%d,\"heads\":%d,\"gets_refreshed\":%d,\
     \"validated\":%d,\"gone\":%d,\"purged\":%d,\"swept\":%d,\"denied\":%d},\
     \"full_refreshes\":%d,\"budget_spent\":%.1f,\"budget_denied\":%d,\
     \"verdicts\":{%s},\"violations\":%d,\
     \"mean_staleness\":%.4f,\"p95_staleness\":%.2f,\"store_pages\":%d,\
     \"wire\":{\"gets\":%d,\"heads\":%d,\"bytes\":%d,\"head_bytes\":%d},\
     \"sched\":%s}"
    (Churn.Runtime.policy_to_string r.Churn.Runtime.policy)
    r.Churn.Runtime.ticks r.Churn.Runtime.mutations_total
    (String.concat ","
       (List.map
          (fun (k, n) ->
            Fmt.str "\"%s\":%d" (Churn.Traffic.kind_to_string k) n)
          r.Churn.Runtime.mutations))
    m.Churn.Maintain.slices m.Churn.Maintain.heads m.Churn.Maintain.gets_refreshed
    m.Churn.Maintain.validated m.Churn.Maintain.gone m.Churn.Maintain.purged
    m.Churn.Maintain.swept m.Churn.Maintain.denied
    r.Churn.Runtime.full_refreshes r.Churn.Runtime.budget_spent
    r.Churn.Runtime.budget_denied
    (String.concat ","
       (List.map (fun (v, n) -> Fmt.str "\"%s\":%d" v n) r.Churn.Runtime.verdicts))
    r.Churn.Runtime.violations r.Churn.Runtime.mean_staleness
    r.Churn.Runtime.p95_staleness r.Churn.Runtime.store_pages
    r.Churn.Runtime.wire.Websim.Fetcher.gets r.Churn.Runtime.wire.Websim.Fetcher.heads
    r.Churn.Runtime.wire.Websim.Fetcher.bytes
    r.Churn.Runtime.wire.Websim.Fetcher.head_bytes
    (json_of_sched_report r.Churn.Runtime.sched)

let templates_for = function
  | Sites.University -> Server.Workload.university_templates
  | Bibliography -> Server.Workload.bibliography_templates
  | Catalog -> Server.Workload.catalog_templates
  | Formsite -> Server.Workload.formsite_templates

(* The workload and scheduler options of serve and churn. *)

let workload_arg =
  Arg.(value & opt (some file) None & info [ "workload" ] ~docv:"FILE"
         ~doc:"Workload file: one SQL query per line, blank lines and \
               $(b,#) comments skipped, optional $(b,PRIO|) priority \
               prefix. Without it a seeded workload is generated from the \
               site's template pool.")

let queries_arg default =
  Arg.(value & opt (size_conv ~min:0) default & info [ "queries" ] ~docv:"N"
         ~doc:"Size of the generated workload (ignored with $(b,--workload)).")

let wseed_arg =
  Arg.(value & opt int 7 & info [ "workload-seed" ] ~docv:"SEED"
         ~doc:"Seed of the workload generator.")

let concurrency_arg =
  Arg.(value & opt (size_conv ~min:1) 8 & info [ "concurrency" ] ~docv:"K"
         ~doc:"Resident-query cap (admission control).")

let quantum_arg =
  Arg.(value & opt (size_conv ~min:1) 4 & info [ "quantum" ] ~docv:"N"
         ~doc:"Cursor steps one query runs per scheduler turn.")

let domains_arg =
  Arg.(value & opt (size_conv ~min:1) 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Execution lanes of the modelled multicore server: each \
               quantum's fetch time is charged to the earliest-frontier \
               lane (a query's own chain stays sequential) and makespan \
               is the largest lane frontier. Results are byte-identical \
               at every N; prefetched windows extract in parallel on a \
               pool of N domains.")

let workload_entries (loaded : Sites.t) workload n wseed =
  match workload with
  | Some path -> load_workload loaded path
  | None ->
    Server.Workload.generate ~templates:(templates_for loaded.kind) ~seed:wseed ~n ()

let maintenance_conv =
  let parse s =
    match Churn.Runtime.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Fmt.str "unknown maintenance policy %S (incremental|full-refresh|none)" s))
  in
  let print ppf p = Fmt.string ppf (Churn.Runtime.policy_to_string p) in
  Arg.conv (parse, print)

let churn_cmd =
  let run rate churn_seed budget max_age maintenance no_query_check workload n
      wseed concurrency quantum domains json fail_on_violation (loaded : Sites.t) =
    let entries = workload_entries loaded workload n wseed in
    let pool = if domains > 1 then Some (Server.Pool.create ~domains) else None in
    let cfg =
      Churn.Runtime.config
        ~profile:(Churn.Profile.make ~rate ())
        ~churn_seed
        ~sla:(Churn.Sla.create ~default_max_age:max_age ())
        ~budget_per_turn:budget ~policy:maintenance ~query_check:(not no_query_check) ()
    in
    let stats = Sites.stats loaded in
    let http = Websim.Http.connect loaded.site in
    let sched = Server.Sched.config ~concurrency ~quantum ~domains () in
    let report =
      Churn.Runtime.run ~sched ?pool ?bindings:(Sites.bindings loaded) cfg
        loaded.schema stats loaded.registry http entries
    in
    Option.iter Server.Pool.shutdown pool;
    if json then Fmt.pr "%s@." (json_of_churn_report report)
    else begin
      Fmt.pr "%d queries, concurrency %d, quantum %d, domains %d, churn %.3f/tick@.@."
        (List.length entries) concurrency quantum domains rate;
      Fmt.pr "%a@." Churn.Runtime.pp_report report
    end;
    if fail_on_violation && report.Churn.Runtime.violations > 0 then exit 3
  in
  let rate_arg =
    Arg.(value & opt amount_conv 0.05 & info [ "churn-rate" ] ~docv:"RATE"
           ~doc:"Expected site mutations per simulated clock tick (may be \
                 fractional; the generator carries the remainder \
                 deterministically).")
  in
  let churn_seed_arg =
    Arg.(value & opt int 42 & info [ "churn-seed" ] ~docv:"SEED"
           ~doc:"Seed of the mutation-traffic generator.")
  in
  let budget_arg =
    Arg.(value & opt amount_conv 8.0 & info [ "budget" ] ~docv:"UNITS"
           ~doc:"Wire budget per scheduler turn, in Function 2's cost model \
                 (HEAD = 1 unit, GET = 10).")
  in
  let max_age_arg =
    Arg.(value & opt (size_conv ~min:0) 100 & info [ "max-age" ] ~docv:"TICKS"
           ~doc:"Freshness SLA: the age (site-clock ticks) beyond which a \
                 served stale entry counts as a violation.")
  in
  let maintenance_arg =
    Arg.(value & opt maintenance_conv Churn.Runtime.Incremental
         & info [ "maintenance" ] ~docv:"POLICY"
             ~doc:"View maintenance policy: $(b,incremental) (continuous \
                   HEAD-revalidate / GET-refresh under the budget), \
                   $(b,full-refresh) (recrawl whenever the budget has accrued \
                   one), or $(b,none).")
  in
  let no_query_check_arg =
    Arg.(value & flag & info [ "no-query-check" ]
           ~doc:"Serve stored tuples without query-time freshness checks; \
                 only the maintenance lane keeps the store fresh.")
  in
  let fail_arg =
    Arg.(value & flag & info [ "fail-on-violation" ]
           ~doc:"Exit 3 when any query's freshness SLA was violated \
                 (for CI smoke stages).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run a query workload over a live site: seeded mutation traffic \
          drives the site on the simulated clock while a maintenance lane \
          keeps the materialized store fresh under an explicit wire budget \
          (HEAD-revalidate vs GET-refresh, prioritized by staleness debt and \
          resident-plan relevance). Reports per-query freshness verdicts \
          (fresh / stale-within-SLA / violated) and answer-staleness \
          statistics.")
    Term.(const (fun site depts profs courses seed rate churn_seed budget
                     max_age maintenance no_query_check workload n wseed
                     concurrency quantum domains json fail_on_violation ->
              with_site
                (run rate churn_seed budget max_age maintenance no_query_check
                   workload n wseed concurrency quantum domains json
                   fail_on_violation)
                site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg $ rate_arg
          $ churn_seed_arg $ budget_arg $ max_age_arg $ maintenance_arg
          $ no_query_check_arg $ workload_arg $ queries_arg 24 $ wseed_arg
          $ concurrency_arg $ quantum_arg $ domains_arg $ json_arg $ fail_arg)

let serve_cmd =
  let run workload n wseed concurrency quantum policy deadline faults latency
      window retries net_seed use_stale max_resident domains json (loaded : Sites.t) =
    let entries =
      List.map
        (fun (e : Server.Workload.entry) ->
          match e.Server.Workload.deadline_ms with
          | Some _ -> e
          | None -> { e with Server.Workload.deadline_ms = deadline })
        (workload_entries loaded workload n wseed)
    in
    let stats = Sites.stats loaded in
    let specs =
      or_e0309 (fun () ->
          Server.Sched.plan_workload ?bindings:(Sites.bindings loaded)
            loaded.schema stats loaded.registry entries)
    in
    (* deadlines are measured on the simulated clock, which only
       advances under a netmodel: enable one whenever they matter *)
    let netmodel = netmodel ~faults ~latency:(latency || deadline <> None) ~net_seed in
    let pool = if domains > 1 then Some (Server.Pool.create ~domains) else None in
    let cache =
      Server.Shared_cache.create ?pool
        ~config:(Websim.Fetcher.config ~window ~retries ~cache_capacity:8192 ())
        ?netmodel
        (Websim.Http.connect loaded.site)
    in
    let source_for =
      if use_stale then
        let stale = Matview.materialize loaded.schema (Websim.Http.connect loaded.site) in
        Some
          (fun (spec : Server.Sched.spec) ->
            Some
              (Server.Shared_cache.source ~stale cache ~query:spec.Server.Sched.qid
                 loaded.schema))
      else None
    in
    let config =
      Server.Sched.config ~concurrency ~quantum ~policy
        ~max_resident_rows:max_resident ~domains ()
    in
    let report = Server.Sched.run ?source_for config cache loaded.schema specs in
    Option.iter Server.Pool.shutdown pool;
    if json then Fmt.pr "%s@." (json_of_sched_report report)
    else begin
      Fmt.pr "%d queries, concurrency %d, quantum %d, domains %d@.@."
        (List.length specs) concurrency quantum domains;
      Fmt.pr "%a@." Server.Sched.pp_report report
    end
  in
  let policy_conv =
    let parse = function
      | "rr" | "round-robin" -> Ok Server.Sched.Round_robin
      | "priority" -> Ok Server.Sched.Priority
      | s -> Error (`Msg (Fmt.str "unknown policy %S (rr|priority)" s))
    in
    let print ppf = function
      | Server.Sched.Round_robin -> Fmt.string ppf "rr"
      | Server.Sched.Priority -> Fmt.string ppf "priority"
    in
    Arg.conv (parse, print)
  in
  let policy_arg =
    Arg.(value & opt policy_conv Server.Sched.Round_robin
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Scheduling policy: $(b,rr) or $(b,priority).")
  in
  let deadline_arg =
    Arg.(value & opt (some amount_conv) None & info [ "deadline" ] ~docv:"MS"
           ~doc:"Per-query budget of simulated milliseconds. A query past it \
                 returns its partial rows with a completeness report instead \
                 of failing. Implies a latency model.")
  in
  let stale_arg =
    Arg.(value & flag & info [ "stale" ]
           ~doc:"Materialize the site first and serve stale stored tuples \
                 when a page is unreachable (graceful degradation).")
  in
  let max_resident_arg =
    Arg.(value & opt (size_conv ~min:0) 100_000 & info [ "max-resident" ] ~docv:"ROWS"
           ~doc:"Stop admitting queries while resident ones buffer more \
                 rows than this.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a workload of queries concurrently: a deterministic cooperative \
          scheduler interleaves their cursors in batch-sized quanta over one \
          shared page cache, so overlapping navigations hit the network once. \
          Reports per-query results and completeness, the cross-query \
          coalescing ledger, makespan and fairness percentiles. Serving over \
          a live, mutating site is $(b,churn).")
    Term.(const (fun site depts profs courses seed workload n wseed concurrency
                     quantum policy deadline faults latency window retries
                     net_seed use_stale max_resident domains json ->
              with_site
                (run workload n wseed concurrency quantum policy deadline faults
                   latency window retries net_seed use_stale max_resident domains
                   json)
                site depts profs courses seed)
          $ site_arg $ depts_arg $ profs_arg $ courses_arg $ seed_arg
          $ workload_arg $ queries_arg 8 $ wseed_arg $ concurrency_arg $ quantum_arg
          $ policy_arg $ deadline_arg $ faults_arg $ latency_arg $ window_arg
          $ retries_arg $ net_seed_arg $ stale_arg $ max_resident_arg
          $ domains_arg $ json_arg)

let main_cmd =
  let doc = "Efficient queries over web views (EDBT 1998 reproduction)" in
  Cmd.group (Cmd.info "webviews" ~doc ~version:"0.8.0")
    [
      scheme_cmd; crawl_cmd; plan_cmd; explain_cmd; query_cmd; serve_cmd;
      churn_cmd; matview_cmd; navigations_cmd; discover_cmd; check_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
