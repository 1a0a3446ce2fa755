(* The four workloads of the end-to-end benchmark.

   Each runs in its own process, builds its site from source, measures
   for a given number of seconds and checks every answer against
   {!Oracle}. With tracing off it reports the end-to-end metrics; a
   traced run instead times the calls into each layer's public
   functions (spans from {!Trace}) and reports the per-layer metrics,
   after checking that tracing changed none of the counts.

   The netmodel (seed 42, latency only, no faults) and the churn seed
   (5) are fixed parts of the workloads; the workload seed draws query
   constants and query order.

   The host's speed drifts within a run, so every end-to-end wall time
   is scaled to the reference speed of {!Speed}: one probe precedes
   each closed-loop query, a burst of probes each batch round and each
   set-up. A closed-loop query's latency is the median of its scaled
   passes, a batch query's completion time the median of its scaled
   rounds, and set-up the median of a group of set-ups at the start of
   the run and a group at the end. *)

module W = Webviews
module U = Sitegen.University
module F = Sitegen.Formsite
module S = Server.Sched
module SC = Server.Shared_cache
module FR = Websim.Fetcher

type size = Full | Tiny

type params = {
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
}

(* Where traced runs write trace-WORKLOAD.jsonl. *)
let trace_dir = "_webbench"

(* A measured value: name, value, sample count. Units live in
   {!Report}. *)
type value = string * float * int

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** why the run is not correct, besides [failed] *)
  values : value list;
}

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

let now = Trace.now_ns
let since t0 = now () - t0
let ms ns = float_of_int ns /. 1e6
let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let netmodel () = Websim.Netmodel.create (Websim.Netmodel.config ~seed:42 ~fault_rate:0.0 ())
let engine_config = FR.config ~cache_capacity:8192 ~retries:3 ()
let fresh_fetcher http = FR.create ~config:engine_config ~netmodel:(netmodel ()) http

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Keep the first few problem reports. *)
let note problems msg = if List.length !problems < 10 then problems := msg :: !problems

(* Run [once] at least [least] times (once at tiny size), then again
   while another run, taking as long as the last, would end within the
   run's seconds. Returns the number of runs. *)
let repeat p ~least once =
  let least = match p.size with Full -> least | Tiny -> 1 in
  let started = now () in
  let rec go k last =
    if k >= least && fi (since started + last) /. 1e9 > p.seconds then k
    else
      let t0 = now () in
      once ();
      go (k + 1) (since t0)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Set-up phase times, ns. *)
type phases = { build : int; crawl : int; stats : int }

type setup = { setup_s : float; reps : int; build_ms : float; crawl_ms : float; stats_ms : float }

(* [reps] timed set-ups in a row, a burst of probes before each and
   after the last; the last environment is kept. Each run is the scaled
   set-up seconds and the (unscaled) phases. *)
let setup_group p reps f =
  let reps = match p.size with Full -> reps | Tiny -> 3 in
  let rec go k spans =
    Speed.burst ();
    let t0 = now () in
    let env, (ph : phases) = f () in
    let spans = (t0, now (), ph) :: spans in
    if k + 1 >= reps then (env, spans) else go (k + 1) spans
  in
  let env, spans = go 0 [] in
  Speed.burst ();
  (env, List.map (fun (t0, t1, ph) -> (Speed.factor ~t0 ~t1 *. fi (t1 - t0) /. 1e9, ph)) spans)

(* The start group's environment, and a thunk timing the end group and
   returning the medians over both groups. *)
let set_up p reps f =
  let env, first = setup_group p reps f in
  Gc.full_major ();
  let finish () =
    let _, last = setup_group p reps f in
    let runs = first @ last in
    let med g = Pct.median (List.map g runs) in
    {
      setup_s = med fst;
      reps = List.length runs;
      build_ms = med (fun (_, ph) -> ms ph.build);
      crawl_ms = med (fun (_, ph) -> ms ph.crawl);
      stats_ms = med (fun (_, ph) -> ms ph.stats);
    }
  in
  (env, finish)

let setup_values s =
  [
    ("sitegen.build_ms", s.build_ms, s.reps); ("crawler.crawl_ms", s.crawl_ms, s.reps);
    ("stats.collect_ms", s.stats_ms, s.reps);
  ]

(* A university site, crawled, with its statistics. *)
type uni = {
  u : U.t;
  http : Websim.Http.t;
  ustats : W.Stats.t;
  scheme_of_url : (string, string) Hashtbl.t;
}

let build_university config () =
  let t0 = now () in
  let u = U.build ~config () in
  let t1 = now () in
  let http = Websim.Http.connect (U.site u) in
  let instance = Websim.Crawler.crawl U.schema http in
  let t2 = now () in
  let ustats = W.Stats.of_instance instance in
  let t3 = now () in
  ( { u; http; ustats; scheme_of_url = instance.Websim.Crawler.scheme_of_url },
    { build = t1 - t0; crawl = t2 - t1; stats = t3 - t2 } )

let uni_config ~depts ~profs ~courses ~sessions =
  { U.default_config with U.n_depts = depts; n_profs = profs; n_courses = courses; n_sessions = sessions }

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

(* The end-to-end metrics, in report order. *)
let e2e_values ~setup ~latencies ~throughput ~sim ~gets ~heads ~queries ~attempted ~failed ~heap
    ~stale ~violations =
  let n = List.length latencies and sn = List.length sim in
  [
    ("setup_s", setup.setup_s, setup.reps);
    ("query_p50_ms", S.percentile 0.5 latencies, n);
    ("query_p95_ms", S.percentile 0.95 latencies, n);
    ("throughput_qps", throughput, attempted);
    ("sim_p50_ms", S.percentile 0.5 sim, sn);
    ("sim_p95_ms", S.percentile 0.95 sim, sn);
    ("gets_per_query", ratio gets (fi queries), queries);
    ("heads_per_query", ratio heads (fi queries), queries);
    ("failed_ratio", ratio (fi failed) (fi attempted), attempted);
    ("peak_heap_mb", heap, 1);
    ("stale_mean_ticks", stale, queries);
    ("sla_violations", 1000.0 *. ratio violations (fi queries), queries);
  ]

(* Page source that records every call in a span and remembers the
   distinct pages it served (for the wrapper replay). *)
let traced_source tr ~qid pages (s : W.Eval.source) : W.Eval.source =
  {
    s with
    W.Eval.fetch =
      (fun ~scheme ~url ->
        Trace.span ~qid tr "source.fetch" (fun () ->
            Hashtbl.replace pages url scheme;
            s.W.Eval.fetch ~scheme ~url));
    prefetch =
      (fun ~scheme urls ->
        Trace.span ~qid tr "source.prefetch" (fun () -> s.W.Eval.prefetch ~scheme urls));
  }

(* Wrapper and HTML parser replayed over distinct fetched bodies (at
   most [cap], chosen deterministically). *)
let replay_wrapper ?(cap = 2000) schema site (pages : (string * string) list) =
  let pages = List.filteri (fun i _ -> i < cap) (List.sort compare pages) in
  let stats =
    List.filter_map
      (fun (url, scheme) ->
        match (Websim.Site.find site url, Adm.Schema.find_scheme schema scheme) with
        | Some page, Some ps ->
          let body = page.Websim.Site.body in
          let t0 = now () in
          ignore (Html.parse body);
          let parse = since t0 in
          let a0 = Trace.alloc_words () in
          let t1 = now () in
          ignore (Websim.Wrapper.extract ps ~url body);
          let extract = since t1 in
          Some (fi extract /. 1e3, fi parse /. 1e3, fi (String.length body), Trace.alloc_words () -. a0)
        | _ -> None)
      pages
  in
  let n = List.length stats in
  let avg f = ratio (sum f stats) (fi n) in
  [
    ("wrapper.extract_us_per_page", avg (fun (e, _, _, _) -> e), n);
    ("html.parse_us_per_page", avg (fun (_, p, _, _) -> p), n);
    ("wrapper.bytes_per_page", avg (fun (_, _, b, _) -> b), n);
    ("wrapper.alloc_kwords_per_page", avg (fun (_, _, _, a) -> a /. 1e3), n);
  ]

(* Fetch-engine counters, per query. *)
let fetcher_values n (reports : FR.report list) =
  let tot f = sum (fun (r : FR.report) -> fi (f r)) reports in
  let per f = ratio (tot f) (fi n) in
  [
    ("fetcher.requests", per (fun r -> r.FR.requests), n);
    ("fetcher.gets", per (fun r -> r.FR.gets), n);
    ( "fetcher.hit_ratio",
      ratio (tot (fun r -> r.FR.cache_hits)) (tot (fun r -> r.FR.cache_hits + r.FR.cache_misses)),
      n );
    ("fetcher.evictions", per (fun r -> r.FR.cache_evictions), n);
    ("fetcher.coalesced", per (fun r -> r.FR.coalesced), n);
    ("fetcher.batches", per (fun r -> r.FR.batches), n);
    ("fetcher.bytes_per_get", ratio (tot (fun r -> r.FR.bytes)) (tot (fun r -> r.FR.gets)), n);
    ("fetcher.sim_ms", ratio (sum (fun (r : FR.report) -> r.FR.elapsed_ms) reports) (fi n), n);
  ]

(* Per-layer values read off the recorded spans; [wall_ns] is the
   traced wall time they were recorded in. *)
let span_values (ls : Trace.layer list) ~queries ~wall_ns =
  let get name = Trace.find_layer ls name in
  let count name = match get name with Some l -> l.Trace.count | None -> 0 in
  let pct q f name = match get name with Some l -> S.percentile q (f l) | None -> 0.0 in
  let durations l = l.Trace.durations_ms and selfs l = l.Trace.selfs_ms in
  let mean_alloc name =
    match get name with Some l -> Pct.mean l.Trace.self_allocs /. 1e6 | None -> 0.0
  in
  let total name = match get name with Some l -> fi l.Trace.total_ns | None -> 0.0 in
  let fetches = count "source.fetch" and prefetches = count "source.prefetch" in
  let v name x span = (name, x, count span) in
  [
    v "sql_parser.parse_us_p50" (1e3 *. pct 0.5 durations "sql_parser.parse") "sql_parser.parse";
    v "planner.self_ms_p50" (pct 0.5 selfs "planner.enumerate") "planner.enumerate";
    v "planner.self_ms_p95" (pct 0.95 selfs "planner.enumerate") "planner.enumerate";
    v "planner.alloc_mwords" (mean_alloc "planner.enumerate") "planner.enumerate";
    v "bindings.search_ms_p50" (pct 0.5 durations "bindings.search") "bindings.search";
    v "bindings.search_ms_p95" (pct 0.95 durations "bindings.search") "bindings.search";
    v "bindings.alloc_mwords" (mean_alloc "bindings.search") "bindings.search";
    v "physplan.lower_us_p50" (1e3 *. pct 0.5 durations "physplan.lower") "physplan.lower";
    v "exec.self_ms_p50" (pct 0.5 selfs "exec.run") "exec.run";
    v "exec.alloc_mwords" (mean_alloc "exec.run") "exec.run";
    ("source.fetch_calls", ratio (fi fetches) (fi queries), fetches);
    ("source.fetch_us_per_call", ratio (total "source.fetch") (1e3 *. fi fetches), fetches);
    ("source.prefetch_calls", ratio (fi prefetches) (fi queries), prefetches);
    ("source.prefetch_ms", ratio (total "source.prefetch" /. 1e6) (fi queries), prefetches);
    ("source.share", ratio (total "source.fetch" +. total "source.prefetch") (fi wall_ns), queries);
  ]

(* Planner counters over a list of outcomes. *)
let planner_values (outcomes : W.Planner.outcome list) =
  let n = List.length outcomes in
  let tot f = sum (fun (o : W.Planner.outcome) -> fi (f o)) outcomes in
  let explored = tot (fun o -> o.W.Planner.explored) in
  let candidates = tot (fun o -> List.length o.W.Planner.candidates) in
  let cap_hit (d : W.Diagnostic.t) = String.equal d.W.Diagnostic.code "W0401" in
  [
    ("planner.explored", ratio explored (fi n), n);
    ("planner.candidates", ratio candidates (fi n), n);
    ("planner.merged", ratio (tot (fun o -> o.W.Planner.merged)) (fi n), n);
    ("planner.kept_ratio", ratio candidates explored, n);
    ("planner.cap_hits", tot (fun o -> List.length (List.filter cap_hit o.W.Planner.diagnostics)), n);
  ]

(* Executor counters over the runs that streamed. *)
let exec_values (runs : W.Exec.metrics list) ~fallbacks =
  let n = List.length runs in
  let per f = ratio (sum (fun m -> fi (f m)) runs) (fi n) in
  let ops f (m : W.Exec.metrics) = Array.fold_left (fun acc o -> acc + f o) 0 m.W.Exec.ops in
  [
    ("physplan.legacy_fallbacks", fi fallbacks, n + fallbacks);
    ("exec.rows_out", per (ops (fun o -> o.W.Exec.rows_out)), n);
    ("exec.batches", per (ops (fun o -> o.W.Exec.batches_out)), n);
    ("exec.state_rows", per (fun m -> m.W.Exec.state_rows), n);
    ( "exec.peak_resident_rows",
      List.fold_left (fun acc m -> Float.max acc (fi (W.Exec.peak_resident_rows m))) 0.0 runs,
      n );
  ]

(* Replay parsing and planning of each distinct SQL text, timed one
   call at a time (batch workloads plan inside the scheduler). *)
let replay_planning ?views schema stats registry texts =
  let runs =
    List.map
      (fun sql ->
        let t0 = now () in
        let q = W.Sql_parser.parse registry sql in
        let parse = since t0 in
        let a0 = Trace.alloc_words () in
        let t1 = now () in
        let o = W.Planner.enumerate ?views schema stats registry q in
        (fi parse /. 1e3, ms (since t1), Trace.alloc_words () -. a0, o))
      texts
  in
  let n = List.length runs in
  [
    ("sql_parser.parse_us_p50", S.percentile 0.5 (List.map (fun (p, _, _, _) -> p) runs), n);
    ("planner.self_ms_p50", S.percentile 0.5 (List.map (fun (_, t, _, _) -> t) runs), n);
    ("planner.self_ms_p95", S.percentile 0.95 (List.map (fun (_, t, _, _) -> t) runs), n);
    ("planner.alloc_mwords", Pct.mean (List.map (fun (_, _, a, _) -> a /. 1e6) runs), n);
  ]
  @ planner_values (List.map (fun (_, _, _, o) -> o) runs)

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let gc_values (m0, j0) (m1, j1) queries =
  [
    ("gc.minor_mwords_per_query", ratio ((m1 -. m0) /. 1e6) (fi queries), queries);
    ("gc.major_collections", fi (j1 - j0), queries);
  ]

(* The benchmark's own spans, named bench.*, time its glue around the
   layer calls (the query loop, answer digests); they are not layers. *)
let is_glue (s : Trace.span) = String.starts_with ~prefix:"bench." s.Trace.name

(* The layers' summed self time over the traced wall time. Glue spans
   are left out, so time that no layer span accounts for lowers it. *)
let coverage spans ~traced_ns =
  let selfs = Trace.self_times spans in
  let covered = ref 0 in
  Array.iteri (fun i s -> if not (is_glue s) then covered := !covered + fst selfs.(i)) spans;
  ratio (fi !covered) (fi traced_ns)

let coverage_problem c =
  if c < 0.95 || c > 1.05 then Some (Printf.sprintf "trace coverage %.3f outside 0.95-1.05" c)
  else None

let trace_values ~untraced_ns ~traced_ns spans =
  [
    ("trace.overhead_pct", 100.0 *. (ratio (fi traced_ns) (fi untraced_ns) -. 1.0), 1);
    ("trace.coverage", coverage spans ~traced_ns, Array.length spans);
  ]

let write_trace name spans =
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Trace.write_jsonl (Filename.concat trace_dir ("trace-" ^ name ^ ".jsonl")) spans

(* ------------------------------------------------------------------ *)
(* Closed loop: join-plan and forms-bindings                           *)
(* ------------------------------------------------------------------ *)

type closed = {
  schema : Adm.Schema.t;
  registry : W.View.registry;
  stats : W.Stats.t;
  http : Websim.Http.t;
  site : Websim.Site.t;
  bindings : Bindings.config option;
  cases : Oracle.case array;
  warmup : int;
}

type exec = {
  ok : bool;
  wall : int;  (** ns *)
  fetch : FR.report option;
  answer : string list list;
  error : string option;
}

let judge (c : Oracle.case) wall = function
  | Ok (rel, (fetch : FR.report)) ->
    let answer = Oracle.rows rel in
    let ok = Oracle.matches c answer && fetch.FR.gave_up = 0 in
    {
      ok; wall; fetch = Some fetch; answer;
      error = (if ok then None else Some ("wrong answer: " ^ c.Oracle.sql));
    }
  | Error e -> { ok = false; wall; fetch = None; answer = []; error = Some (e ^ ": " ^ c.Oracle.sql) }

let account problems attempted failed (e : exec) =
  incr attempted;
  if not e.ok then begin
    incr failed;
    Option.iter (note problems) e.error
  end

(* Parse, plan without a plan cache, run on a fresh fetch engine. *)
let run_untraced env hook (c : Oracle.case) =
  let t0 = now () in
  let result =
    match
      let q = W.Sql_parser.parse env.registry c.Oracle.sql in
      let o = W.Planner.enumerate ?bindings:hook env.schema env.stats env.registry q in
      let r = W.Eval.eval_fetched env.schema (fresh_fetcher env.http) o.W.Planner.best.W.Planner.expr in
      (W.Planner.rename_output o r.W.Eval.result, r.W.Eval.fetch)
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  judge c (since t0) result

type traced_info = {
  outcome : W.Planner.outcome option;
  metrics : W.Exec.metrics option;
  legacy : bool;
  searches : Bindings.search_report list;
}

(* The same query with every layer call in a span. Lowering and
   execution are called directly, falling back to the legacy evaluator
   exactly as [Eval.eval] does; the binding-pattern hook is
   [Bindings.search] (what [Bindings.planner_hook] returns) so its
   report gives the state counts. *)
let run_traced env tr pages ~qid (c : Oracle.case) =
  let sp name f = Trace.span ~qid tr name f in
  let outcome = ref None and metrics = ref None and legacy = ref false and searches = ref [] in
  let hook =
    Option.map
      (fun cfg conj ->
        sp "bindings.search" (fun () ->
            let r = Bindings.search cfg env.schema conj in
            searches := r :: !searches;
            r.Bindings.rewritings))
      env.bindings
  in
  let t0 = now () in
  let result =
    match
      sp "bench.query" (fun () ->
          let q = sp "sql_parser.parse" (fun () -> W.Sql_parser.parse env.registry c.Oracle.sql) in
          let o =
            sp "planner.enumerate" (fun () ->
                W.Planner.enumerate ?bindings:hook env.schema env.stats env.registry q)
          in
          outcome := Some o;
          let fetcher = sp "fetcher.create" (fun () -> fresh_fetcher env.http) in
          let before = FR.report fetcher in
          let source = traced_source tr ~qid pages (W.Eval.fetcher_source env.schema fetcher) in
          let expr = o.W.Planner.best.W.Planner.expr in
          let rel =
            match
              sp "physplan.lower" (fun () ->
                  W.Physplan.lower ~view_attrs:(fun _ -> None) ~window:source.W.Eval.window
                    env.schema expr)
            with
            | plan ->
              let rel, m = sp "exec.run" (fun () -> W.Exec.run_metrics env.schema source plan) in
              metrics := Some m;
              rel
            | exception W.Physplan.Not_streamable _ ->
              legacy := true;
              sp "eval.legacy" (fun () -> W.Eval.eval_legacy env.schema source expr)
          in
          let fetch = FR.report_diff ~before ~after:(FR.report fetcher) in
          (sp "planner.rename_output" (fun () -> W.Planner.rename_output o rel), fetch))
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  ( judge c (since t0) result,
    { outcome = !outcome; metrics = !metrics; legacy = !legacy; searches = !searches } )

let untraced_hook env = Option.map (fun cfg -> Bindings.planner_hook cfg env.schema) env.bindings

let warm_up env hook =
  Array.iteri (fun i c -> if i < env.warmup then ignore (run_untraced env hook c)) env.cases

(* Closed loop, one client: whole passes over the query set in order,
   a probe before each query. A query's latency is the median of its
   scaled passes. *)
let closed_untraced p env finish_setup =
  let hook = untraced_hook env in
  warm_up env hook;
  let n = Array.length env.cases in
  let walls = Array.make n [] and first = Array.make n None in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let heap = ref 0.0 in
  let pass () =
    Array.iteri
      (fun k c ->
        ignore (Speed.probe ());
        let t0 = now () in
        let e = run_untraced env hook c in
        walls.(k) <- (t0, now (), e.wall) :: walls.(k);
        account problems attempted failed e;
        if first.(k) = None then first.(k) <- Some e)
      env.cases;
    if !heap = 0.0 then heap := peak_heap_mb ()
  in
  Speed.burst ();
  ignore (repeat p ~least:1 pass);
  Speed.burst ();
  let setup = finish_setup () in
  let reports = List.filter_map (fun e -> e.fetch) (List.filter_map Fun.id (Array.to_list first)) in
  let latencies =
    Array.to_list
      (Array.map
         (fun runs -> Pct.median (List.map (fun (t0, t1, wall) -> Speed.factor ~t0 ~t1 *. ms wall) runs))
         walls)
  in
  let values =
    e2e_values ~setup ~latencies
      ~throughput:(ratio (fi n) (sum (fun x -> x /. 1e3) latencies))
      ~sim:(List.map (fun (r : FR.report) -> r.FR.elapsed_ms) reports)
      ~gets:(sum (fun (r : FR.report) -> fi r.FR.gets) reports)
      ~heads:(sum (fun (r : FR.report) -> fi r.FR.heads) reports)
      ~queries:n ~attempted:!attempted ~failed:!failed ~heap:!heap ~stale:0.0 ~violations:0.0
  in
  { attempted = !attempted; failed = !failed; problems = List.rev !problems; values }

(* One pass over the query set, each query run untraced and traced;
   the traced run must reproduce the untraced GETs, HEADs and
   answers. *)
let closed_traced name env finish_setup =
  let hook = untraced_hook env in
  warm_up env hook;
  let tr = Trace.create () in
  let pages = Hashtbl.create 256 in
  let n = Array.length env.cases in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let untraced_ns = ref 0 and traced_ns = ref 0 in
  let minor = ref 0.0 and majors = ref 0 in
  let infos = ref [] and untraced_reports = ref [] in
  Array.iteri
    (fun k c ->
      let untraced () =
        let m0, j0 = gc_snapshot () in
        let u = run_untraced env hook c in
        let m1, j1 = gc_snapshot () in
        minor := !minor +. (m1 -. m0);
        majors := !majors + (j1 - j0);
        u
      in
      (* alternate which runs first, so neither gains from the other *)
      let u, (t, info) =
        if k mod 2 = 0 then
          let u = untraced () in
          (u, run_traced env tr pages ~qid:k c)
        else
          let t = run_traced env tr pages ~qid:k c in
          (untraced (), t)
      in
      List.iter (account problems attempted failed) [ u; t ];
      let counts e = Option.map (fun (r : FR.report) -> (r.FR.gets, r.FR.heads)) e.fetch in
      if counts u <> counts t || u.answer <> t.answer then
        note problems ("traced run diverged: " ^ c.Oracle.sql);
      untraced_ns := !untraced_ns + u.wall;
      traced_ns := !traced_ns + t.wall;
      Option.iter (fun r -> untraced_reports := r :: !untraced_reports) u.fetch;
      infos := (info, t.fetch) :: !infos)
    env.cases;
  let setup = finish_setup () in
  let spans = Trace.spans tr in
  write_trace name spans;
  let ls = Trace.layers spans in
  let infos = List.rev !infos in
  let searches = List.concat_map (fun (i, _) -> i.searches) infos in
  let per_search f = ratio (sum (fun r -> fi (f r)) searches) (fi (List.length searches)) in
  let sims = List.map (fun (r : FR.report) -> r.FR.elapsed_ms) !untraced_reports in
  Option.iter (note problems) (coverage_problem (coverage spans ~traced_ns:!traced_ns));
  let values =
    span_values ls ~queries:n ~wall_ns:!traced_ns
    @ planner_values (List.filter_map (fun (i, _) -> i.outcome) infos)
    @ [
        ("bindings.states", per_search (fun r -> r.Bindings.explored), List.length searches);
        ( "bindings.rewritings",
          per_search (fun r -> List.length r.Bindings.rewritings),
          List.length searches );
      ]
    @ exec_values
        (List.filter_map (fun (i, _) -> i.metrics) infos)
        ~fallbacks:(List.length (List.filter (fun (i, _) -> i.legacy) infos))
    @ fetcher_values n (List.filter_map snd infos)
    @ replay_wrapper env.schema env.site (Hashtbl.fold (fun url scheme acc -> (url, scheme) :: acc) pages [])
    @ setup_values setup
    @ gc_values (0.0, 0) (!minor, !majors) n
    @ trace_values ~untraced_ns:!untraced_ns ~traced_ns:!traced_ns spans
    @ [
        ("net.sim_p50_ms", S.percentile 0.5 sims, List.length sims);
        ("net.sim_p95_ms", S.percentile 0.95 sims, List.length sims);
        ( "net.heads_per_query",
          ratio (sum (fun (r : FR.report) -> fi r.FR.heads) !untraced_reports) (fi n),
          n );
      ]
  in
  { attempted = !attempted; failed = !failed; problems = List.rev !problems; values }

let closed p name env finish_setup =
  if p.traced then closed_traced name env finish_setup else closed_untraced p env finish_setup

(* join-plan: 2- to 4-way university joins, where planning dominates. *)
let join_plan p =
  let config, n, warmup =
    match p.size with
    | Full -> (uni_config ~depts:20 ~profs:400 ~courses:800 ~sessions:4, 200, 10)
    | Tiny -> (U.default_config, 10, 0)
  in
  let t, finish_setup = set_up p 5 (build_university config) in
  let o = Oracle.university t.u in
  let rng = Random.State.make [| p.seed |] in
  let cases = Array.init n (fun i -> Oracle.join_query o rng i) in
  closed p "join-plan"
    {
      schema = U.schema; registry = U.view; stats = t.ustats; http = t.http; site = U.site t.u;
      bindings = None; cases; warmup;
    }
    finish_setup

(* The decoy services are drawn with a fixed seed: which decoys exist
   changes the binding-search space five-fold (916 to 4,358 states
   over decoy seeds 1-10), which would swamp any change under test. *)
let decoy_seed = 7

(* forms-bindings: the form-only site, answered only by the
   binding-pattern rewriting search. *)
let forms_bindings p =
  let views, n, warmup = match p.size with Full -> (150, 200, 10) | Tiny -> (10, 5, 0) in
  let real = List.length F.path_views in
  let (fs, stats, cfg), finish_setup =
    set_up p 50 (fun () ->
        let t0 = now () in
        let fs = F.build () in
        let t1 = now () in
        let stats = F.stats fs in
        let t2 = now () in
        let cfg =
          Bindings.add_views F.binding_config
            (Bindings.decoys ~hooks:[ "dept"; "course"; "prof" ] ~seed:decoy_seed ~n:(views - real) ())
        in
        ((fs, stats, cfg), { build = t1 - t0; crawl = 0; stats = t2 - t1 }))
  in
  let rng = Random.State.make [| p.seed |] in
  let depts = F.depts fs in
  let cases = Array.init n (fun i -> Oracle.form_query fs i (Oracle.pick rng depts)) in
  closed p "forms-bindings"
    {
      schema = F.schema; registry = F.view; stats; http = Websim.Http.connect (F.site fs);
      site = F.site fs; bindings = Some cfg; cases; warmup;
    }
    finish_setup

(* ------------------------------------------------------------------ *)
(* scan-serve: the concurrent server at scale                          *)
(* ------------------------------------------------------------------ *)

type round = {
  started : int;  (** ns, monotonic clock *)
  wall : int;  (** ns: plan_workload + run *)
  completions : float array;  (** per qid, ms from the round's start *)
  results : (Oracle.digest * bool) array;  (** per qid: answer digest, complete *)
  report : S.report;
  ledger : SC.ledger;
  contention : SC.contention;
  specs : S.spec list;
  cache : SC.t;
}

(* Plan and serve the whole workload, queued at t=0, on a fresh shared
   cache, after a burst of probes; answers are digested as they
   complete. *)
let serve_round ?tr ?on_turn pages pool (t : uni) entries =
  Speed.burst ();
  let t0 = now () in
  let specs =
    Trace.within tr "sched.plan_workload" (fun () ->
        S.plan_workload ~pool U.schema t.ustats U.view entries)
  in
  let cache = SC.create ~pool ~config:engine_config ~netmodel:(netmodel ()) t.http in
  let n = List.length specs in
  let results = Array.make n (Oracle.empty_digest, false) and completions = Array.make n 0.0 in
  let on_result (r : S.result) =
    completions.(r.S.qid) <- ms (since t0);
    results.(r.S.qid) <-
      Trace.within tr "bench.digest" (fun () ->
          (Oracle.digest_relation r.S.rows, r.S.completeness.S.complete))
  in
  let source_for =
    Option.map
      (fun tr (spec : S.spec) ->
        Some (traced_source tr ~qid:spec.S.qid pages (SC.source cache ~query:spec.S.qid U.schema)))
      tr
  in
  let report =
    Trace.within tr "sched.run" (fun () ->
        S.run ~on_result ~keep_rows:false ?source_for ?on_turn (S.config ~domains:2 ()) cache
          U.schema specs)
  in
  let wall = since t0 in
  {
    started = t0; wall; completions; results; report; ledger = SC.ledger cache;
    contention = SC.contention cache; specs; cache;
  }

(* The factor that scales a round's times, from the bursts before and
   after it: call it once the next round (or a final burst) has run. *)
let round_factor ~started ~wall = Speed.factor ~t0:started ~t1:(started + wall)

(* What must repeat exactly between two rounds of the same workload. *)
let round_signature r =
  (r.report.S.fetch.FR.gets, r.report.S.fetch.FR.heads, r.ledger, r.results)

let wrong_answers expected r =
  List.filter_map
    (fun (spec : S.spec) ->
      let digest, complete = r.results.(spec.S.qid) in
      match Hashtbl.find_opt expected spec.S.label with
      | Some d when d = digest && complete -> None
      | _ -> Some spec.S.label)
    r.specs

(* Blocks holding every query once: the whole-site scans and joins
   (the twelve standard templates and one course listing per session)
   at fixed, evenly spaced slots, one query per dept between them in
   dept order. Which queries run near each other decides how much they
   share through the LRU — shuffling or rotating the order moves the
   GET count by a tenth from seed to seed — so the seed only draws
   which professor column each dept query selects, which changes the
   answers but not the pages read. *)
let serve_entries ~blocks ~(scans : Oracle.case list) ~(dept_query : string -> Oracle.case) depts =
  let slots = List.length scans + List.length depts in
  let scan_at = Array.make slots None in
  List.iteri (fun j c -> scan_at.(j * slots / List.length scans) <- Some c) scans;
  let block () =
    let fill = ref depts in
    List.init slots (fun i ->
        match (scan_at.(i), !fill) with
        | Some c, _ -> c
        | None, d :: rest ->
          fill := rest;
          dept_query d
        | None, [] -> invalid_arg "serve_entries")
  in
  List.concat (List.init blocks (fun _ -> block ()))

let scan_serve p =
  let config, blocks =
    match p.size with
    | Full -> (uni_config ~depts:100 ~profs:8000 ~courses:12000 ~sessions:4, 5)
    | Tiny -> (U.default_config, 1)
  in
  let t, finish_setup = set_up p 2 (build_university config) in
  let o = Oracle.university t.u in
  let scans = Oracle.standard o @ List.map (Oracle.session_courses o) o.Oracle.sessions in
  let rng = Random.State.make [| p.seed |] in
  let cases =
    serve_entries ~blocks ~scans
      ~dept_query:(fun d -> Oracle.dept_members o (Oracle.pick rng [ "Email"; "Rank" ]) d)
      (List.map (fun (d : U.dept) -> d.U.d_name) o.Oracle.depts)
  in
  let expected = Hashtbl.create 256 in
  List.iter
    (fun (c : Oracle.case) -> Hashtbl.replace expected c.Oracle.sql (Oracle.digest_rows c.Oracle.expected))
    cases;
  let entries = List.map (fun (c : Oracle.case) -> Server.Workload.entry c.Oracle.sql) cases in
  let n = List.length entries in
  let pool = Server.Pool.create ~domains:2 in
  let pages = Hashtbl.create 16 in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let check ?against r =
    let bad = wrong_answers expected r in
    attempted := !attempted + n;
    failed := !failed + List.length bad;
    List.iter (fun l -> note problems ("wrong answer: " ^ l)) bad;
    Option.iter
      (fun (first, what) ->
        if round_signature r <> round_signature first then note problems (what ^ " diverged"))
      against
  in
  (* untraced rounds; the first also gives the heap and GC figures *)
  let rounds = ref [] and heap = ref 0.0 and gc = ref ((0.0, 0), (0.0, 0)) in
  let round () =
    let g0 = gc_snapshot () in
    let r = serve_round pages pool t entries in
    (match List.rev !rounds with
    | [] ->
      gc := (g0, gc_snapshot ());
      heap := peak_heap_mb ();
      check r
    | first :: _ -> check ~against:(first, "rounds of the same workload") r);
    rounds := r :: !rounds
  in
  Fun.protect ~finally:(fun () -> Server.Pool.shutdown pool) @@ fun () ->
    if not p.traced then begin
      ignore (repeat p ~least:3 round);
      Speed.burst ();
      let first = List.hd (List.rev !rounds) in
      let scaled = List.map (fun r -> (round_factor ~started:r.started ~wall:r.wall, r)) !rounds in
      let setup = finish_setup () in
      let rep = first.report in
      let scaled_wall = Pct.median (List.map (fun (f, r) -> f *. fi r.wall) scaled) in
      let latencies =
        List.init n (fun q -> Pct.median (List.map (fun (f, r) -> f *. r.completions.(q)) scaled))
      in
      let values =
        e2e_values ~setup ~latencies
          ~throughput:(ratio (fi n) (scaled_wall /. 1e9))
          ~sim:(List.map (fun (r : S.result) -> r.S.elapsed_ms) rep.S.results)
          ~gets:(fi rep.S.fetch.FR.gets) ~heads:(fi rep.S.fetch.FR.heads) ~queries:n
          ~attempted:!attempted ~failed:!failed ~heap:!heap ~stale:0.0 ~violations:0.0
      in
      { attempted = !attempted; failed = !failed; problems = List.rev !problems; values }
    end
    else begin
      round ();
      let first = List.hd !rounds in
      let tr = Trace.create () in
      let turns = ref [] in
      let on_turn ~turn:_ ~resident:_ = turns := now () :: !turns in
      let traced = serve_round ~tr ~on_turn pages pool t entries in
      check ~against:(first, "traced run") traced;
      let spans = Trace.spans tr in
      write_trace "scan-serve" spans;
      let ls = Trace.layers spans in
      let self_of name = match Trace.find_layer ls name with Some l -> fi l.Trace.self_ns /. 1e6 | None -> 0.0 in
      let turn_gaps =
        let rec gaps acc = function a :: (b :: _ as tl) -> gaps ((fi (a - b) /. 1e3) :: acc) tl | _ -> acc in
        gaps [] !turns
      in
      (* the executor runs inside the scheduler: replay each distinct
         plan once more, lowered and run directly on the warm cache *)
      let rtr = Trace.create () in
      let distinct = List.sort_uniq (fun (a : S.spec) b -> compare a.S.label b.S.label) traced.specs in
      let metrics =
        List.mapi
          (fun i (spec : S.spec) ->
            let qid = n + i in
            let source = traced_source rtr ~qid (Hashtbl.create 16) (SC.source traced.cache ~query:qid U.schema) in
            let plan =
              Trace.span ~qid rtr "physplan.lower" (fun () ->
                  W.Physplan.lower ~view_attrs:(fun _ -> None) ~window:source.W.Eval.window U.schema spec.S.expr)
            in
            snd (Trace.span ~qid rtr "exec.run" (fun () -> W.Exec.run_metrics U.schema source plan)))
          distinct
      in
      let pick names vals = List.filter (fun (k, _, _) -> List.mem k names) vals in
      let rep = traced.report in
      let busy = List.fold_left ( +. ) 0.0 rep.S.lane_busy_ms in
      let setup = finish_setup () in
      let values =
        pick
          [ "source.fetch_calls"; "source.fetch_us_per_call"; "source.prefetch_calls";
            "source.prefetch_ms"; "source.share" ]
          (span_values ls ~queries:n ~wall_ns:traced.wall)
        @ pick
            [ "physplan.lower_us_p50"; "exec.self_ms_p50"; "exec.alloc_mwords" ]
            (span_values (Trace.layers (Trace.spans rtr)) ~queries:(List.length distinct) ~wall_ns:1)
        @ exec_values metrics ~fallbacks:0
        @ replay_planning U.schema t.ustats U.view (List.map (fun (s : S.spec) -> s.S.label) distinct)
        @ [
            ("shared_cache.sharing_ratio", traced.ledger.SC.sharing_ratio, n);
            ("shared_cache.cross_query_hits", fi traced.ledger.SC.cross_query_hits, n);
            ("shared_cache.tuples_cached", fi traced.contention.SC.tuples_cached, n);
            ("shared_cache.lock_contested", fi traced.contention.SC.lock_contested, n);
            ("sched.plan_workload_ms", self_of "sched.plan_workload", 1);
            ("sched.self_ms", self_of "sched.run", 1);
            ("sched.turns", fi rep.S.turns, 1);
            ("sched.turn_us_p50", S.percentile 0.5 turn_gaps, List.length turn_gaps);
            ("sched.turn_us_p99", S.percentile 0.99 turn_gaps, List.length turn_gaps);
            ("sched.wait_p95_ms", rep.S.p95_wait_ms, n);
            ("sched.service_p95_ms", rep.S.p95_service_ms, n);
            ("sched.peak_resident_rows", fi rep.S.peak_resident_rows, 1);
            ("sched.lane_busy_ratio", ratio busy (fi rep.S.domains *. rep.S.makespan_ms), rep.S.domains);
            ("net.sim_p50_ms", rep.S.p50_ms, n);
            ("net.sim_p95_ms", rep.S.p95_ms, n);
            ("net.heads_per_query", ratio (fi rep.S.fetch.FR.heads) (fi n), n);
          ]
        @ fetcher_values n [ rep.S.fetch ]
        @ replay_wrapper U.schema (U.site t.u)
            (List.filter_map
               (fun url -> Option.map (fun s -> (url, s)) (Hashtbl.find_opt t.scheme_of_url url))
               (SC.distinct_get_set traced.cache))
        @ setup_values setup
        @ gc_values (fst !gc) (snd !gc) n
        @ trace_values ~untraced_ns:first.wall ~traced_ns:traced.wall spans
      in
      { attempted = !attempted; failed = !failed; problems = List.rev !problems; values }
    end

(* ------------------------------------------------------------------ *)
(* churn-views: reads beside writes                                    *)
(* ------------------------------------------------------------------ *)

type churn_round = { cstarted : int; cwall : int; creport : Churn.Runtime.report; cbad : string list }

let churn_config () =
  Churn.Runtime.config
    ~profile:(Churn.Profile.make ~rate:0.3 ())
    ~churn_seed:5
    ~sla:(Churn.Sla.create ~default_max_age:6 ())
    ~budget_per_turn:4.0 ~policy:Churn.Runtime.Incremental ()

let churn_sched = S.config ~concurrency:4 ~quantum:1 ()

(* Each round churns a freshly built site, so rounds repeat exactly;
   a burst of probes precedes the timed part. Under churn a page may be
   gone when a query reads it, so an answer must be a subset of the
   frozen site's answer. *)
let churn_round ?tr config stats cases entries =
  let u = U.build ~config () in
  let http = Websim.Http.connect (U.site u) in
  Speed.burst ();
  let t0 = now () in
  let creport =
    Trace.within tr "churn.run" (fun () ->
        Churn.Runtime.run ~sched:churn_sched (churn_config ()) U.schema stats U.view http entries)
  in
  let cwall = since t0 in
  let cbad =
    List.filter_map
      (fun (r : S.result) ->
        match Hashtbl.find_opt cases r.S.label with
        | Some c when r.S.completeness.S.complete && Oracle.within c (Oracle.rows r.S.rows) -> None
        | _ -> Some r.S.label)
      creport.Churn.Runtime.sched.S.results
  in
  { cstarted = t0; cwall; creport; cbad }

let churn_signature r =
  let c = r.creport in
  ( c.Churn.Runtime.wire.FR.gets, c.Churn.Runtime.wire.FR.heads, c.Churn.Runtime.mutations_total,
    c.Churn.Runtime.verdicts, c.Churn.Runtime.mean_staleness,
    List.map (fun (res : S.result) -> Oracle.digest_relation res.S.rows) c.Churn.Runtime.sched.S.results )

let churn_views p =
  let config, copies =
    match p.size with
    | Full -> (uni_config ~depts:10 ~profs:200 ~courses:400 ~sessions:2, 80)
    | Tiny -> (uni_config ~depts:2 ~profs:6 ~courses:10 ~sessions:2, 2)
  in
  let t, finish_setup = set_up p 10 (build_university config) in
  let standard = Oracle.standard (Oracle.university t.u) in
  let cases = Hashtbl.create 16 in
  List.iter (fun (c : Oracle.case) -> Hashtbl.replace cases c.Oracle.sql c) standard;
  let entries =
    shuffle (Random.State.make [| p.seed |])
      (List.concat_map
         (fun (c : Oracle.case) -> List.init copies (fun _ -> Server.Workload.entry c.Oracle.sql))
         standard)
  in
  let n = List.length entries in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let check ?against r =
    attempted := !attempted + n;
    failed := !failed + List.length r.cbad;
    List.iter (fun l -> note problems ("wrong answer: " ^ l)) r.cbad;
    Option.iter
      (fun (first, what) ->
        if churn_signature r <> churn_signature first then note problems (what ^ " diverged"))
      against
  in
  (* untraced rounds; the first also gives the heap and GC figures *)
  let rounds = ref [] and heap = ref 0.0 and gc = ref ((0.0, 0), (0.0, 0)) in
  let round () =
    let g0 = gc_snapshot () in
    let r = churn_round config t.ustats cases entries in
    (match List.rev !rounds with
    | [] ->
      gc := (g0, gc_snapshot ());
      heap := peak_heap_mb ();
      check r
    | first :: _ -> check ~against:(first, "rounds of the same workload") r);
    rounds := r :: !rounds
  in
  if not p.traced then begin
    ignore (repeat p ~least:3 round);
    Speed.burst ();
    let first = List.hd (List.rev !rounds) in
    let rep = first.creport in
    let sched = rep.Churn.Runtime.sched in
    let setup = finish_setup () in
    (* The runtime has no per-query hook, and every round serves the
       same queries, so rounds differ only by outside load: the one
       latency sample is the median round's scaled wall time per
       query. *)
    let per_query =
      Pct.median
        (List.map (fun r -> round_factor ~started:r.cstarted ~wall:r.cwall *. ms r.cwall) !rounds)
      /. fi n
    in
    let values =
      e2e_values ~setup ~latencies:[ per_query ] ~throughput:(ratio 1e3 per_query)
        ~sim:(List.map (fun (r : S.result) -> r.S.elapsed_ms) sched.S.results)
        ~gets:(fi rep.Churn.Runtime.wire.FR.gets) ~heads:(fi rep.Churn.Runtime.wire.FR.heads)
        ~queries:n ~attempted:!attempted ~failed:!failed ~heap:!heap
        ~stale:rep.Churn.Runtime.mean_staleness ~violations:(fi rep.Churn.Runtime.violations)
    in
    { attempted = !attempted; failed = !failed; problems = List.rev !problems; values }
  end
  else begin
    round ();
    let first = List.hd !rounds in
    let rep = first.creport in
    let sched = rep.Churn.Runtime.sched in
    let tr = Trace.create () in
    let traced = churn_round ~tr config t.ustats cases entries in
    check ~against:(first, "traced run") traced;
    let spans = Trace.spans tr in
    write_trace "churn-views" spans;
    (* the runtime offers no source hook: replay its set-up stages on
       the same inputs *)
    let u = U.build ~config () in
    let t0 = now () in
    let store = W.Matview.materialize U.schema (Websim.Http.connect (U.site u)) in
    let materialize = since t0 in
    let vs = W.Viewstore.create U.schema U.view store in
    let t1 = now () in
    ignore (S.plan_workload ~views:(W.Viewstore.context vs) U.schema t.ustats U.view entries);
    let planning = since t1 in
    let m = rep.Churn.Runtime.maintenance in
    let setup = finish_setup () in
    let values =
      replay_planning ~views:(W.Viewstore.context vs) U.schema t.ustats U.view
        (List.map (fun (c : Oracle.case) -> c.Oracle.sql) standard)
      @ fetcher_values n [ rep.Churn.Runtime.wire ]
      @ replay_wrapper U.schema (U.site u) (Hashtbl.fold (fun url s acc -> (url, s) :: acc) t.scheme_of_url [])
      @ [
          ("sched.plan_workload_ms", ms planning, 1);
          ("sched.turns", fi sched.S.turns, 1);
          ("sched.wait_p95_ms", sched.S.p95_wait_ms, n);
          ("sched.service_p95_ms", sched.S.p95_service_ms, n);
          ("sched.peak_resident_rows", fi sched.S.peak_resident_rows, 1);
          ("churn.mutations", fi rep.Churn.Runtime.mutations_total, 1);
          ("churn.maintenance_heads", fi m.Churn.Maintain.heads, 1);
          ("churn.maintenance_gets", fi m.Churn.Maintain.gets_refreshed, 1);
          ("churn.budget_spent", rep.Churn.Runtime.budget_spent, 1);
          ("churn.budget_denied", fi rep.Churn.Runtime.budget_denied, 1);
          ("churn.store_pages", fi rep.Churn.Runtime.store_pages, 1);
          ("matview.materialize_ms", ms materialize, 1);
          ("churn.residual_ms", ms (traced.cwall - materialize - planning), 1);
          ("churn.stale_mean_ticks", rep.Churn.Runtime.mean_staleness, n);
          ("churn.sla_violations", 1000.0 *. ratio (fi rep.Churn.Runtime.violations) (fi n), n);
          ("net.sim_p50_ms", sched.S.p50_ms, n);
          ("net.sim_p95_ms", sched.S.p95_ms, n);
          ("net.heads_per_query", ratio (fi rep.Churn.Runtime.wire.FR.heads) (fi n), n);
        ]
      @ setup_values setup
      @ gc_values (fst !gc) (snd !gc) n
      @ trace_values ~untraced_ns:first.cwall ~traced_ns:traced.cwall spans
    in
    { attempted = !attempted; failed = !failed; problems = List.rev !problems; values }
  end

type workload = { name : string; why : string; run : params -> outcome }

let all =
  [
    {
      name = "join-plan";
      why =
        "2- to 4-way joins on a 1,228-page university site, one client, no plan cache: planning \
         is ~94% of wall time, so planner changes show here and fetch changes barely do";
      run = join_plan;
    };
    {
      name = "forms-bindings";
      why =
        "form-only site behind 150 path views: the only workload that runs the binding-pattern \
         search and Call_fetch, and the search is ~99% of wall time";
      run = forms_bindings;
    };
    {
      name = "scan-serve";
      why =
        "580 queued queries on a 20,108-page site through the 2-domain scheduler: fetch, \
         extraction, executor and shared cache with a working set beyond the LRU";
      run = scan_serve;
    };
    {
      name = "churn-views";
      why =
        "reads beside 0.3 mutations per tick through the churn runtime: HEAD revalidation, \
         maintenance and view-store answers use the read-path layers differently";
      run = churn_views;
    };
  ]
