(* Metric names, units and the two output forms of a run: one
   "metric NAME VALUE UNIT n=N" line per metric, then the result line
   as a single JSON object. *)

type better = Lower | Higher

(* [Wall bound] metrics are measured on the monotonic clock or the GC
   and vary from run to run; [bound] is the share of the median by which
   one may worsen before a change counts as a regression. [Exact]
   metrics are deterministic at a fixed seed: two runs of one commit
   print the same digits, and [compare], which compares runs of one
   seed, calls any change a verdict. An exact metric that is never 0 is
   also on the result line as [Exact (Some b)]: the harness takes
   medians over different seeds, so BENCHMARK.json needs a bound for it
   too, and [b] is at least three times its spread across seeds 1-10. *)
type kind = Wall of float | Exact of float option

type spec = { name : string; unit_ : string; better : better; kind : kind }

let spec name unit_ better kind = { name; unit_; better; kind }

(* The twelve end-to-end metrics, every workload. The bounds of the
   timings leave room for the drift between quiet and loaded periods of
   a shared machine: see README.md, "Noise". *)
let end_to_end =
  [
    spec "setup_s" "s" Lower (Wall 0.25);
    spec "query_p50_ms" "ms" Lower (Wall 0.20);
    spec "query_p95_ms" "ms" Lower (Wall 0.24);
    spec "throughput_qps" "1/s" Higher (Wall 0.24);
    spec "sim_p50_ms" "ms" Lower (Exact None);
    spec "sim_p95_ms" "ms" Lower (Exact None);
    spec "gets_per_query" "count" Lower (Exact (Some 0.08));
    spec "heads_per_query" "count" Lower (Exact None);
    spec "failed_ratio" "ratio" Lower (Exact None);
    spec "peak_heap_mb" "MB" Lower (Wall 0.10);
    spec "stale_mean_ticks" "ticks" Lower (Exact None);
    spec "sla_violations" "per_1000q" Lower (Exact None);
  ]

(* The bound of a metric on the result line and in BENCHMARK.json;
   [None] for the exact metrics that read 0 on some workload, which
   stay on the metric lines. *)
let listed s = match s.kind with Wall b | Exact (Some b) -> Some b | Exact None -> None

(* Per-layer metrics of a traced run, by layer, with the direction
   that counts as better. A workload that does not reach a layer
   reports 0 for it. *)
let per_layer =
  [
    ("sql_parser.parse_us_p50", "us", Lower);
    ("planner.self_ms_p50", "ms", Lower); ("planner.self_ms_p95", "ms", Lower);
    ("planner.explored", "count", Lower); ("planner.candidates", "count", Lower);
    ("planner.merged", "count", Lower); ("planner.kept_ratio", "ratio", Higher);
    ("planner.alloc_mwords", "Mwords", Lower); ("planner.cap_hits", "count", Lower);
    ("bindings.search_ms_p50", "ms", Lower); ("bindings.search_ms_p95", "ms", Lower);
    ("bindings.states", "count", Lower); ("bindings.rewritings", "count", Higher);
    ("bindings.alloc_mwords", "Mwords", Lower);
    ("physplan.lower_us_p50", "us", Lower); ("physplan.legacy_fallbacks", "count", Lower);
    ("exec.self_ms_p50", "ms", Lower); ("exec.rows_out", "count", Lower);
    ("exec.batches", "count", Lower); ("exec.state_rows", "count", Lower);
    ("exec.peak_resident_rows", "count", Lower); ("exec.alloc_mwords", "Mwords", Lower);
    ("source.fetch_calls", "count", Lower); ("source.fetch_us_per_call", "us", Lower);
    ("source.prefetch_calls", "count", Lower); ("source.prefetch_ms", "ms", Lower);
    ("source.share", "ratio", Lower);
    ("fetcher.requests", "count", Lower); ("fetcher.gets", "count", Lower);
    ("fetcher.hit_ratio", "ratio", Higher); ("fetcher.evictions", "count", Lower);
    ("fetcher.coalesced", "count", Lower); ("fetcher.batches", "count", Lower);
    ("fetcher.bytes_per_get", "bytes", Lower); ("fetcher.sim_ms", "ms", Lower);
    ("wrapper.extract_us_per_page", "us", Lower); ("html.parse_us_per_page", "us", Lower);
    ("wrapper.bytes_per_page", "bytes", Lower);
    ("wrapper.alloc_kwords_per_page", "kwords", Lower);
    ("shared_cache.sharing_ratio", "ratio", Lower);
    ("shared_cache.cross_query_hits", "count", Higher);
    ("shared_cache.tuples_cached", "count", Lower);
    ("shared_cache.lock_contested", "count", Lower);
    ("sched.plan_workload_ms", "ms", Lower); ("sched.self_ms", "ms", Lower);
    ("sched.turns", "count", Lower); ("sched.turn_us_p50", "us", Lower);
    ("sched.turn_us_p99", "us", Lower); ("sched.wait_p95_ms", "ms", Lower);
    ("sched.service_p95_ms", "ms", Lower); ("sched.peak_resident_rows", "count", Lower);
    ("sched.lane_busy_ratio", "ratio", Higher);
    ("churn.mutations", "count", Lower); ("churn.maintenance_heads", "count", Lower);
    ("churn.maintenance_gets", "count", Lower); ("churn.budget_spent", "units", Lower);
    ("churn.budget_denied", "count", Lower); ("churn.store_pages", "count", Higher);
    ("matview.materialize_ms", "ms", Lower); ("churn.residual_ms", "ms", Lower);
    ("churn.stale_mean_ticks", "ticks", Lower); ("churn.sla_violations", "per_1000q", Lower);
    ("sitegen.build_ms", "ms", Lower); ("crawler.crawl_ms", "ms", Lower);
    ("stats.collect_ms", "ms", Lower);
    ("gc.minor_mwords_per_query", "Mwords", Lower); ("gc.major_collections", "count", Lower);
    ("net.sim_p50_ms", "ms", Lower); ("net.sim_p95_ms", "ms", Lower);
    ("net.heads_per_query", "count", Lower);
    ("trace.overhead_pct", "%", Lower); ("trace.coverage", "ratio", Higher);
  ]

type line = { metric : string; value : float; unit_of : string; samples : int }

(* Every metric of the run's table in table order; a name a workload
   did not report reads 0 with n=0. Names outside the table are
   returned as [unknown]. *)
let assemble ~traced (values : Workloads.value list) =
  let table =
    if traced then List.map (fun (name, unit_, _) -> (name, unit_)) per_layer
    else List.map (fun s -> (s.name, s.unit_)) end_to_end
  in
  let lines =
    List.map
      (fun (name, unit_of) ->
        match List.find_opt (fun (k, _, _) -> String.equal k name) values with
        | Some (_, value, samples) -> { metric = name; value; unit_of; samples }
        | None -> { metric = name; value = 0.0; unit_of; samples = 0 })
      table
  in
  let unknown =
    List.filter_map
      (fun (k, _, _) -> if List.mem_assoc k table then None else Some k)
      values
  in
  (lines, unknown)

let metric_line l = Printf.sprintf "metric %s %s %s n=%d" l.metric (Json.number l.value) l.unit_of l.samples

(* Parse a metric line back: (name, value as printed, value, unit, n). *)
let parse_metric_line s =
  match String.split_on_char ' ' s with
  | [ "metric"; name; v; u; n ] when String.length n > 2 && String.sub n 0 2 = "n=" ->
    Option.map
      (fun x -> (name, v, x, u, int_of_string_opt (String.sub n 2 (String.length n - 2))))
      (float_of_string_opt v)
  | _ -> None

let result_json ~correct ~attempted ~failed ~traced lines =
  let keep l =
    traced || List.exists (fun s -> String.equal s.name l.metric && listed s <> None) end_to_end
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.filter_map
                (fun l ->
                  if keep l then
                    Some (l.metric, Json.Obj [ ("value", Json.Num l.value); ("unit", Json.Str l.unit_of) ])
                  else None)
                lines) );
       ])

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let command =
  [ "dune"; "exec"; "--root"; "."; "--profile"; "release"; "--cache"; "disabled"; "--display";
    "quiet"; "--"; "bench/e2e/webbench.exe" ]

let run_seconds = 25

(* The text of the root BENCHMARK.json, which a test holds the file
   to: the command, the workloads with their reasons, the listed
   end-to-end metrics with their bounds and the per-layer metrics. *)
let manifest (workloads : Workloads.workload list) =
  let str s = Json.Str s in
  let better b = str (match b with Lower -> "lower" | Higher -> "higher") in
  let rows xs = "[\n" ^ String.concat ",\n" (List.map (fun x -> "    " ^ Json.to_string x) xs) ^ "\n  ]" in
  let fields =
    [
      ("command", Json.to_string (Json.Arr (List.map str command)));
      ("paths", Json.to_string (Json.Arr [ str "bench/e2e" ]));
      ("run_seconds", string_of_int run_seconds);
      ( "workloads",
        rows
          (List.map
             (fun (w : Workloads.workload) ->
               Json.Obj [ ("name", str w.Workloads.name); ("why", str w.Workloads.why) ])
             workloads) );
      ( "end_to_end",
        rows
          (List.filter_map
             (fun s ->
               Option.map
                 (fun b ->
                   Json.Obj
                     [ ("name", str s.name); ("unit", str s.unit_); ("better", better s.better);
                       ("bound", Json.Num b) ])
                 (listed s))
             end_to_end) );
      ( "per_layer",
        rows
          (List.map
             (fun (n, u, b) -> Json.Obj [ ("name", str n); ("unit", str u); ("better", better b) ])
             per_layer) );
    ]
  in
  "{\n" ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) fields) ^ "\n}\n"
