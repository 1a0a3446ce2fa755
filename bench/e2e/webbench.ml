(* webbench: the end-to-end benchmark of the web-view query system.

     webbench --workload NAME --seed N --seconds S --trace 0|1
       one workload in this process; metric lines, then the result
       line as JSON; exit 1 when any answer is wrong
     webbench run [--seed N] [--seconds S] [--reps K] [--trace] [--out DIR]
       every workload, each in a fresh process; outputs kept in DIR
     webbench compare A B
       verdicts between two directories of run outputs

   The first form also takes --size full|tiny (default full); traced
   runs write _webbench/trace-WORKLOAD.jsonl. *)

open E2e

let usage () =
  prerr_endline
    "usage: webbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]\n\
    \       webbench run [--seed N] [--seconds S] [--reps K] [--trace] [--size full|tiny] [--out DIR]\n\
    \       webbench compare A B\n\
     workloads: join-plan, forms-bindings, scan-serve, churn-views";
  exit 2

(* --key value pairs and bare --flags. *)
let is_flag s = String.length s > 2 && String.starts_with ~prefix:"--" s

let rec options = function
  | [] -> []
  | key :: value :: rest when is_flag key && not (is_flag value) -> (key, Some value) :: options rest
  | key :: rest when is_flag key -> (key, None) :: options rest
  | _ -> usage ()

let get opts key = Option.join (List.assoc_opt key opts)

let get_or opts key parse default =
  match get opts key with
  | None -> default
  | Some v -> ( match parse v with Some x -> x | None -> usage ())

let size_of = function "full" -> Some Workloads.Full | "tiny" -> Some Workloads.Tiny | _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

let run_workload name (p : Workloads.params) =
  let workload =
    match List.find_opt (fun (w : Workloads.workload) -> w.Workloads.name = name) Workloads.all with
    | Some w -> w.Workloads.run
    | None -> usage ()
  in
  Printf.printf "# webbench %s seed=%d seconds=%g trace=%d size=%s\n%!" name p.Workloads.seed
    p.Workloads.seconds
    (if p.Workloads.traced then 1 else 0)
    (match p.Workloads.size with Workloads.Full -> "full" | Workloads.Tiny -> "tiny");
  let o = workload p in
  let lines, unknown = Report.assemble ~traced:p.Workloads.traced o.Workloads.values in
  List.iter (fun l -> print_endline (Report.metric_line l)) lines;
  List.iter
    (fun l ->
      if l.Report.metric = "query_p95_ms" && Pct.tail_quantile l.Report.samples < Some 0.95 then
        Printf.printf "note: query_p95_ms has n=%d; ten samples beyond p95 take n=200\n"
          l.Report.samples)
    lines;
  if not p.Workloads.traced then
    Printf.printf "note: wall times scaled to the probe's %.3f ms; its median this run was %.3f ms\n"
      (Speed.nominal_ns /. 1e6) (Speed.median_ns () /. 1e6);
  let finite = List.for_all (fun l -> Float.is_finite l.Report.value) lines in
  let problems =
    o.Workloads.problems
    @ List.map (fun k -> "unknown metric " ^ k) unknown
    @ if finite then [] else [ "a metric is not a finite number" ]
  in
  List.iter (fun m -> print_endline ("problem: " ^ m)) problems;
  let correct = o.Workloads.failed = 0 && problems = [] in
  print_endline
    (Report.result_json ~correct ~attempted:o.Workloads.attempted ~failed:o.Workloads.failed
       ~traced:p.Workloads.traced lines);
  exit (if correct then 0 else 1)

let one_workload opts =
  let name = match get opts "--workload" with Some w -> w | None -> usage () in
  let required key parse = match Option.bind (get opts key) parse with Some v -> v | None -> usage () in
  run_workload name
    {
      Workloads.seed = required "--seed" int_of_string_opt;
      seconds = required "--seconds" float_of_string_opt;
      traced = required "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None);
      size = get_or opts "--size" size_of Workloads.Full;
    }

(* ------------------------------------------------------------------ *)
(* Every workload, each in a fresh process                              *)
(* ------------------------------------------------------------------ *)

let spawn args out =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin fd Unix.stderr in
  Unix.close fd;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128

let run_all opts =
  let seed = get_or opts "--seed" int_of_string_opt 7 in
  let seconds = get_or opts "--seconds" float_of_string_opt (float_of_int Report.run_seconds) in
  let reps = get_or opts "--reps" int_of_string_opt 1 in
  let size = Option.value ~default:"full" (get opts "--size") in
  let out = Option.value ~default:"_webbench/runs" (get opts "--out") in
  let traced = List.mem_assoc "--trace" opts in
  mkdir_p out;
  let failures = ref 0 in
  let one name ~trace file =
    let path = Filename.concat out file in
    let code =
      spawn
        [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
          "--trace"; (if trace then "1" else "0"); "--size"; size ]
        path
    in
    Printf.printf "== %s%s (exit %d, %s)\n" name (if trace then " traced" else "") code path;
    let shown = [ "metric "; "problem: "; "note: " ] in
    List.iter
      (fun l -> if List.exists (fun p -> String.starts_with ~prefix:p l) shown then print_endline l)
      (Compare.read_lines path);
    flush stdout;
    if code <> 0 then incr failures
  in
  List.iter
    (fun { Workloads.name; _ } ->
      for rep = 1 to reps do
        one name ~trace:false (Printf.sprintf "%s.%d.%d.out" name seed rep)
      done;
      if traced then one name ~trace:true (Printf.sprintf "%s.%d.trace.out" name seed))
    Workloads.all;
  if !failures > 0 then begin
    Printf.printf "%d run(s) failed\n" !failures;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_all (options rest)
  | [ "compare"; a; b ] -> exit (Compare.main a b)
  | "compare" :: _ -> usage ()
  | args -> one_workload (options args)
