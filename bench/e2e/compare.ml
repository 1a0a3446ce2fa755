(* [webbench compare A B]: two sets of run outputs, one verdict per
   (workload, metric).

   A set is a directory of files named WORKLOAD.SEED.REP.out, each the
   standard output of one untraced run (as [webbench run] writes them).
   Wall-clock metrics are judged against their bound in
   [Report.end_to_end], the bounds of BENCHMARK.json: worse when B's
   median is worse than A's by more than the bound, better when it is
   better by more than the bound and by more than A's own spread,
   unresolved when either side spreads wider than the bound. Exact
   metrics must print the same digits in every run of one seed, and any
   change is a verdict. *)

type run = { workload : string; seed : string; values : (string * (string * float)) list }

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if not (Filename.check_suffix f ".out") then None
         else
           match String.split_on_char '.' (Filename.chop_suffix f ".out") with
           | [ workload; seed; rep ] when rep <> "trace" ->
             let values =
               List.filter_map
                 (fun l ->
                   Option.map (fun (name, printed, x, _, _) -> (name, (printed, x))) (Report.parse_metric_line l))
                 (read_lines (Filename.concat dir f))
             in
             Some { workload; seed; values }
           | _ -> None)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Positive when [b] is worse than [a]. *)
let worsening (s : Report.spec) a b =
  let d = if a = 0.0 then b -. a else (b -. a) /. Float.abs a in
  match s.Report.better with Report.Lower -> d | Report.Higher -> -.d

let judge (s : Report.spec) a b =
  let ma = Pct.median a and mb = Pct.median b in
  let w = worsening s ma mb in
  match s.Report.kind with
  | Report.Exact _ -> if ma = mb then Same else if w > 0.0 then Worse else Better
  | Report.Wall bound ->
    let spread = Float.max (Pct.spread a) (Pct.spread b) in
    let all_pairs p = List.for_all (fun x -> List.for_all (fun y -> p (worsening s y x)) a) b in
    if spread > bound then
      if all_pairs (fun d -> d < 0.0) then Better
      else if all_pairs (fun d -> d > 0.0) then Worse
      else Unresolved
    else if w > bound then Worse
    else if -.w > bound && -.w > Pct.spread a then Better
    else Same

(* Exact metrics that printed different digits for the same seed. *)
let inexact runs (s : Report.spec) workload =
  let by_seed = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if String.equal r.workload workload then
        Option.iter
          (fun (printed, _) -> Hashtbl.replace by_seed r.seed (printed :: (try Hashtbl.find by_seed r.seed with Not_found -> [])))
          (List.assoc_opt s.Report.name r.values))
    runs;
  Hashtbl.fold (fun seed ps acc -> if List.length (List.sort_uniq compare ps) > 1 then seed :: acc else acc) by_seed []

let main a_dir b_dir =
  let a = load a_dir and b = load b_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let bad = ref false in
  let summary (q1, m, q3) = Printf.sprintf "%.4g [%.4g %.4g]" m q1 q3 in
  Printf.printf "%-15s %-17s %-30s %-30s %6s  %s\n" "workload" "metric" "A median [q1 q3]"
    "B median [q1 q3]" "bound" "verdict";
  List.iter
    (fun w ->
      let values runs name =
        List.filter_map
          (fun r -> if String.equal r.workload w then Option.map snd (List.assoc_opt name r.values) else None)
          runs
      in
      List.iter
        (fun (s : Report.spec) ->
          let av = values a s.Report.name and bv = values b s.Report.name in
          if av <> [] && bv <> [] then begin
            let v = judge s av bv in
            let bound, not_exact =
              match s.Report.kind with
              | Report.Exact _ -> ("exact", inexact a s w @ inexact b s w)
              | Report.Wall b -> (Printf.sprintf "%.2f" b, [])
            in
            if v = Worse || not_exact <> [] then bad := true;
            let q xs = let q1, _, q3 = Pct.quartiles xs in (q1, Pct.median xs, q3) in
            Printf.printf "%-15s %-17s %-30s %-30s %6s  %s%s\n" w s.Report.name (summary (q av))
              (summary (q bv)) bound (verdict_name v)
              (if not_exact = [] then ""
               else " (NOT EXACT at seed " ^ String.concat "," not_exact ^ ")")
          end)
        Report.end_to_end)
    workloads;
  if !bad then 1 else 0
