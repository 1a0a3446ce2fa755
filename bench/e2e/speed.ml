(* Host speed.

   The benchmark runs on shared virtual machines whose CPU speed drifts
   by up to a third within a minute: on a 2-vCPU guest the same loop of
   arithmetic took 0.43 to 0.77 s over forty tries, with no steal time
   recorded, so CPU time drifts as much as wall time. A run's wall times
   say as much about its neighbours as about the program, and no run
   length averages out a drift that lasts minutes.

   Every wall-clock figure of the end-to-end metrics is therefore scaled
   to a reference speed. A fixed piece of work that shares no code with
   the system under test, the probe, is timed next to the measured
   operations. A time [t] measured while the probes nearest to it took
   [p] ns on median is reported as [t * nominal_ns / p]: milliseconds
   and seconds at the speed where the probe takes [nominal_ns]. The
   probe hashes, sorts, compares and allocates short-lived strings and
   maps, as the planner does; it tracked the planner's slowdowns better
   than a probe that allocates nothing (quartile spread of 20-second
   medians of join-plan queries 2.5% against 6.5%, unscaled 18%). *)

let nominal_ns = 250_000.0

(* The probes a factor is the median of. *)
let nearest = 21

module Smap = Map.Make (String)

(* Every block it allocates is small enough for the minor heap (the
   table stays at 128 buckets), so only a minor collection can make the
   collector run inside it. *)
let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 200 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 2003)) [ i; i + 1 ]
  done;
  let l = List.init 600 (fun i -> ((i * 7919) mod 1009, string_of_int i)) in
  let m = List.fold_left (fun m (k, v) -> Smap.add v k m) Smap.empty (List.sort compare l) in
  Hashtbl.length h + Smap.cardinal m

(* Every probe of the process kept: its midpoint and duration, ns. *)
let log = ref []

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* Time the work once. A probe during which a minor collection ran,
   and with it a slice of the major collector's debt from the program's
   own work, is dropped: it timed the collector, not the host. Returns
   whether it was kept. Settling the collector before probing instead
   would change the program's heap: a full major collection before
   each burst grew the form site's peak heap from 4 to 27 MB. *)
let probe () =
  let m0 = minor_collections () in
  let t0 = Trace.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  let t1 = Trace.now_ns () in
  let kept = minor_collections () = m0 in
  if kept then log := (t0 + ((t1 - t0) / 2), t1 - t0) :: !log;
  kept

(* Enough kept probes to scale an operation next to them on their own
   (within three times as many tries). *)
let burst () =
  let rec go kept tries =
    if kept < nearest && tries < 3 * nearest then go (if probe () then kept + 1 else kept) (tries + 1)
  in
  go 0 0

(* What a time measured from [t0] to [t1] is multiplied by: [nominal_ns]
   over the median duration of the probes inside that interval and the
   [nearest] closest to it on either side. Probes taken after [t1]
   count, so call it once the operations after the interval have run. *)
let factor_of probes ~t0 ~t1 =
  let closest distance side =
    List.filteri (fun i _ -> i < nearest)
      (List.sort (fun a b -> compare (distance a) (distance b)) side)
  in
  let before = List.filter (fun (at, _) -> at < t0) probes
  and after = List.filter (fun (at, _) -> at > t1) probes in
  let inside = List.filter (fun (at, _) -> at >= t0 && at <= t1) probes in
  match
    inside @ closest (fun (at, _) -> t0 - at) before @ closest (fun (at, _) -> at - t1) after
  with
  | [] -> 1.0
  | close -> nominal_ns /. Pct.median (List.map (fun (_, d) -> float_of_int d) close)

let factor ~t0 ~t1 = factor_of !log ~t0 ~t1

(* The median probe of the whole run, ns: how fast the host ran. *)
let median_ns () = Pct.median (List.map (fun (_, d) -> float_of_int d) !log)
