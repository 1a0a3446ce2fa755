(* Spans recorded by the benchmark around its own calls into each
   layer's public functions (no instrumentation inside the library).

   A span keeps its name, start and end on the monotonic clock, the
   span that was open when it started (its parent), the query it
   belongs to and the words allocated between start and end on the
   calling domain. Spans live in an in-memory array and are written
   out once the run ends. A layer's self time is its span's duration
   minus the part of that interval covered by its direct children. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far by the calling domain. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  name : string;
  start : int;  (** ns, monotonic *)
  stop : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  qid : int;  (** query the span belongs to, -1 when none *)
  alloc : float;  (** words allocated while the span was open *)
}

type t = { mutable spans : span array; mutable n : int; mutable current : int }

let dummy = { name = ""; start = 0; stop = 0; parent = -1; qid = -1; alloc = 0.0 }
let create () = { spans = Array.make 1024 dummy; n = 0; current = -1 }

let spans t = Array.sub t.spans 0 t.n

let span ?(qid = -1) t name f =
  if t.n = Array.length t.spans then begin
    let grown = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 grown 0 t.n;
    t.spans <- grown
  end;
  let id = t.n and parent = t.current in
  t.n <- t.n + 1;
  t.current <- id;
  let a0 = alloc_words () in
  let start = now_ns () in
  let finish () =
    let stop = now_ns () in
    t.spans.(id) <- { name; start; stop; parent; qid; alloc = alloc_words () -. a0 };
    t.current <- parent
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* [span] when tracing, a plain call otherwise. *)
let within ?qid tr name f = match tr with None -> f () | Some t -> span ?qid t name f

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) sorted
  in
  total

let children spans =
  let kids = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent))
    spans;
  kids

(* Self time (ns) and self allocation (words) of every span. *)
let self_times spans =
  let kids = children spans in
  Array.mapi
    (fun i s ->
      let ivs = List.map (fun c -> (spans.(c).start, spans.(c).stop)) kids.(i) in
      let child_alloc = List.fold_left (fun acc c -> acc +. spans.(c).alloc) 0.0 kids.(i) in
      ( s.stop - s.start - covered ~lo:s.start ~hi:s.stop ivs,
        Float.max 0.0 (s.alloc -. child_alloc) ))
    spans

type layer = {
  layer : string;
  count : int;
  total_ns : int;
  self_ns : int;
  self_alloc : float;  (** words *)
  durations_ms : float list;
  selfs_ms : float list;
  self_allocs : float list;  (** words, one per span *)
}

let layers spans =
  let selfs = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let self, self_alloc = selfs.(i) in
      let l =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None ->
          {
            layer = s.name; count = 0; total_ns = 0; self_ns = 0; self_alloc = 0.0;
            durations_ms = []; selfs_ms = []; self_allocs = [];
          }
      in
      Hashtbl.replace tbl s.name
        {
          l with
          count = l.count + 1;
          total_ns = l.total_ns + (s.stop - s.start);
          self_ns = l.self_ns + self;
          self_alloc = l.self_alloc +. self_alloc;
          durations_ms = (float_of_int (s.stop - s.start) /. 1e6) :: l.durations_ms;
          selfs_ms = (float_of_int self /. 1e6) :: l.selfs_ms;
          self_allocs = self_alloc :: l.self_allocs;
        })
    spans;
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)

let find_layer layers name = List.find_opt (fun l -> String.equal l.layer name) layers

(* One JSON object per span, then a last line with the per-layer
   summary. At most 200,000 spans are written; the summary always
   covers every span. *)
let write_jsonl path spans =
  let max_spans = 200_000 in
  let oc = open_out path in
  let origin = if Array.length spans = 0 then 0 else spans.(0).start in
  Array.iteri
    (fun i s ->
      if i < max_spans then
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"qid\":%d,\"alloc_words\":%.0f}\n"
          i s.name (s.start - origin) (s.stop - origin) s.parent s.qid s.alloc)
    spans;
  let ls = layers spans in
  Printf.fprintf oc "{\"layers\":[%s]}\n"
    (String.concat ","
       (List.map
          (fun l ->
            Printf.sprintf
              "{\"layer\":%S,\"count\":%d,\"total_ms\":%.3f,\"self_ms\":%.3f,\"self_alloc_words\":%.0f}"
              l.layer l.count
              (float_of_int l.total_ns /. 1e6)
              (float_of_int l.self_ns /. 1e6)
              l.self_alloc)
          ls));
  close_out oc
