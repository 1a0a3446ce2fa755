type kind = Touch | Edit | Delete | Insert

type t = {
  site : Websim.Site.t;
  profile : Profile.t;
  mutable state : int64;
  mutable alive : string array; (* target population still on the site *)
  mutable n_alive : int;
  mutable hot : int; (* alive.(0 .. hot-1) is the hot set *)
  protect : (string, unit) Hashtbl.t; (* never deleted *)
  mutable tombs : (string * string) list; (* (url, body at deletion) *)
  mutable ticks : int;
  mutable carry : float; (* fractional mutations owed to the profile *)
  mutable applied : int;
  mutable touches : int;
  mutable edits : int;
  mutable deletes : int;
  mutable inserts : int;
}

(* xorshift64*: deterministic and independent of [Random] (same scheme
   as {!Server.Workload}). *)
let next_state s =
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  Int64.logxor s (Int64.shift_left s 17)

let bounded t n =
  t.state <- next_state t.state;
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical t.state 3) (Int64.of_int n))

let chance t p =
  t.state <- next_state t.state;
  let u =
    Int64.to_float (Int64.shift_right_logical t.state 11) /. 9007199254740992.0
  in
  u < p

let create ?(seed = 42) ?(protect = []) ~profile site =
  let urls = List.sort String.compare (Websim.Site.urls site) in
  let alive = Array.of_list urls in
  let t =
    {
      site;
      profile;
      state = Int64.of_int ((seed * 2) + 0x9E3779B9);
      alive;
      n_alive = Array.length alive;
      hot = 0;
      protect = Hashtbl.create 8;
      tombs = [];
      ticks = 0;
      carry = 0.0;
      applied = 0;
      touches = 0;
      edits = 0;
      deletes = 0;
      inserts = 0;
    }
  in
  List.iter (fun u -> Hashtbl.replace t.protect u ()) protect;
  (* Fisher–Yates off the seeded stream, then the shuffle's prefix is
     the hot set: which pages are "hot" is itself a seed draw. *)
  for i = t.n_alive - 1 downto 1 do
    let j = bounded t (i + 1) in
    let tmp = t.alive.(i) in
    t.alive.(i) <- t.alive.(j);
    t.alive.(j) <- tmp
  done;
  t.hot <-
    (let h = int_of_float (ceil (Profile.hot_fraction *. float_of_int t.n_alive)) in
     max 1 (min t.n_alive h));
  t

let ticks t = t.ticks
let applied t = t.applied
let tombstones t = List.length t.tombs

let applied_by_kind t =
  [ (Touch, t.touches); (Edit, t.edits); (Delete, t.deletes); (Insert, t.inserts) ]

let kind_to_string = function
  | Touch -> "touch"
  | Edit -> "edit"
  | Delete -> "delete"
  | Insert -> "insert"

(* Pick a target index: hot-set biased, uniform otherwise. *)
let pick_target t =
  if t.n_alive = 0 then None
  else
    let hot = min t.hot t.n_alive in
    let i =
      if hot > 0 && chance t Profile.hot_bias then bounded t hot
      else bounded t t.n_alive
    in
    Some i

let swap_remove t i =
  let url = t.alive.(i) in
  if i < t.hot then begin
    (* keep the hot prefix contiguous: close the hot gap with the last
       hot page, then the cold gap with the last page overall *)
    t.alive.(i) <- t.alive.(t.hot - 1);
    t.alive.(t.hot - 1) <- t.alive.(t.n_alive - 1);
    t.hot <- t.hot - 1
  end
  else t.alive.(i) <- t.alive.(t.n_alive - 1);
  t.n_alive <- t.n_alive - 1;
  url

let append_alive t url =
  if t.n_alive >= Array.length t.alive then begin
    let grown = Array.make (max 16 (2 * Array.length t.alive)) "" in
    Array.blit t.alive 0 grown 0 t.n_alive;
    t.alive <- grown
  end;
  t.alive.(t.n_alive) <- url;
  t.n_alive <- t.n_alive + 1

let record t kind =
  t.applied <- t.applied + 1;
  match kind with
  | Touch -> t.touches <- t.touches + 1
  | Edit -> t.edits <- t.edits + 1
  | Delete -> t.deletes <- t.deletes + 1
  | Insert -> t.inserts <- t.inserts + 1

(* A body edit that changes bytes (and Last-Modified) while leaving
   the link structure and extracted attributes alone: an HTML comment
   stamped with the mutation counter. *)
let edit_body t body = body ^ "<!-- rev " ^ string_of_int t.applied ^ " -->"

let mutate_one t =
  let p = t.profile in
  let r =
    (* one draw splits the kind space: [0, tombstone) delete,
       [tombstone, tombstone+insert) insert, rest touch/edit *)
    t.state <- next_state t.state;
    Int64.to_float (Int64.shift_right_logical t.state 11) /. 9007199254740992.0
  in
  if r < p.Profile.tombstone_rate then begin
    (* delete a deletable page (never a protected entry point) *)
    match pick_target t with
    | None -> ()
    | Some i ->
      let url = t.alive.(i) in
      if Hashtbl.mem t.protect url then begin
        (* fall back to a touch rather than skipping the event *)
        Websim.Site.touch t.site url;
        record t Touch
      end
      else begin
        match Websim.Site.find t.site url with
        | None -> ()
        | Some page ->
          let url = swap_remove t i in
          Websim.Site.delete t.site url;
          t.tombs <- (url, page.Websim.Site.body) :: t.tombs;
          record t Delete
      end
  end
  else if r < p.Profile.tombstone_rate +. p.Profile.insert_rate then begin
    match t.tombs with
    | [] -> (
      (* nothing to resurrect: degrade to an update *)
      match pick_target t with
      | None -> ()
      | Some i ->
        let url = t.alive.(i) in
        ignore (Websim.Site.edit t.site url (edit_body t));
        record t Edit)
    | (url, body) :: rest ->
      t.tombs <- rest;
      Websim.Site.put t.site ~url ~body;
      append_alive t url;
      record t Insert
  end
  else begin
    match pick_target t with
    | None -> ()
    | Some i ->
      let url = t.alive.(i) in
      if chance t Profile.touch_share then begin
        Websim.Site.touch t.site url;
        record t Touch
      end
      else begin
        ignore (Websim.Site.edit t.site url (edit_body t));
        record t Edit
      end
  end

let tick t =
  Websim.Site.tick t.site;
  t.ticks <- t.ticks + 1;
  let p = t.profile in
  let rate =
    if
      p.Profile.burst_every > 0
      && t.ticks mod p.Profile.burst_every < p.Profile.burst_len
    then p.Profile.rate *. p.Profile.burst_mult
    else p.Profile.rate
  in
  t.carry <- t.carry +. rate;
  let due = int_of_float t.carry in
  t.carry <- t.carry -. float_of_int due;
  for _ = 1 to due do
    mutate_one t
  done;
  due

let run_ticks t n =
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + tick t
  done;
  !total
