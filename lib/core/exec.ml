(* Pull-based cursor execution of physical plans.

   Each physical operator compiles to a cursor: [next ()] returns the
   next non-empty batch of positional rows, or [None] once exhausted.
   The consumer pulls from the root, so a [LIMIT] (or an emptiness
   check) simply stops pulling — upstream operators never do the work,
   and in particular a page fetch never downloads pages the answer
   does not need (the early-exit protocol).

   The operators reproduce the legacy relation-at-a-time semantics of
   {!Eval} exactly — same output headers, same multisets of rows, and
   on a perfect network the same distinct page accesses — they just
   never materialize intermediate relations:

   - [Fetch], the one page-reading operator (entry point, followed
     link or form call), holds a queue of pending input rows and
     processes them in groups of at most [window], deduping their URLs
     against a per-operator URL table (each distinct URL is fetched
     once per operator, exactly the paper's distinct-access count) and
     handing the fetch engine one prefetch window per group; without
     an input it fetches its one URL once;
   - [Hash_join] drains only its build side (chosen by the planner)
     into a hash table and streams the probe side through it;
   - [Stream_unnest] expands each batch against the statically
     inferred inner header, so the header never depends on the data.

   Batches are value arrays, not cons lists: each operator fills a
   flat [row array] (rows themselves are positional value arrays, so a
   batch is a row-major column block), sized once per batch — O(1)
   length, no per-row cons cells on the hot path, and the run buffer
   blits batches instead of walking them.

   Per-operator counters (rows, batches, page accesses) feed
   [explain --physical] and the exec benchmark. *)

type source = {
  fetch : scheme:string -> url:string -> Adm.Value.tuple option;
      (* the page tuple for a URL, or None when the page is gone *)
  prefetch : scheme:string -> string list -> unit;
      (* batch hint: a navigation is about to fetch these URLs *)
  window : int; (* prefetch window the executor hands to [prefetch] *)
}

(* A materialized answer for one [View_scan]: the store (through
   {!Viewstore}) resolves the view with bounded HEAD revalidation and
   reports the wire work it spent, so the per-query ledger stays
   truthful even when rows never touch the network. *)
type view_answer = {
  va_attrs : string list; (* unqualified column names, row order *)
  va_rows : Adm.Relation.row array;
  va_heads : int; (* light connections issued while revalidating *)
  va_gets : int; (* full downloads forced by observed changes *)
  va_pages : int; (* stored pages the answer was assembled from *)
}

type views = {
  view_attrs : string -> string list option;
      (* declared attributes of a registered view, for lowering *)
  answer : view:string -> view_answer option;
      (* resolve a view scan against the matview store *)
}

type op_metrics = {
  mutable rows_out : int;
  mutable batches_out : int;
  mutable pages : int; (* page accesses this operator issued *)
}

type metrics = {
  ops : op_metrics array; (* indexed by Physplan op id *)
  mutable max_batch_rows : int;
  mutable peak_queue_rows : int; (* input rows queued inside page fetches *)
  mutable state_rows : int; (* rows retained in build tables / dedup sets / page tables *)
  mutable result_rows : int;
  mutable exhausted : bool; (* false when a limit stopped the pull early *)
}

(* Transient residency of the pipeline: the largest row set alive at
   once outside the (separately counted) operator state. *)
let peak_resident_rows m = max m.max_batch_rows m.peak_queue_rows

type batch = Adm.Relation.row array

type cursor = {
  attrs : string list;
  next : unit -> batch option; (* batches are non-empty *)
}

(* ------------------------------------------------------------------ *)
(* Array batch helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* In-place-style filter: collect surviving indices, then copy once. *)
let afilter p (a : batch) : batch =
  let n = Array.length a in
  let idx = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if p a.(i) then begin
      idx.(!k) <- i;
      incr k
    end
  done;
  if !k = n then a
  else if !k = 0 then [||]
  else begin
    let out = Array.make !k a.(idx.(0)) in
    for j = 1 to !k - 1 do
      out.(j) <- a.(idx.(j))
    done;
    out
  end

(* filter_map into a batch allocated lazily at source size. *)
let afilter_map f (a : batch) : batch =
  let n = Array.length a in
  let buf = ref [||] in
  let k = ref 0 in
  for i = 0 to n - 1 do
    match f a.(i) with
    | None -> ()
    | Some row ->
      if !k = 0 then buf := Array.make n row;
      !buf.(!k) <- row;
      incr k
  done;
  if !k = n then !buf else if !k = 0 then [||] else Array.sub !buf 0 !k

(* Growable batch for operators whose per-row fan-out varies
   (joins, unnests): amortized doubling, one copy at the end. *)
module Rowbuf = struct
  type t = { mutable arr : Adm.Relation.row array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let push b row =
    if b.len = Array.length b.arr then begin
      let grown = Array.make (max 16 (2 * b.len)) row in
      Array.blit b.arr 0 grown 0 b.len;
      b.arr <- grown
    end;
    b.arr.(b.len) <- row;
    b.len <- b.len + 1

  let push_list b rows = List.iter (push b) rows

  let contents b : batch =
    if b.len = Array.length b.arr then b.arr else Array.sub b.arr 0 b.len
end

(* ------------------------------------------------------------------ *)
(* Page-scheme helpers                                                 *)
(* ------------------------------------------------------------------ *)

let scheme_attr_names (schema : Adm.Schema.t) scheme =
  let ps = Adm.Schema.find_scheme_exn schema scheme in
  Adm.Page_scheme.url_attr
  :: List.map
       (fun (d : Adm.Page_scheme.attr_decl) -> d.Adm.Page_scheme.name)
       (Adm.Page_scheme.attrs ps)

(* Positional row builder for wrapped page tuples: they list the URL
   attribute followed by the scheme attributes in declaration order —
   exactly the header — so the common case is a straight lock-step
   copy; any straggler binding falls back to a lookup. *)
let page_row_builder names =
  let width = List.length names in
  fun tuple ->
    let row = Array.make width Adm.Value.Null in
    let rec go i names bindings =
      match names with
      | [] -> ()
      | a :: names' -> (
        match bindings with
        | (b, v) :: rest when String.equal a b ->
          row.(i) <- v;
          go (i + 1) names' rest
        | _ ->
          (match Adm.Value.find tuple a with
          | Some v -> row.(i) <- v
          | None -> ());
          go (i + 1) names' bindings)
    in
    go 0 names tuple;
    row

(* Render a scalar value as a form-input string, the executor's side
   of the templated-URL contract: sitegen publishes pages under
   [Page_scheme.bound_url] over the ground truth's own strings, so the
   rendering must be the identity on text. *)
let param_string (v : Adm.Value.t) : string option =
  match Adm.Value.as_text v with
  | Some s -> Some s
  | None -> (
    match Adm.Value.as_int v with
    | Some i -> Some (string_of_int i)
    | None -> Adm.Value.as_link v)

let pages_relation schema source ~scheme ~alias urls =
  let names = scheme_attr_names schema scheme in
  let row_of_tuple = page_row_builder names in
  source.prefetch ~scheme urls;
  let rows =
    List.filter_map
      (fun url -> Option.map row_of_tuple (source.fetch ~scheme ~url))
      urls
  in
  Adm.Relation.prefix_attrs alias (Adm.Relation.of_arrays names rows)

(* ------------------------------------------------------------------ *)
(* Header arithmetic                                                   *)
(* ------------------------------------------------------------------ *)

let index_of attrs =
  let tbl = Hashtbl.create (max 8 (2 * List.length attrs)) in
  List.iteri (fun i a -> if not (Hashtbl.mem tbl a) then Hashtbl.add tbl a i) attrs;
  tbl

let offset_exn who attrs tbl a =
  match Hashtbl.find_opt tbl a with
  | Some i -> i
  | None ->
    invalid_arg
      (Fmt.str "Exec.%s: unknown attribute %S (have: %s)" who a
         (String.concat ", " attrs))

(* The output header of an equi-join, with the same ambiguity rule as
   [Relation.equi_join]: right attrs already on the left are only legal
   as (a, a) join keys; the survivors (keep2) are appended. *)
let join_header keys left_attrs right_attrs =
  let left_tbl = index_of left_attrs in
  let dup_ok a =
    List.exists (fun (a1, a2) -> String.equal a a1 && String.equal a a2) keys
  in
  List.iter
    (fun a ->
      if Hashtbl.mem left_tbl a && not (dup_ok a) then
        invalid_arg (Fmt.str "Relation.equi_join: ambiguous attribute %S" a))
    right_attrs;
  let keep2 =
    let acc = ref [] in
    List.iteri
      (fun i a -> if not (Hashtbl.mem left_tbl a) then acc := i :: !acc)
      right_attrs;
    Array.of_list (List.rev !acc)
  in
  let right_arr = Array.of_list right_attrs in
  let out = left_attrs @ List.map (fun i -> right_arr.(i)) (Array.to_list keep2) in
  (keep2, out)

let combine w1 keep2 row1 row2 =
  let out = Array.make (w1 + Array.length keep2) Adm.Value.Null in
  Array.blit row1 0 out 0 w1;
  Array.iteri (fun j i -> out.(w1 + j) <- row2.(i)) keep2;
  out

(* ------------------------------------------------------------------ *)
(* Compilation to cursors                                              *)
(* ------------------------------------------------------------------ *)

let compile ?views (schema : Adm.Schema.t) (source : source)
    (metrics : metrics) (plan : Physplan.plan) : cursor =
  let window = max 1 plan.Physplan.window in
  let instrument (o : Physplan.op) (c : cursor) =
    let m = metrics.ops.(o.Physplan.id) in
    {
      c with
      next =
        (fun () ->
          match c.next () with
          | None -> None
          | Some batch ->
            let n = Array.length batch in
            m.rows_out <- m.rows_out + n;
            m.batches_out <- m.batches_out + 1;
            if n > metrics.max_batch_rows then metrics.max_batch_rows <- n;
            Some batch);
    }
  in
  let rec go (o : Physplan.op) : cursor =
    let m = metrics.ops.(o.Physplan.id) in
    let c =
      match o.Physplan.node with
      | Physplan.View_scan { view; alias; ext_attrs; filter } ->
        let attrs = List.map (fun a -> alias ^ "." ^ a) ext_attrs in
        let tbl = index_of attrs in
        let pred = Pred.compile ~offset:(Hashtbl.find_opt tbl) filter in
        let answer =
          match views with
          | Some { answer; _ } -> answer
          | None ->
            raise
              (Physplan.Not_computable
                 (Fmt.str "view scan of %s: no view store attached" view))
        in
        let spent = ref false in
        let next () =
          if !spent then None
          else begin
            spent := true;
            match answer ~view with
            | None ->
              raise
                (Physplan.Not_computable
                   (Fmt.str "view scan of %s: view is not materialized" view))
            | Some va ->
              m.pages <- m.pages + va.va_heads + va.va_gets;
              metrics.state_rows <- metrics.state_rows + Array.length va.va_rows;
              (* reorder the stored columns into declaration order *)
              let offs =
                let vtbl = index_of va.va_attrs in
                Array.of_list
                  (List.map (offset_exn "view_scan" va.va_attrs vtbl) ext_attrs)
              in
              let reorder row = Array.map (fun i -> row.(i)) offs in
              let out = afilter_map (fun r -> let r = reorder r in
                                      if pred r then Some r else None)
                  va.va_rows
              in
              (match out with [||] -> None | _ -> Some out)
          end
        in
        { attrs; next }
      | Physplan.Filter { pred; input } ->
        let c = go input in
        let tbl = index_of c.attrs in
        let p = Pred.compile ~offset:(Hashtbl.find_opt tbl) pred in
        let rec next () =
          match c.next () with
          | None -> None
          | Some batch -> (
            match afilter p batch with [||] -> next () | kept -> Some kept)
        in
        { attrs = c.attrs; next }
      | Physplan.Project { attrs; input } ->
        let c = go input in
        let tbl = index_of c.attrs in
        let offs =
          Array.of_list (List.map (offset_exn "project" c.attrs tbl) attrs)
        in
        let seen = Adm.Relation.Row_tbl.create 64 in
        let fresh row =
          let take = Array.map (fun i -> row.(i)) offs in
          if Adm.Relation.Row_tbl.mem seen take then None
          else begin
            Adm.Relation.Row_tbl.add seen take ();
            metrics.state_rows <- metrics.state_rows + 1;
            Some take
          end
        in
        let rec next () =
          match c.next () with
          | None -> None
          | Some batch -> (
            match afilter_map fresh batch with [||] -> next () | kept -> Some kept)
        in
        { attrs; next }
      | Physplan.Hash_join { keys; left; right; build_left } ->
        let lc = go left and rc = go right in
        let ltbl = index_of lc.attrs and rtbl = index_of rc.attrs in
        let k1 =
          Array.of_list
            (List.map (fun (a, _) -> offset_exn "hash_join" lc.attrs ltbl a) keys)
        in
        let k2 =
          Array.of_list
            (List.map (fun (_, a) -> offset_exn "hash_join" rc.attrs rtbl a) keys)
        in
        let keep2, out_attrs = join_header keys lc.attrs rc.attrs in
        let w1 = List.length lc.attrs in
        let key_of ks row = Array.map (fun i -> row.(i)) ks in
        let has_null ks row = Array.exists (fun i -> Adm.Value.is_null row.(i)) ks in
        let build_c, build_k, probe_c, probe_k =
          if build_left then (lc, k1, rc, k2) else (rc, k2, lc, k1)
        in
        let tbl = Adm.Relation.Row_tbl.create 64 in
        let built = ref false in
        let ensure_built () =
          if not !built then begin
            built := true;
            let rec drain () =
              match build_c.next () with
              | None -> ()
              | Some batch ->
                Array.iter
                  (fun row ->
                    if not (has_null build_k row) then begin
                      Adm.Relation.Row_tbl.add tbl (key_of build_k row) row;
                      metrics.state_rows <- metrics.state_rows + 1
                    end)
                  batch;
                drain ()
            in
            drain ()
          end
        in
        let emit probe_row =
          if has_null probe_k probe_row then []
          else
            let matches = Adm.Relation.Row_tbl.find_all tbl (key_of probe_k probe_row) in
            if build_left then
              List.map (fun lrow -> combine w1 keep2 lrow probe_row) matches
            else List.map (fun rrow -> combine w1 keep2 probe_row rrow) matches
        in
        let rec next () =
          ensure_built ();
          match probe_c.next () with
          | None -> None
          | Some batch -> (
            let buf = Rowbuf.create () in
            Array.iter (fun row -> Rowbuf.push_list buf (emit row)) batch;
            match Rowbuf.contents buf with [||] -> next () | out -> Some out)
        in
        { attrs = out_attrs; next }
      | Physplan.Stream_unnest { attr; expect; input } ->
        let c = go input in
        let in_arr = Array.of_list c.attrs in
        let tbl = index_of c.attrs in
        let attr_off = offset_exn "stream_unnest" c.attrs tbl attr in
        let outer_offs =
          let acc = ref [] in
          Array.iteri
            (fun i a -> if not (String.equal a attr) then acc := i :: !acc)
            in_arr;
          Array.of_list (List.rev !acc)
        in
        (* dedupe [expect] preserving order, as the dynamic header
           discovery of [Relation.unnest] would *)
        let expect =
          let seen = Hashtbl.create 16 in
          List.filter
            (fun a ->
              if Hashtbl.mem seen a then false
              else begin
                Hashtbl.add seen a ();
                true
              end)
            expect
        in
        let n_outer = Array.length outer_offs in
        let w = n_outer + List.length expect in
        let prefix = attr ^ "." in
        let plen = String.length prefix in
        let locals : int Adm.String_tbl.t = Adm.String_tbl.create 16 in
        List.iteri
          (fun j full ->
            let local = String.sub full plen (String.length full - plen) in
            Adm.String_tbl.add locals local (n_outer + j))
          expect;
        let out_attrs =
          Array.to_list (Array.map (fun i -> in_arr.(i)) outer_offs) @ expect
        in
        let expand row =
          match row.(attr_off) with
          | Adm.Value.Rows inner ->
            List.map
              (fun nested ->
                let out = Array.make w Adm.Value.Null in
                Array.iteri (fun j i -> out.(j) <- row.(i)) outer_offs;
                List.iter
                  (fun (a, v) ->
                    match Adm.String_tbl.find_opt locals a with
                    | Some off -> out.(off) <- v
                    | None ->
                      invalid_arg
                        (Fmt.str
                           "Exec.stream_unnest: nested attribute %S of %S is not in the static header"
                           a attr))
                  nested;
                out)
              inner
          | Adm.Value.Null -> []
          | v ->
            invalid_arg
              (Fmt.str "Relation.unnest: attribute %S is %s, not nested rows" attr
                 (Adm.Value.type_name v))
        in
        let rec next () =
          match c.next () with
          | None -> None
          | Some batch -> (
            let buf = Rowbuf.create () in
            Array.iter (fun row -> Rowbuf.push_list buf (expand row)) batch;
            match Rowbuf.contents buf with [||] -> next () | out -> Some out)
        in
        { attrs = out_attrs; next }
      | Physplan.Fetch { input; target; scheme; alias; filter } ->
        (* one cursor for every page read: URLs come off the input rows
           (or, without input, the node's one URL); the rows wait in a
           queue and are processed in groups of at most [window], each
           group's distinct unseen URLs forming one prefetch window *)
        let src = Option.map go input in
        let one_shot = Option.is_none src in
        let src_attrs = match src with Some c -> c.attrs | None -> [] in
        let stbl = index_of src_attrs in
        (* a followed link joins on the target's URL attribute, so the
           header check treats the pair as a join key *)
        let (url_of : Adm.Relation.row -> string option), keys =
          match target with
          | Physplan.Entry_url url | Physplan.Form { url = Some url; _ } ->
            ((fun _ -> Some url), [])
          | Physplan.Link link ->
            let off = offset_exn "follow" src_attrs stbl link in
            ( (fun row -> Adm.Value.as_link row.(off)),
              [ (link, alias ^ "." ^ Adm.Page_scheme.url_attr) ] )
          | Physplan.Form { args; url = None } ->
            let ps = Adm.Schema.find_scheme_exn schema scheme in
            let args =
              List.map
                (fun (p, arg) ->
                  match arg with
                  | Nalg.Arg_const v -> (p, `Const v)
                  | Nalg.Arg_attr a ->
                    (p, `Off (offset_exn "call" src_attrs stbl a)))
                args
            in
            let url_of row =
              let rec build acc = function
                | [] -> Adm.Page_scheme.bound_url ps (List.rev acc)
                | (p, `Const v) :: tl -> build ((p, v) :: acc) tl
                | (p, `Off i) :: tl -> (
                  match param_string row.(i) with
                  | Some s -> build ((p, s) :: acc) tl
                  | None -> None)
              in
              build [] args
            in
            (url_of, [])
        in
        let names = scheme_attr_names schema scheme in
        let build_target = page_row_builder names in
        let keep2, out_attrs =
          join_header keys src_attrs (List.map (fun n -> alias ^ "." ^ n) names)
        in
        let w1 = List.length src_attrs in
        let otbl = index_of out_attrs in
        let pred = Pred.compile ~offset:(Hashtbl.find_opt otbl) filter in
        (* one URL table per operator: each distinct URL is fetched at
           most once, the paper's distinct-access count *)
        let pages : Adm.Relation.row option Adm.String_tbl.t =
          Adm.String_tbl.create 64
        in
        (* without input, one empty row stands for the node's one URL:
           a one-shot fetch that holds no state row and counts no
           queued row *)
        let pending : Adm.Relation.row Queue.t = Queue.create () in
        if one_shot then Queue.add [||] pending;
        let src_next = match src with Some c -> c.next | None -> fun () -> None in
        let src_done = ref false in
        let refill () =
          while Queue.is_empty pending && not !src_done do
            match src_next () with
            | None -> src_done := true
            | Some batch ->
              Array.iter (fun r -> Queue.add r pending) batch;
              let q = Queue.length pending in
              if q > metrics.peak_queue_rows then metrics.peak_queue_rows <- q
          done
        in
        let rec next () =
          refill ();
          if Queue.is_empty pending then None
          else begin
            let group =
              Array.init (min window (Queue.length pending)) (fun _ ->
                  Queue.pop pending)
            in
            (* distinct unseen URLs of this group, first-appearance
               order: one prefetch window for the fetch engine *)
            let fresh = Adm.String_tbl.create 16 in
            let want =
              Array.fold_left
                (fun acc row ->
                  match url_of row with
                  | Some url
                    when (not (Adm.String_tbl.mem pages url))
                         && not (Adm.String_tbl.mem fresh url) ->
                    Adm.String_tbl.add fresh url ();
                    url :: acc
                  | Some _ | None -> acc)
                [] group
              |> List.rev
            in
            if want <> [] then begin
              source.prefetch ~scheme want;
              List.iter
                (fun url ->
                  Adm.String_tbl.add pages url
                    (Option.map build_target (source.fetch ~scheme ~url));
                  m.pages <- m.pages + 1;
                  if not one_shot then metrics.state_rows <- metrics.state_rows + 1)
                want
            end;
            let out =
              afilter_map
                (fun row ->
                  match url_of row with
                  | None -> None
                  | Some url -> (
                    match Adm.String_tbl.find_opt pages url with
                    | Some (Some target) ->
                      let joined = combine w1 keep2 row target in
                      if pred joined then Some joined else None
                    | Some None | None -> None))
                group
            in
            match out with [||] -> next () | _ -> Some out
          end
        in
        { attrs = out_attrs; next }
    in
    instrument o c
  in
  go plan.Physplan.root

(* ------------------------------------------------------------------ *)
(* Running a plan                                                      *)
(* ------------------------------------------------------------------ *)

let fresh_metrics (plan : Physplan.plan) =
  {
    ops =
      Array.init plan.Physplan.n_ops (fun _ ->
          { rows_out = 0; batches_out = 0; pages = 0 });
    max_batch_rows = 0;
    peak_queue_rows = 0;
    state_rows = 0;
    result_rows = 0;
    exhausted = false;
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* ------------------------------------------------------------------ *)
(* Resumable runs: the step API                                        *)
(* ------------------------------------------------------------------ *)

(* A run is a compiled cursor tree plus the rows pulled from it so
   far. [step] pulls exactly one root batch, so a cooperative
   scheduler can interleave many runs in batch-sized quanta: between
   two steps a run holds no control state beyond its cursors, and a
   run abandoned mid-way is simply dropped (its partial rows remain
   readable through [snapshot]). *)
type run = {
  r_root : cursor;
  r_metrics : metrics;
  r_limit : int option;
  mutable r_buf : batch list; (* newest batch first *)
  mutable r_count : int;
  mutable r_done : bool;
}

type progress = [ `Pulled of int | `Done ]

let start ?limit ?views (schema : Adm.Schema.t) (source : source)
    (plan : Physplan.plan) : run =
  let metrics = fresh_metrics plan in
  let root = compile ?views schema source metrics plan in
  { r_root = root; r_metrics = metrics; r_limit = limit; r_buf = [];
    r_count = 0; r_done = false }

let finished r = r.r_done
let metrics_of r = r.r_metrics

let buffered_rows r =
  match r.r_limit with Some l -> min l r.r_count | None -> r.r_count

let step (r : run) : progress =
  if r.r_done then `Done
  else begin
    let enough =
      match r.r_limit with Some l -> r.r_count >= l | None -> false
    in
    if enough then begin
      r.r_metrics.exhausted <- false;
      r.r_done <- true;
      `Done
    end
    else
      match r.r_root.next () with
      | None ->
        r.r_metrics.exhausted <- true;
        r.r_done <- true;
        `Done
      | Some batch ->
        let n = Array.length batch in
        r.r_buf <- batch :: r.r_buf;
        r.r_count <- r.r_count + n;
        `Pulled n
  end

let snapshot (r : run) : Adm.Relation.t =
  let rows = List.concat_map Array.to_list (List.rev r.r_buf) in
  let rows = match r.r_limit with Some l -> take l rows | None -> rows in
  r.r_metrics.result_rows <- List.length rows;
  Adm.Relation.of_seq r.r_root.attrs (List.to_seq rows)

(* ------------------------------------------------------------------ *)
(* Running a plan to completion                                        *)
(* ------------------------------------------------------------------ *)

let run_metrics ?limit ?views (schema : Adm.Schema.t) (source : source)
    (plan : Physplan.plan) : Adm.Relation.t * metrics =
  let r = start ?limit ?views schema source plan in
  let rec drive () = match step r with `Pulled _ -> drive () | `Done -> () in
  drive ();
  (snapshot r, metrics_of r)

let run ?limit ?views schema source plan =
  fst (run_metrics ?limit ?views schema source plan)
