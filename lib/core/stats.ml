(* Quantitative parameters describing data distribution in the site
   (Section 6.2, items a–f). The paper assumes they are estimated by
   exploring the site (e.g. with WebSQL) and refreshed periodically;
   here they are collected exactly from a crawled instance, or
   declared by hand for what-if analyses.

   Keys:
   - cardinality: page-scheme name                     (|P|)
   - fanout:      "Scheme.L1.L2" nested-list path      (|L|)
   - distinct:    "Scheme.A" / "Scheme.L.A" attr path  (c_A)  *)

type t = {
  cardinality : (string, int) Hashtbl.t;
  fanout : (string, float) Hashtbl.t;
  distinct : (string, int) Hashtbl.t;
  page_bytes : (string, float) Hashtbl.t; (* avg page size per scheme *)
}

let create () =
  {
    cardinality = Hashtbl.create 16;
    fanout = Hashtbl.create 16;
    distinct = Hashtbl.create 64;
    page_bytes = Hashtbl.create 16;
  }

let set_cardinality t scheme n = Hashtbl.replace t.cardinality scheme n
let set_fanout t path n = Hashtbl.replace t.fanout path n
let set_distinct t path n = Hashtbl.replace t.distinct path n

let cardinality t scheme =
  match Hashtbl.find_opt t.cardinality scheme with Some n -> n | None -> 1

let fanout t path = match Hashtbl.find_opt t.fanout path with Some f -> f | None -> 1.0

let distinct t path = match Hashtbl.find_opt t.distinct path with Some n -> n | None -> 10

let set_page_bytes t scheme n = Hashtbl.replace t.page_bytes scheme n

let page_bytes t scheme =
  match Hashtbl.find_opt t.page_bytes scheme with Some b -> b | None -> 0.0

let find_distinct t path = Hashtbl.find_opt t.distinct path

(* Selectivity of an equality on attribute [path]: s_A = 1 / c_A. *)
let selectivity t path = 1.0 /. float_of_int (max 1 (distinct t path))

let key scheme steps = String.concat "." (scheme :: steps)

(* ------------------------------------------------------------------ *)
(* Exact collection from a crawled instance                            *)
(* ------------------------------------------------------------------ *)

(* Walk the nested values of a page relation, recording:
   - for every list path, total items and total parents (fanout);
   - for every atomic path, the set of distinct values. *)
let collect_scheme t scheme (rel : Adm.Relation.t) =
  set_cardinality t scheme (Adm.Relation.cardinality rel);
  let counts : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let values : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let record_value path v =
    let bucket =
      match Hashtbl.find_opt values path with
      | Some b -> b
      | None ->
        let b = Hashtbl.create 64 in
        Hashtbl.add values path b;
        b
    in
    Hashtbl.replace bucket (Adm.Value.to_string v) ()
  in
  let rec walk prefix (tuple : Adm.Value.tuple) =
    List.iter
      (fun (a, v) ->
        let path = key prefix [ a ] in
        match (v : Adm.Value.t) with
        | Adm.Value.Rows rows ->
          let parents, items =
            match Hashtbl.find_opt counts path with Some (p, i) -> (p, i) | None -> (0, 0)
          in
          Hashtbl.replace counts path (parents + 1, items + List.length rows);
          List.iter (walk path) rows
        | Adm.Value.Null -> ()
        | Adm.Value.Bool _ | Adm.Value.Int _ | Adm.Value.Text _ | Adm.Value.Link _ ->
          record_value path v)
      tuple
  in
  List.iter (walk scheme) (Adm.Relation.rows rel);
  Hashtbl.iter
    (fun path (parents, items) ->
      set_fanout t path (if parents = 0 then 0.0 else float_of_int items /. float_of_int parents))
    counts;
  Hashtbl.iter (fun path bucket -> set_distinct t path (Hashtbl.length bucket)) values

let of_instance (instance : Websim.Crawler.instance) =
  let t = create () in
  List.iter (fun (scheme, rel) -> collect_scheme t scheme rel) instance.Websim.Crawler.relations;
  List.iter
    (fun (scheme, avg) -> set_page_bytes t scheme avg)
    (Websim.Crawler.avg_bytes_per_scheme instance);
  t

(* ------------------------------------------------------------------ *)
(* Derived parameters                                                  *)
(* ------------------------------------------------------------------ *)

(* r_A: average repetition of values of attribute [steps] of [scheme]
   across the fully unnested relation, r_A = |μ_A(P)| / c_A (item f of
   the paper). The unnested cardinality multiplies the fanouts of the
   enclosing lists. *)
let repetition t scheme steps =
  (* |μ| = |P| × Π fanouts of the enclosing list prefixes. *)
  let rec mu prefix steps acc =
    match steps with
    | [] -> acc
    | [ _last ] -> acc
    | step :: rest ->
      let path = key prefix [ step ] in
      let f = match Hashtbl.find_opt t.fanout path with Some f -> f | None -> 1.0 in
      mu path rest (acc *. f)
  in
  let total = mu scheme steps (float_of_int (cardinality t scheme)) in
  let c = float_of_int (max 1 (distinct t (key scheme steps))) in
  max 1.0 (total /. c)

let pp ppf t =
  let rows tbl fmt =
    Hashtbl.fold (fun k v acc -> Fmt.str fmt k v :: acc) tbl [] |> List.sort String.compare
  in
  Fmt.pf ppf "@[<v>cardinalities:@,%a@,fanouts:@,%a@,distinct counts:@,%a@]"
    Fmt.(list ~sep:cut string)
    (rows t.cardinality "  |%s| = %d")
    Fmt.(list ~sep:cut string)
    (rows t.fanout "  |%s| = %.2f")
    Fmt.(list ~sep:cut string)
    (rows t.distinct "  c(%s) = %d")
