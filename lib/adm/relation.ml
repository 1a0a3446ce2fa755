(* Nested relations, columnar/positional representation.

   A relation is a header — an ordered attribute list compiled into a
   name → offset hash index — plus rows stored as [Value.t array], one
   slot per header position. Operators resolve each attribute name
   once per call into an integer offset and then index arrays per row,
   so per-row work never scans the header. Set-semantics operators
   (distinct, equi_join) key their hash tables on the row arrays
   themselves with structural [Value.hash]/[Value.equal] — no string
   rendering, and no confusion between values of different types that
   print alike.

   Invariant: every row has exactly [Array.length header.names] slots,
   in header order (missing values are padded with Null by [make]).
   Attribute names are full dotted paths, e.g. "ProfPage.Name" or
   "ProfPage.CourseList.ToCourse" after an unnest, so that expressions
   over several page-schemes never collide. Headers may contain
   repeated names (the planner's output renaming produces them when
   two SELECT columns merge onto one plan attribute); the index maps a
   repeated name to its first position and [make] mirrors the value
   into the later ones. *)

type row = Value.t array

type header = {
  names : string array;
  index : (string, int) Hashtbl.t; (* name -> first position *)
  dups : (int * int) list; (* (position, first position) for repeated names *)
}

type t = { header : header; rows : row list }

let header_of_names names =
  let arr = Array.of_list names in
  let index = Hashtbl.create (max 8 (2 * Array.length arr)) in
  let dups = ref [] in
  Array.iteri
    (fun i a ->
      match Hashtbl.find_opt index a with
      | None -> Hashtbl.add index a i
      | Some j -> dups := (i, j) :: !dups)
    arr;
  { names = arr; index; dups = !dups }

let width h = Array.length h.names

let headers_equal h1 h2 =
  Array.length h1.names = Array.length h2.names
  && Array.for_all2 String.equal h1.names h2.names

(* Bindings are folded in first-wins order, like [List.assoc] on the
   old representation; unknown attributes are dropped. *)
let tuple_to_row h tuple =
  let w = width h in
  let row = Array.make w Value.Null in
  let written = Array.make w false in
  List.iter
    (fun (a, v) ->
      match Hashtbl.find_opt h.index a with
      | Some i when not written.(i) ->
        row.(i) <- v;
        written.(i) <- true
      | Some _ | None -> ())
    tuple;
  List.iter (fun (i, j) -> row.(i) <- row.(j)) h.dups;
  row

let row_to_tuple h row = List.init (width h) (fun i -> (h.names.(i), row.(i)))

let empty attrs = { header = header_of_names attrs; rows = [] }

let make attrs tuples =
  let h = header_of_names attrs in
  { header = h; rows = List.map (tuple_to_row h) tuples }

let of_arrays attrs rows =
  let h = header_of_names attrs in
  let w = width h in
  List.iter
    (fun r ->
      if Array.length r <> w then
        invalid_arg
          (Printf.sprintf "Relation.of_arrays: row has %d slots, header has %d"
             (Array.length r) w))
    rows;
  { header = h; rows }

let of_seq attrs rows =
  let h = header_of_names attrs in
  let w = width h in
  let rows =
    Seq.fold_left
      (fun acc r ->
        if Array.length r <> w then
          invalid_arg
            (Printf.sprintf "Relation.of_seq: row has %d slots, header has %d"
               (Array.length r) w);
        r :: acc)
      [] rows
  in
  { header = h; rows = List.rev rows }

let to_seq r = List.to_seq r.rows

let attrs r = Array.to_list r.header.names
let rows r = List.map (row_to_tuple r.header) r.rows
let rows_arrays r = r.rows
let cardinality r = List.length r.rows

let has_attr r a = Hashtbl.mem r.header.index a
let offset_opt r a = Hashtbl.find_opt r.header.index a

let check_attr r a =
  if not (has_attr r a) then
    invalid_arg
      (Printf.sprintf "Relation: unknown attribute %S (have: %s)" a
         (String.concat ", " (attrs r)))

let offset_exn r a =
  check_attr r a;
  Hashtbl.find r.header.index a

(* Set-semantics helpers: hash tables keyed directly on rows (or key
   sub-rows), hashed and compared structurally. PNF plus atomic keys
   make this sound. *)

module Row_key = struct
  type t = row

  let equal r1 r2 =
    Array.length r1 = Array.length r2
    &&
    let rec go i = i < 0 || (Value.equal r1.(i) r2.(i) && go (i - 1)) in
    go (Array.length r1 - 1)

  let hash r =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 r land max_int
end

module Row_tbl = Hashtbl.Make (Row_key)

let distinct r =
  let seen = Row_tbl.create (max 16 (List.length r.rows)) in
  let keep row =
    if Row_tbl.mem seen row then false
    else begin
      Row_tbl.add seen row ();
      true
    end
  in
  { r with rows = List.filter keep r.rows }

let project ?(distinct_rows = true) names r =
  let offs = Array.of_list (List.map (offset_exn r) names) in
  let take row = Array.map (fun i -> row.(i)) offs in
  let projected = { header = header_of_names names; rows = List.map take r.rows } in
  if distinct_rows then distinct projected else projected

let filter_rows pred r = { r with rows = List.filter pred r.rows }

(* Renaming touches only the header: rows are positional and shared. *)
let prefix_attrs prefix r =
  { r with header = header_of_names (List.map (fun a -> prefix ^ "." ^ a) (attrs r)) }

(* Hash equi-join on pairs of attributes [(a1, a2)] where [a1] belongs
   to the left input and [a2] to the right. Output header is left
   attrs followed by the right attrs not already present on the left
   (a shared name is only legal when it is one of the join keys, in
   which case the values agree by construction). Keys are sub-rows of
   the key columns, compared structurally: [Int 1] never joins with
   [Text "1"]. *)
let equi_join keys r1 r2 =
  let k1 = Array.of_list (List.map (fun (a1, _) -> offset_exn r1 a1) keys) in
  let k2 = Array.of_list (List.map (fun (_, a2) -> offset_exn r2 a2) keys) in
  let dup_ok a =
    List.exists (fun (a1, a2) -> String.equal a a1 && String.equal a a2) keys
  in
  Array.iter
    (fun a ->
      if has_attr r1 a && not (dup_ok a) then
        invalid_arg (Fmt.str "Relation.equi_join: ambiguous attribute %S" a))
    r2.header.names;
  let keep2 =
    let acc = ref [] in
    Array.iteri
      (fun i a -> if not (has_attr r1 a) then acc := i :: !acc)
      r2.header.names;
    Array.of_list (List.rev !acc)
  in
  let key_of ks row = Array.map (fun i -> row.(i)) ks in
  (* Null join keys never match, as in SQL. *)
  let has_null ks row = Array.exists (fun i -> Value.is_null row.(i)) ks in
  let index = Row_tbl.create (max 16 (List.length r2.rows)) in
  List.iter
    (fun row -> if not (has_null k2 row) then Row_tbl.add index (key_of k2 row) row)
    r2.rows;
  let w1 = width r1.header in
  let extend row1 =
    if has_null k1 row1 then []
    else
      let matches = Row_tbl.find_all index (key_of k1 row1) in
      List.map
        (fun row2 ->
          let out = Array.make (w1 + Array.length keep2) Value.Null in
          Array.blit row1 0 out 0 w1;
          Array.iteri (fun j i -> out.(w1 + j) <- row2.(i)) keep2;
          out)
        matches
  in
  let out_names =
    attrs r1 @ List.map (fun i -> r2.header.names.(i)) (Array.to_list keep2)
  in
  { header = header_of_names out_names; rows = List.concat_map extend r1.rows }

(* Unnest a multi-valued attribute: the nested tuples' local attribute
   names are qualified with the full path of the nested attribute.
   Tuples whose nested list is empty or Null disappear, as in the
   standard unnest operator. Two passes: the first discovers the inner
   header (first-appearance order, constant-time membership via a hash
   index — the header no longer grows quadratically with new
   attributes), the second builds positional rows directly. *)
let unnest ?(expect = []) attr r =
  let attr_off = offset_exn r attr in
  let outer_offs =
    let acc = ref [] in
    Array.iteri
      (fun i a -> if not (String.equal a attr) then acc := i :: !acc)
      r.header.names;
    Array.of_list (List.rev !acc)
  in
  let nested_of row =
    match row.(attr_off) with
    | Value.Rows inner -> Some inner
    | Value.Null -> None
    | v ->
      invalid_arg
        (Fmt.str "Relation.unnest: attribute %S is %s, not nested rows" attr
           (Value.type_name v))
  in
  (* pass 1: the inner header. [inner_index] is keyed by full name
     ([expect] seeds it: without that an empty input would lose the
     statically-known nested attributes); [local_offset] memoizes the
     local-name lookup so pass 2 never concatenates strings. *)
  let inner_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let local_offset : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let inner_names = ref [] (* reversed *) in
  let n_inner = ref 0 in
  let register_full full =
    match Hashtbl.find_opt inner_index full with
    | Some off -> off
    | None ->
      let off = !n_inner in
      Hashtbl.add inner_index full off;
      inner_names := full :: !inner_names;
      incr n_inner;
      off
  in
  List.iter (fun full -> ignore (register_full full)) expect;
  let register_local local =
    if not (Hashtbl.mem local_offset local) then
      Hashtbl.add local_offset local (register_full (attr ^ "." ^ local))
  in
  List.iter
    (fun row ->
      match nested_of row with
      | None -> ()
      | Some inner -> List.iter (List.iter (fun (a, _) -> register_local a)) inner)
    r.rows;
  (* pass 2: build rows positionally *)
  let n_outer = Array.length outer_offs in
  let w = n_outer + !n_inner in
  let expand row =
    match nested_of row with
    | None -> []
    | Some inner ->
      List.map
        (fun nested ->
          let out = Array.make w Value.Null in
          Array.iteri (fun j i -> out.(j) <- row.(i)) outer_offs;
          List.iter
            (fun (a, v) -> out.(n_outer + Hashtbl.find local_offset a) <- v)
            nested;
          out)
        inner
  in
  let names =
    Array.to_list (Array.map (fun i -> r.header.names.(i)) outer_offs)
    @ List.rev !inner_names
  in
  { header = header_of_names names; rows = List.concat_map expand r.rows }

let column attr r =
  let off = offset_exn r attr in
  List.map (fun row -> row.(off)) r.rows

let compare_rows row1 row2 =
  let n = Array.length row1 and m = Array.length row2 in
  let rec go i =
    if i >= n || i >= m then Int.compare n m
    else match Value.compare row1.(i) row2.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let sort_rows r = { r with rows = List.sort compare_rows r.rows }

let equal r1 r2 =
  headers_equal r1.header r2.header
  && List.equal Row_key.equal (sort_rows r1).rows (sort_rows r2).rows

(* ASCII table printing for examples and the CLI. *)
let pp ppf r =
  let cell v = Value.to_display v in
  let names = Array.to_list r.header.names in
  let widths =
    List.mapi
      (fun i a ->
        List.fold_left
          (fun w row -> max w (String.length (cell row.(i))))
          (String.length a) r.rows)
      names
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let row cells =
    "|"
    ^ String.concat "|" (List.map2 (fun s w -> " " ^ pad s w ^ " ") cells widths)
    ^ "|"
  in
  Fmt.pf ppf "%s@\n%s@\n%s@\n" line (row names) line;
  List.iter
    (fun r -> Fmt.pf ppf "%s@\n" (row (Array.to_list (Array.map cell r))))
    r.rows;
  Fmt.pf ppf "%s (%d rows)" line (List.length r.rows)
