(* Values of the Araneus data model (ADM) subset used by the paper.

   A page is a nested tuple: mono-valued attributes hold atomic values
   (text, integers, links, i.e. URL references), multi-valued
   attributes hold lists of nested tuples. Nested relations are kept
   in Partitioned Normal Form (PNF): atomic attributes of a tuple form
   a key for the tuple within its enclosing list. *)

(* Hash-consed strings. Every text and link atom in the system is
   interned into one global table, so the distinct/join/dedup hot
   paths compare by integer id and read a precomputed hash instead of
   re-walking string bytes per row. The stored [hash] is the same
   structural [Hashtbl.hash] of the string the pre-intern code used,
   which keeps every hash-ordering observable today byte-identical —
   in particular it does NOT depend on [id], so results cannot depend
   on the order in which domains first intern a string. The table is
   mutex-guarded: interning is the only global mutable state touched
   by pool workers (wrapper extraction runs in parallel). It is a
   [String_tbl], so a lookup compares strings with [String.equal]
   rather than the polymorphic compare. *)
module Atom = struct
  type t = { id : int; hash : int; str : string }

  let table : t String_tbl.t = String_tbl.create 4096
  let lock = Mutex.create ()
  let counter = ref 0

  let of_string str =
    Mutex.lock lock;
    let a =
      match String_tbl.find_opt table str with
      | Some a -> a
      | None ->
        let a = { id = !counter; hash = Hashtbl.hash str; str } in
        incr counter;
        String_tbl.add table str a;
        a
    in
    Mutex.unlock lock;
    a

  let str a = a.str
  let id a = a.id
  let equal a b = a.id = b.id
  let hash a = a.hash

  (* String order, not id order: canonical sorts must not depend on
     interning order. Equality short-circuits on the id. *)
  let compare a b = if a.id = b.id then 0 else String.compare a.str b.str

  let interned () =
    Mutex.lock lock;
    let n = String_tbl.length table in
    Mutex.unlock lock;
    n
end

type t =
  | Null
  | Bool of bool
  | Int of int
  | Text of Atom.t
  | Link of Atom.t (* the URL of the referenced page *)
  | Rows of tuple list

and tuple = (string * t) list

let rec equal v1 v2 =
  match v1, v2 with
  | Null, Null -> true
  | Bool b1, Bool b2 -> Bool.equal b1 b2
  | Int i1, Int i2 -> Int.equal i1 i2
  | Text s1, Text s2 | Link s1, Link s2 -> Atom.equal s1 s2
  | Rows r1, Rows r2 ->
    List.length r1 = List.length r2 && List.for_all2 equal_tuple r1 r2
  | (Null | Bool _ | Int _ | Text _ | Link _ | Rows _), _ -> false

and equal_tuple t1 t2 =
  List.length t1 = List.length t2
  && List.for_all2
       (fun (a1, v1) (a2, v2) -> String.equal a1 a2 && equal v1 v2)
       t1 t2

let rec compare v1 v2 =
  let tag = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ -> 2
    | Text _ -> 3
    | Link _ -> 4
    | Rows _ -> 5
  in
  match v1, v2 with
  | Null, Null -> 0
  | Bool b1, Bool b2 -> Bool.compare b1 b2
  | Int i1, Int i2 -> Int.compare i1 i2
  | Text s1, Text s2 | Link s1, Link s2 -> Atom.compare s1 s2
  | Rows r1, Rows r2 -> List.compare compare_tuple r1 r2
  | (Null | Bool _ | Int _ | Text _ | Link _ | Rows _), _ ->
    Int.compare (tag v1) (tag v2)

and compare_tuple t1 t2 =
  List.compare
    (fun (a1, v1) (a2, v2) ->
      match String.compare a1 a2 with 0 -> compare v1 v2 | c -> c)
    t1 t2

let is_atomic = function
  | Null | Bool _ | Int _ | Text _ | Link _ -> true
  | Rows _ -> false

let is_null = function Null -> true | _ -> false

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Text _ -> "text"
  | Link _ -> "link"
  | Rows _ -> "rows"

let rec pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Text s -> Fmt.pf ppf "%S" (Atom.str s)
  | Link u -> Fmt.pf ppf "<%s>" (Atom.str u)
  | Rows rows -> Fmt.pf ppf "[@[%a@]]" (Fmt.list ~sep:Fmt.semi pp_tuple) rows

and pp_tuple ppf tuple =
  let pp_binding ppf (a, v) = Fmt.pf ppf "%s=%a" a pp v in
  Fmt.pf ppf "(@[%a@])" (Fmt.list ~sep:Fmt.comma pp_binding) tuple

let to_string v = Fmt.str "%a" pp v

(* Rendering for result tables and HTML generation: atoms without
   quoting, nested rows summarized. *)
let to_display = function
  | Null -> ""
  | Bool b -> Bool.to_string b
  | Int i -> Int.to_string i
  | Text s -> Atom.str s
  | Link u -> Atom.str u
  | Rows rows -> Fmt.str "[%d rows]" (List.length rows)

let text s = Text (Atom.of_string s)
let int i = Int i
let link u = Link (Atom.of_string u)
let rows r = Rows r

(* Accessors used by wrappers and the evaluator. *)

let as_text = function
  | Text s -> Some (Atom.str s)
  | Link s -> Some (Atom.str s)
  | Int i -> Some (Int.to_string i)
  | Bool b -> Some (Bool.to_string b)
  | Null | Rows _ -> None

let as_int = function
  | Int i -> Some i
  | Text s -> int_of_string_opt (Atom.str s)
  | Null | Bool _ | Link _ | Rows _ -> None

let as_link = function Link u -> Some (Atom.str u) | _ -> None

(* Tuple helpers. Attribute lookup is by exact name. *)

let find tuple attr = List.assoc_opt attr tuple

let find_exn tuple attr =
  match find tuple attr with
  | Some v -> v
  | None ->
    invalid_arg
      (Fmt.str "Value.find_exn: no attribute %S in tuple %a" attr pp_tuple
         tuple)

let has_attr tuple attr = List.mem_assoc attr tuple

let set tuple attr v =
  if has_attr tuple attr then
    List.map (fun (a, v0) -> if String.equal a attr then (a, v) else (a, v0))
      tuple
  else tuple @ [ (attr, v) ]

let remove tuple attr = List.filter (fun (a, _) -> not (String.equal a attr)) tuple

let attrs tuple = List.map fst tuple

(* Structural hash, consistent with [equal]: distinct constructors
   hash apart (so [Int 1] and [Text "1"] never share a bucket chain
   by construction) and no intermediate string is rendered. Text and
   link atoms read the hash interned with them — same value as the
   structural [Hashtbl.hash] of the string, computed once per
   distinct string instead of once per row. *)

let hash_combine acc h = (acc * 31) + h

let rec hash v =
  (match v with
  | Null -> 3
  | Bool b -> hash_combine 5 (Bool.to_int b)
  | Int i -> hash_combine 7 i
  | Text s -> hash_combine 11 (Atom.hash s)
  | Link u -> hash_combine 13 (Atom.hash u)
  | Rows rows -> List.fold_left (fun acc t -> hash_combine acc (hash_tuple t)) 17 rows)
  land max_int

and hash_tuple t =
  List.fold_left
    (fun acc (a, v) -> hash_combine (hash_combine acc (Hashtbl.hash a)) (hash v))
    19 t
  land max_int
