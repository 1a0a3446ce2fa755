(* Selection predicates: conjunctions of comparison atoms over
   attribute names (full dotted paths) and constants. *)

type operand = Attr of string | Const of Adm.Value.t

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type atom = { left : operand; cmp : cmp; right : operand }

type t = atom list (* conjunction; [] = true *)

let atom left cmp right = { left; cmp; right }
let eq_const attr v = { left = Attr attr; cmp = Eq; right = Const v }
let eq_attrs a b = { left = Attr a; cmp = Eq; right = Attr b }

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let operand_equal o1 o2 =
  match o1, o2 with
  | Attr a, Attr b -> String.equal a b
  | Const u, Const v -> Adm.Value.equal u v
  | (Attr _ | Const _), _ -> false

let atom_equal a1 a2 =
  operand_equal a1.left a2.left && a1.cmp = a2.cmp && operand_equal a1.right a2.right

let operand_compare o1 o2 =
  match o1, o2 with
  | Attr a, Attr b -> String.compare a b
  | Attr _, Const _ -> -1
  | Const _, Attr _ -> 1
  | Const u, Const v -> Adm.Value.compare u v

let cmp_rank = function Eq -> 0 | Neq -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let atom_compare a1 a2 =
  match operand_compare a1.left a2.left with
  | 0 -> (
    match Int.compare (cmp_rank a1.cmp) (cmp_rank a2.cmp) with
    | 0 -> operand_compare a1.right a2.right
    | c -> c)
  | c -> c

let operand_attrs = function Attr a -> [ a ] | Const _ -> []

let atom_attrs a = operand_attrs a.left @ operand_attrs a.right

let attrs (p : t) = List.concat_map atom_attrs p

let eval_cmp cmp (v1 : Adm.Value.t) (v2 : Adm.Value.t) =
  (* Null never satisfies any comparison, as in SQL. *)
  if Adm.Value.is_null v1 || Adm.Value.is_null v2 then false
  else
    let c = Adm.Value.compare v1 v2 in
    match cmp with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

let eval_operand (tuple : Adm.Value.tuple) = function
  | Const v -> v
  | Attr a -> ( match Adm.Value.find tuple a with Some v -> v | None -> Adm.Value.Null)

let eval_atom a tuple = eval_cmp a.cmp (eval_operand tuple a.left) (eval_operand tuple a.right)

let eval (p : t) tuple = List.for_all (fun a -> eval_atom a tuple) p

(* ------------------------------------------------------------------ *)
(* Normal form                                                         *)
(* ------------------------------------------------------------------ *)

(* The canonical always-false atom [normalize] collapses a refuted
   conjunction to; [eval_cmp] rejects it like any other false
   constant comparison. *)
let falsum = { left = Const (Adm.Value.Bool true); cmp = Eq; right = Const (Adm.Value.Bool false) }

let flip_cmp = function Eq -> Eq | Neq -> Neq | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

(* Canonical atom orientation. Truth is preserved because
   [eval_cmp c v1 v2 = eval_cmp (flip_cmp c) v2 v1] (Null on either
   side refutes both forms). Attributes go left of constants; between
   two operands of the same kind, symmetric comparisons sort their
   operands and strict orders are written with Lt/Le. *)
let orient (a : atom) =
  let flipped = { left = a.right; cmp = flip_cmp a.cmp; right = a.left } in
  match a.left, a.right with
  | Const _, Attr _ -> flipped
  | Attr _, Const _ -> a
  | (Attr _, Attr _ | Const _, Const _) -> (
    match a.cmp with
    | Eq | Neq -> if operand_compare a.left a.right <= 0 then a else flipped
    | Gt | Ge -> flipped
    | Lt | Le -> a)

(* One atom's static verdict: [`True] and [`False] only when the
   verdict holds for every tuple. [x = x] is NOT always true (Null
   satisfies no comparison), but [x < x], [x > x] and [x <> x] are
   always false whether or not x is Null. *)
let atom_verdict (a : atom) =
  match a.left, a.right with
  | Const v1, Const v2 -> if eval_cmp a.cmp v1 v2 then `True else `False
  | Attr l, Attr r when String.equal l r -> (
    match a.cmp with Neq | Lt | Gt -> `False | Eq | Le | Ge -> `Open)
  | (Attr _ | Const _), _ -> `Open

(* Normal form of a conjunction: orient every atom, constant-fold the
   statically decided ones, sort and dedup. A conjunction with a
   refuted atom collapses to [[falsum]]. Idempotent; used by
   {!compile} so atom order never matters to evaluation. *)
let normalize (p : t) : t =
  let exception False in
  match
    List.filter_map
      (fun a ->
        let a = orient a in
        match atom_verdict a with
        | `True -> None
        | `False -> raise False
        | `Open -> Some a)
      p
  with
  | atoms -> List.sort_uniq atom_compare atoms
  | exception False -> [ falsum ]

(* Positional compilation: resolve each attribute to a column offset
   once, then evaluate rows by array indexing — no assoc scans.
   Attributes missing from the header read as Null, so their atoms are
   always false, as in [eval_operand]. The normal form is compiled, so
   trivially-true atoms cost nothing and a refuted conjunction is one
   constant test. *)
let compile ~offset (p : t) : Adm.Value.t array -> bool =
  let operand = function
    | Const v -> fun _ -> v
    | Attr a -> (
      match offset a with
      | Some i -> fun (row : Adm.Value.t array) -> row.(i)
      | None -> fun _ -> Adm.Value.Null)
  in
  let atoms =
    List.map
      (fun a ->
        let left = operand a.left and right = operand a.right and cmp = a.cmp in
        fun row -> eval_cmp cmp (left row) (right row))
      (normalize p)
  in
  fun row -> List.for_all (fun f -> f row) atoms

let subst_operand ~from ~into = function
  | Attr a when String.equal a from -> Attr into
  | other -> other

let subst_attr ~from ~into (p : t) =
  List.map
    (fun a ->
      { a with left = subst_operand ~from ~into a.left; right = subst_operand ~from ~into a.right })
    p

(* Rename every attribute with a function (used for alias merging). *)
let map_attrs f (p : t) =
  let map_op = function Attr a -> Attr (f a) | Const v -> Const v in
  List.map (fun a -> { a with left = map_op a.left; right = map_op a.right }) p

let pp_operand ppf = function
  | Attr a -> Fmt.string ppf a
  | Const v -> Adm.Value.pp ppf v

let pp_atom ppf a =
  Fmt.pf ppf "%a %s %a" pp_operand a.left (cmp_to_string a.cmp) pp_operand a.right

let pp ppf = function
  | [] -> Fmt.string ppf "true"
  | p -> Fmt.list ~sep:(Fmt.any " ∧ ") pp_atom ppf p

let to_string p = Fmt.str "%a" pp p
