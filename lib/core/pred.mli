(** Selection predicates: conjunctions of comparisons over attribute
    names (full dotted paths) and constants. Null never satisfies a
    comparison, as in SQL. *)

type operand = Attr of string | Const of Adm.Value.t
type cmp = Eq | Neq | Lt | Le | Gt | Ge
type atom = { left : operand; cmp : cmp; right : operand }

type t = atom list
(** A conjunction; [[]] is true. *)

val atom : operand -> cmp -> operand -> atom
val eq_const : string -> Adm.Value.t -> atom
val eq_attrs : string -> string -> atom

val cmp_to_string : cmp -> string

val operand_equal : operand -> operand -> bool
val atom_equal : atom -> atom -> bool

val orient : atom -> atom
(** Canonical orientation: attributes left of constants, symmetric
    comparisons with sorted operands, strict orders written Lt/Le.
    Truth-preserving (including Null refutation). *)

val falsum : atom
(** The always-false atom [true = false]. *)

val normalize : t -> t
(** Normal form: oriented, constant-folded, sorted, deduped;
    [[falsum]] when refuted (constant
    comparisons fold, and so do self-comparisons no value satisfies:
    [x < x], [x > x], [x <> x]). Idempotent, semantics-preserving. *)

val atom_attrs : atom -> string list
val attrs : t -> string list

val eval_cmp : cmp -> Adm.Value.t -> Adm.Value.t -> bool
val eval_atom : atom -> Adm.Value.tuple -> bool
val eval : t -> Adm.Value.tuple -> bool

val compile : offset:(string -> int option) -> t -> Adm.Value.t array -> bool
(** Compile the predicate against a header: each attribute is resolved
    to a column offset once (via [offset]), and the returned closure
    evaluates positional rows without assoc lookups. Attributes with
    no offset read as Null. The {!normalize}d form is compiled. *)

val subst_attr : from:string -> into:string -> t -> t
val map_attrs : (string -> string) -> t -> t

val pp_atom : atom Fmt.t
val pp : t Fmt.t
val to_string : t -> string
