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
val operand_compare : operand -> operand -> int
val atom_compare : atom -> atom -> int

val falsum : atom
(** The canonical always-false atom ([true = false]); {!normalize}
    collapses a statically refuted conjunction to [[falsum]]. *)

val orient : atom -> atom
(** Canonical orientation: attributes left of constants, symmetric
    comparisons with sorted operands, strict orders written Lt/Le.
    Truth-preserving (including Null refutation). *)

val atom_verdict : atom -> [ `True | `False | `Open ]
(** Static per-atom verdict, sound for every tuple: constant
    comparisons fold, and self-comparisons that no value (Null
    included) can satisfy ([x < x], [x > x], [x <> x]) are [`False].
    [x = x] stays [`Open] — Null satisfies no comparison. *)

val normalize : t -> t
(** Normal form: oriented, constant-folded, sorted, deduped;
    [[falsum]] when refuted. Idempotent, semantics-preserving. *)

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

val pp_operand : operand Fmt.t
val pp_atom : atom Fmt.t
val pp : t Fmt.t
val to_string : t -> string
