(** Nested relations with an ordered attribute header, stored
    columnar/positionally: the header carries a name → offset index
    and each row is a [Value.t array] in header order. Attribute names
    are full dotted paths so that several page-schemes can coexist in
    one relation without collisions. *)

type t

type row = Value.t array
(** One row, one slot per header position. Rows handed out by
    {!rows_arrays} are shared, not copied — callers must not mutate
    them. *)

val empty : string list -> t

val make : string list -> Value.tuple list -> t
(** Pads missing attributes with [Null] and reorders bindings to match
    the header. *)

val of_arrays : string list -> row list -> t
(** Positional constructor: rows must already be in header order.
    Raises on a width mismatch. *)

val of_seq : string list -> row Seq.t -> t
(** {!of_arrays} over a row sequence: the cursor-friendly constructor
    used by the streaming executor to sink a pipeline's output without
    an intermediate list. The sequence is forced once. *)

val to_seq : t -> row Seq.t
(** The positional rows as a sequence, in relation order. Shared with
    the relation: do not mutate the arrays. *)

module Row_tbl : Hashtbl.S with type key = row
(** Hash tables keyed on rows (or key sub-rows), hashed and compared
    structurally with {!Value.hash}/{!Value.equal} — the same tables
    the set-semantics operators use internally, exposed for streaming
    operators that need build sides and dedup sets over rows. *)

val attrs : t -> string list

val rows : t -> Value.tuple list
(** Rows as association tuples, converted on demand (the compatibility
    view of the positional storage). *)

val rows_arrays : t -> row list
(** The positional rows themselves, in header order. Shared: do not
    mutate. *)

val cardinality : t -> int
val has_attr : t -> string -> bool

val offset_opt : t -> string -> int option
(** Column offset of an attribute, for positional row access. *)

val distinct : t -> t
val project : ?distinct_rows:bool -> string list -> t -> t

val filter_rows : (row -> bool) -> t -> t
(** Positional selection: no per-row conversion. *)

val prefix_attrs : string -> t -> t

val equi_join : (string * string) list -> t -> t -> t
(** [equi_join [(a1, b1); ...] r1 r2] hash-joins [r1] and [r2] on the
    given attribute pairs (left attribute, right attribute). Null keys
    never match. *)

val unnest : ?expect:string list -> string -> t -> t
(** [unnest l r] unnests multi-valued attribute [l]; nested attributes
    are exposed as ["l.a"]. The paper's unnest-page operator [R ◦ L].
    [expect] lists inner attribute names to keep in the header even
    when the input is empty. *)

val column : string -> t -> Value.t list
val sort_rows : t -> t
val equal : t -> t -> bool
val pp : t Fmt.t
