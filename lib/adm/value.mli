(** Values of the ADM subset: atoms (text, int, bool, link) and nested
    lists of tuples in Partitioned Normal Form. *)

(** Hash-consed strings: every text/link atom is interned into one
    global (mutex-guarded, domain-safe) table. Equality is an integer
    id comparison and the structural hash is precomputed at intern
    time, so dedup/join paths stop re-walking string bytes. The hash
    is the plain [Hashtbl.hash] of the string — independent of the
    interning order, so hash-ordering observables cannot depend on
    which domain interned a string first. *)
module Atom : sig
  type t = private { id : int; hash : int; str : string }

  val of_string : string -> t
  (** Intern. Returns the unique atom for this string. *)

  val str : t -> string
  val id : t -> int

  val equal : t -> t -> bool
  (** O(1), by id. Agrees with [String.equal] on the contents. *)

  val compare : t -> t -> int
  (** [String.compare] on the contents (id fast path on equality) —
      canonical orders do not depend on interning order. *)

  val hash : t -> int
  (** Precomputed [Hashtbl.hash] of the contents. *)

  val interned : unit -> int
  (** Number of distinct strings interned so far. *)
end

type t =
  | Null
  | Bool of bool
  | Int of int
  | Text of Atom.t
  | Link of Atom.t  (** URL of the referenced page *)
  | Rows of tuple list  (** multi-valued nested attribute *)

and tuple = (string * t) list

val equal : t -> t -> bool
val equal_tuple : tuple -> tuple -> bool
val compare : t -> t -> int
val compare_tuple : tuple -> tuple -> int

val hash : t -> int
(** Structural, consistent with {!equal}; no string rendering. *)

val is_atomic : t -> bool
val is_null : t -> bool
val type_name : t -> string

val pp : t Fmt.t
val pp_tuple : tuple Fmt.t
val to_string : t -> string

val to_display : t -> string
(** Atom rendering without quoting; nested rows summarized. *)

(** Constructors. [text]/[link] intern their argument. *)

val text : string -> t
val int : int -> t
val link : string -> t
val rows : tuple list -> t

(** Coercions, [None] on type mismatch. *)

val as_text : t -> string option
val as_int : t -> int option
val as_link : t -> string option

(** Tuple helpers. *)

val find : tuple -> string -> t option
val find_exn : tuple -> string -> t
val has_attr : tuple -> string -> bool
val set : tuple -> string -> t -> tuple
val remove : tuple -> string -> tuple
val attrs : tuple -> string list
