(** Web types of the ADM subset (paper, Section 3.1): base types, links
    to page-schemes, and (possibly nested) lists of tuples. *)

type t =
  | Text
  | Int
  | Image
  | Link of string  (** name of the target page-scheme *)
  | List of (string * t) list

val pp : t Fmt.t
val to_string : t -> string

val is_mono : t -> bool
val is_multi : t -> bool
val link_target : t -> string option

val compatible : t -> t -> bool
(** Comparability for predicates and join keys: text and image values
    compare (both render as text), links compare with links regardless
    of target, lists field-wise. *)

val of_value : Value.t -> t option
(** The web type a constant inhabits ([None] for nulls and booleans).
    Links map to [Link ""] — an unknown target — so check the result
    with {!compatible}, not {!equal}. *)

val accepts : t -> Value.t -> bool
(** Structural validation of a value against a type ([Null] accepted
    everywhere). *)

val resolve_in_fields : (string * t) list -> string list -> t option
(** Resolve a dotted path against a field list, traversing nested
    lists. *)
