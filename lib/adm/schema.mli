(** Web schemes (paper, Section 3.3): page-schemes, entry points, link
    constraints and inclusion constraints, with lookups, inclusion
    closure and validation. *)

type t

val make :
  name:string ->
  schemes:Page_scheme.t list ->
  link_constraints:Constraints.link_constraint list ->
  inclusions:Constraints.inclusion list ->
  t

val name : t -> string
val schemes : t -> Page_scheme.t list
val link_constraints : t -> Constraints.link_constraint list
val inclusions : t -> Constraints.inclusion list

val find_scheme : t -> string -> Page_scheme.t option
val find_scheme_exn : t -> string -> Page_scheme.t
val scheme_names : t -> string list
val entry_points : t -> Page_scheme.t list

val constraints_on_link : t -> Constraints.path -> Constraints.link_constraint list
val link_target : t -> Constraints.path -> string option

val inclusion_holds : t -> sub:Constraints.path -> sup:Constraints.path -> bool
(** Reflexive-transitive closure of the declared inclusions. *)

val all_link_paths : t -> (Constraints.path * string) list

val values_at_path : Relation.t -> string list -> Value.t list

val validate_instance : t -> (string -> Relation.t option) -> string list
(** Check every declared constraint against a full instance (a lookup
    from page-scheme name to its page relation with unqualified
    attribute names). Returns violations. *)

val pp : t Fmt.t
