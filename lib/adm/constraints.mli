(** Link and inclusion constraints (paper, Section 3.2). *)

type path = { scheme : string; steps : string list }
(** An attribute inside a page-scheme, e.g.
    [ProfListPage.ProfList.ToProf]. *)

val path : string -> string list -> path
val path_of_string : string -> path
val path_to_string : path -> string
val path_equal : path -> path -> bool

type link_constraint = {
  link : path;  (** the link attribute the predicate is attached to *)
  source_attr : path;  (** attribute [A] of the source page-scheme *)
  target_scheme : string;
  target_attr : string;  (** mono-valued attribute [B] of the target *)
}
(** Documents that, across link [link], the value of [source_attr] in
    the source page equals [target_attr] in the target page. *)

val link_constraint :
  link:path ->
  source_attr:path ->
  target_scheme:string ->
  target_attr:string ->
  link_constraint

val pp_link_constraint : link_constraint Fmt.t

type inclusion = { sub : path; sup : path }
(** Every URL reachable through [sub] is also reachable through
    [sup]; both are link paths towards the same page-scheme. *)

val inclusion : sub:path -> sup:path -> inclusion
val pp_inclusion : inclusion Fmt.t

val equivalence : path -> path -> inclusion list
(** [P1.L1 ≡ P2.L2] as the two inclusions. *)
