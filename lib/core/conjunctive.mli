(** Conjunctive queries over the external relations — the user-facing
    SELECT-FROM-WHERE fragment (paper Section 5). *)

type source = { rel : string; alias : string }

type t = {
  select : string list;  (** qualified ["alias.attr"] outputs *)
  from : source list;
  where : Pred.t;  (** conditions over ["alias.attr"] *)
}

val make : select:string list -> from:source list -> where:Pred.t -> t
val source : ?alias:string -> string -> source
val alias_of_attr : string -> string

val validate : View.registry -> t -> string list
(** Unknown relations/attributes, duplicate aliases (empty = valid). *)

val to_algebra : t -> Nalg.expr
(** Left-deep join tree in FROM order over [External] leaves, with a
    selection for residual conditions and a final projection. *)

val pp : t Fmt.t
