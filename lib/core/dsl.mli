(** A Ulixes-flavoured builder for navigation expressions: tracks the
    current qualification prefix so navigations read like the paper's
    path notation,

    {[
      Dsl.(
        start "ProfListPage"
        |> dive "ProfList"
        |> follow "ToProf" ~scheme:"ProfPage"
        |> where_eq "Rank" (Adm.Value.Text "Full")
        |> finish)
    ]} *)

type t

val start : ?alias:string -> string -> t
(** Enter the site at an entry point. *)

val dive : string -> t -> t
(** [◦] — unnest a nested list and move the cursor into it. *)

val follow : ?alias:string -> string -> scheme:string -> t -> t
(** [→] — follow a link attribute; the cursor moves to the target. *)

val where : Pred.atom list -> t -> t
(** σ; attribute names may be cursor-relative. *)

val where_eq : string -> Adm.Value.t -> t -> t

val keep : string list -> t -> t
(** π over cursor-relative (or fully-qualified) names. *)

val join_on : (string * string) list -> t -> t -> t
(** Join two navigations on (left, right) cursor-relative keys; the
    left cursor survives. *)

val expr : t -> Nalg.expr
val finish : t -> Nalg.expr
val cursor : t -> string
val attr : t -> string -> string
(** Qualified name of a cursor-relative attribute. *)
