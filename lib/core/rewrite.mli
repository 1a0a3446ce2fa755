(** The NALG rewriting rules of paper Section 6.1. Rule 1 (default
    navigation) lives in {!View.expand}. Rules that restructure joins
    (4, 8, 9) rename attribute references across the whole plan, so
    every rule takes and returns {e root} expressions; each returned
    expression is the root rewritten at one position. *)

val contexts : Nalg.expr -> (Nalg.expr * (Nalg.expr -> Nalg.expr)) list
(** Every subexpression with the function rebuilding the root around a
    replacement. *)

val attr_of_path : string -> Adm.Constraints.path -> string
val available_links :
  Adm.Schema.t -> Nalg.expr ->
  (string * Adm.Constraints.path * string * string) list
(** Link attributes in an expression's output, as
    (attribute, constraint path, alias, target scheme). *)

val referenced_attrs : Nalg.expr -> string list
val references_any_alias : Nalg.expr -> string list -> bool

val rule2 : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** A join whose predicate is a link constraint is a follow. *)

val rule4 : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Eliminate repeated navigations: [(R ◦ A) ⋈_Y R = R ◦ A]. The
    surviving occurrence's aliases replace the dropped one's
    throughout the plan. *)

val rule6 : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Move a selection atom across a link constraint (σ_{B=v} becomes
    σ_{A=v} on the source side). One step per (atom, constraint). *)

val rule8 : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Pointer join:
    [(R1 →L R3) ⋈_{R3.B=R2.A} R2 = (R1 ⋈_{R1.L=R2.L'} R2) →L R3]. *)

val rule9 : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Pointer chase:
    [π_X((R1 →L R3) ⋈_{R3.B=R2.A} R2) = π_X(R2 →L' R3)] given the
    inclusion [R2.L' ⊆ R1.L] and that nothing references [R1]. *)

val rules8_9 : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** [rule8] followed by [rule9], in that order, from one shared search
    for pointer-join/chase matches. *)

val join_commute : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
val join_rotate : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Join associativity/commutativity: expose repeated or joinable
    navigations hidden by the FROM-order left-deep tree. *)

val sink_selections : Adm.Schema.t -> Nalg.expr -> Nalg.expr
(** Push every selection atom to the lowest operator providing its
    attributes (plain commutation; constraint moves are {!rule6}). *)

val prune : Adm.Schema.t -> Nalg.expr -> Nalg.expr
(** Rules 3 and 5 by neededness analysis: drop unnests and navigations
    contributing no needed attribute (projection pushing, rule 7, done
    by analysis rather than π-node placement). *)

val rule7_replace : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Rule 7 as a plan-space rewriting: read a projected attribute from
    the link's source side (the value is replicated there by a link
    constraint); with {!prune} this can eliminate whole navigations. *)

val rule7_literal : Adm.Schema.t -> Nalg.expr -> Nalg.expr list
(** Rule 7 in its literal single-attribute form, for tests. *)
