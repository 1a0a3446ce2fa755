(** The NALG rewriting rules of paper Section 6.1. Rule 1 (default
    navigation) lives in {!View.expand}.

    Every rule has one signature, {!rule}: it takes a plan as a node of
    the planning run's {!Memo} and returns that plan rewritten at one
    position per output, in pre-order of the positions. A rule matches
    over the memo's one walk of the plan ({!Memo.walk}), reads the
    logical properties of subexpressions (links, output attributes)
    from the positions' nodes, and rebuilds the plan around a
    position, sharing every untouched subtree physically. Rules that
    restructure joins (4, 8, 9) also rename attribute references
    across the whole plan. *)

type rule = Memo.t -> Memo.node -> Nalg.expr list

type 'a at = Memo.t -> Memo.walk -> int -> 'a list
(** A rule's rewritings at one position of the memo's walk of a plan
    ({!Memo.walk}), each the whole plan rebuilt around that position.
    The planner's join groups match the join rules at a plan's root
    alone (position [0]). *)

val everywhere : 'a at -> Memo.t -> Memo.node -> 'a list
(** The rewritings at every position of the plan, in pre-order. *)

val rule2 : rule
(** A join whose predicate is a link constraint is a follow. *)

val rule4 : rule
(** Eliminate repeated navigations: [(R ◦ A) ⋈_Y R = R ◦ A]. The
    surviving occurrence's aliases replace the dropped one's
    throughout the plan. *)


val references_any_alias : Nalg.expr -> string list -> bool
(** The plan references an attribute qualified by one of the aliases
    ({!rule9}'s side condition on the dropped prefix). *)

val rule6 : rule
(** Move a selection atom across a link constraint (σ_{B=v} becomes
    σ_{A=v} on the source side). One step per (atom, constraint). *)

val rule8 : rule
(** Pointer join:
    [(R1 →L R3) ⋈_{R3.B=R2.A} R2 = (R1 ⋈_{R1.L=R2.L'} R2) →L R3]. *)

val rule9 : rule
(** Pointer chase:
    [π_X((R1 →L R3) ⋈_{R3.B=R2.A} R2) = π_X(R2 →L' R3)] given the
    inclusion [R2.L' ⊆ R1.L] and that nothing references [R1]. *)

val rules8_9 : rule
(** [rule8] followed by [rule9], in that order, from one shared search
    for pointer-join/chase matches. *)

val join_commute : rule
val join_rotate : rule
(** Join associativity/commutativity: expose repeated or joinable
    navigations hidden by the FROM-order left-deep tree. *)

val rule2_at : Nalg.expr at
val rule4_at : (Nalg.expr * (string -> string)) at
val join_commute_at : Nalg.expr at
val join_rotate_at : Nalg.expr at
val rules8_9_at : Nalg.expr at
(** The join rules above at one position: [everywhere rule2_at] is
    {!rule2}, and so on. {!rule4_at} pairs each output with the
    renaming of attribute names it applied to the plan, which the
    planner's join groups apply to every operator above the merged
    join. {!rules8_9}'s outputs are rule 8's at every position, then
    rule 9's; [everywhere rules8_9_at] interleaves them by position. *)

val sink_selections : Memo.t -> Memo.node -> Nalg.expr
(** Push every selection atom to the lowest operator providing its
    attributes (plain commutation; constraint moves are {!rule6}):
    [Memo.expr (sink m n)]. *)

val sink : ?rule6:bool -> Memo.t -> Memo.node -> Memo.node
(** {!sink_selections}'s plan as a node. A subexpression that is a
    member of a {!Memo} group may be replaced by any member of its
    group ({!Memo.alternatives}): the atoms are sunk into each, and the
    one with the least {!Memo.estimate} cost — a well-typed one before
    an ill-typed one, the first on a tie — is kept, once per group and
    set of atoms: [sink m] keeps its choices for every plan it is
    applied to. On a plan with no group members it sinks the plan as
    it stands. With [rule6] (default [false]) each selection is also
    sunk in every form {!rule6}'s closure reaches from it, and the
    cheapest placement is kept the same way, the forms in that
    closure's breadth-first order (the selection as written first). *)

val prune : ?rule7:bool -> Memo.t -> Memo.node -> Nalg.expr
(** Rules 3 and 5 by neededness analysis: drop unnests and navigations
    contributing no needed attribute (projection pushing, rule 7, done
    by analysis rather than π-node placement). With [rule7] (default
    [false]) the plan's top projection is also pruned in every form
    {!rule7_replace}'s closure reaches from it, and the cheapest result
    is kept as {!sink} keeps a form. *)

val rule7_replace : rule
(** Rule 7 as a plan-space rewriting: read a projected attribute from
    the link's source side (the value is replicated there by a link
    constraint); with {!prune} this can eliminate whole navigations. *)

val rule7_literal : rule
(** Rule 7 in its literal single-attribute form, for tests. *)
