(** Plan selection (paper Algorithm 1, Section 6.3): translate the
    conjunctive query to algebra over external relations, expand
    default navigations (rule 1), eliminate repeated navigations
    (rule 4), push and prune joins (rules 8/9 with join reordering)
    over groups of equivalent subexpressions, then extract one
    candidate per class with its selections (rule 6 + commutation) and
    projections (rules 3/5/7 via pruning) pushed, and keep the
    cheapest.

    Every stage of one {!enumerate} call works on the nodes of one
    interned plan memo ({!Memo}): each distinct subtree is hashed
    once, shallowly, and a rule output is interned against the plan it
    rewrote, so only its rebuilt nodes are visited. That intern step
    is the join phase's and the soundness check's dedup, and each node's
    output attributes, links, typed environment, cost estimate and
    plan key are computed once, from its children's, and reused by
    every later stage. The memo lives exactly as long as the call; the
    plan space, costs and diagnostics are those of the context-free
    functions. *)

type plan = { expr : Nalg.expr; cost : float; card : float }

type view_context = {
  vc_index : Viewmatch.t;
      (** filter tree finding registered views that subsume a query
          occurrence *)
  vc_econ : Cost.view_econ;
      (** light-connection price snapshot — a view it does not price
          is not materialized and is never offered as an access path *)
  vc_env : string -> Typecheck.env option;
      (** typed attribute environment per view, for the soundness gate *)
}
(** Registered views offered to the enumeration as access paths;
    typically built from a {!Viewstore.t}. *)

type substitution = {
  sub_view : string;  (** the registered view the plan answers from *)
  sub_alias : string;  (** the query occurrence it substitutes *)
  sub_residual : Pred.t;
      (** selection atoms still applied above the view scan *)
  sub_heads : float;  (** priced HEAD revalidations of the scan *)
  sub_gets : float;  (** priced re-downloads (HEADs × change rate) *)
}
(** Provenance of one view substitution in a chosen plan. *)

type outcome = {
  best : plan;
  candidates : plan list;
      (** the well-typed, distinct plans of [explored] left after
          semantic deduplication, sorted by cost *)
  explored : int;
      (** the plans that reached the typecheck gate: one navigation
          plan extracted per equivalence class of the join phase, plus
          the view-scan and binding-pattern plans *)
  merged : int;
      (** view-scan and binding-pattern plans dropped by semantic
          deduplication — an equivalent plan (same
          {!Contain.plan_key}) with lower cost was kept, so the chosen
          plan is unaffected *)
  select : string list;  (** the query's output attributes, in order *)
  view_used : substitution list;
      (** view substitutions of the best plan; empty when the cost
          race chose pure navigation *)
  diagnostics : Diagnostic.t list;
      (** enumeration findings: [E0402] / [E0403] rewrite-soundness
          violations, [E0404] ill-typed
          candidates rejected before costing, [E0601] / [W0602] from
          input-query minimization, [W0605] when the best plan answers
          from a materialized view *)
}

val rename_output : outcome -> Adm.Relation.t -> Adm.Relation.t
(** Rename a result header positionally back to the query's SELECT
    names (plans name columns after the page occurrences they
    navigate, which differ between candidates). *)

(** {1 Rewrite phases}

    The join phase runs over groups ({!join_groups}), and {!classes}
    keeps one root group per equivalence class. The selection and
    projection phases are choices the extraction of each class makes
    ({!extract}): the cheapest member of every group, rule-6 form of
    every selection and rule-7 form of the top projection, a tie going
    to the one met first (the unrewritten form before its rewrites). *)

type join_step = (Nalg.expr * (string -> string)) Rewrite.at
(** A join rule at one position, each output with the renaming of
    attribute names it applies above the rewritten join (rule 4's, the
    identity for the others). *)

val join_steps : pointer_rules:bool -> join_step list
(** The join phase's rules at one position each: rule 4,
    commutation, rotation, then with [pointer_rules] rules 8/9 and 2.
    The tests hold {!join_groups} to the whole-plan closure of the same
    rules. *)

val join_groups :
  ?judge:(by_name:bool -> parent:Memo.node -> child:Memo.node -> unit) ->
  Memo.t ->
  join_step list ->
  Memo.node list ->
  Memo.node list
(** The join phase over {!Memo} groups: the seeds' nodes become
    members of their groups and each step applies at one member's own
    operator ({!join_steps} in {!enumerate}); rotation, whose pattern
    reaches a child's operator, also applies with each member of that
    child's group in its place. An output in the member's group (a
    commutation or rotation) is one more member; an output in another
    group (rules 4, 8/9 and 2) is a rewrite of the group that then
    applies to every operator over it, rule 4's renaming and rule 9's
    side condition included, up to the roots. Returns the witness of
    every root group (a plan of the join phase up to join order), in
    the order they were reached. [judge] sees every member a step adds
    to its own group with the plan it was rewritten from,
    [~by_name:true] (a reordering permutes the columns of a join, which
    only a root's projection puts in order; see
    {!Typecheck.judge_reordering}), and every root reached from another
    root, [~by_name:false]. *)

val classes : Memo.t -> Memo.node list -> Memo.node list
(** The first plan of each equivalence class ({!Memo.key}), in order.
    Keys are computed only where two plans of different multisets of
    key items share a {!Memo.key_stages} hint. *)

val extract : ?constraint_selections:bool -> Memo.t -> Memo.node -> Memo.node
(** One class's candidate from its root group (a plan of {!classes}):
    {!Rewrite.sink}[ ~rule6:constraint_selections] (default [true]),
    then {!Rewrite.prune}[ ~rule7:true]. *)

val rule4_fixpoint : Memo.t -> Memo.node -> Memo.node
(** {!Rewrite.rule4} applied to its fixpoint, taking its first output
    each round, each output interned against the plan it rewrote. It
    ends because every step removes a join. {!enumerate} runs it on
    every expansion before the join phase. *)

val enumerate :
  ?pointer_rules:bool ->
  ?constraint_selections:bool ->
  ?minimize:bool ->
  ?views:view_context ->
  ?bindings:(Conjunctive.t -> Nalg.expr list) ->
  Adm.Schema.t -> Stats.t -> View.registry -> Conjunctive.t -> outcome
(** Raises [Invalid_argument] when no computable plan exists.
    [pointer_rules] (default true) enables rules 2/8/9;
    [constraint_selections] (default true) enables rule 6 alone (the
    projection phase runs either way) — both exist for ablation
    studies. [minimize] (default true) runs {!Contain.minimize_query}
    on the input first (its [E0601] / [W0602] findings land in the
    outcome diagnostics; the original SELECT names are kept for
    {!rename_output}). No phase truncates its search: every plan the
    rules reach is explored. The join phase runs over groups
    ({!join_groups}), and one candidate is extracted per equivalence
    class ({!extract}) and judged against its class's plan. A query
    {!Contain.minimize_query} proves unsatisfiable ([E0601]) is
    planned with {!Pred.falsum} for its WHERE, which sinking puts on an
    entry page. Every rewrite is checked by {!Typecheck.judge};
    ill-typed candidates are rejected before costing, and view-scan
    and binding-pattern plans equivalent under {!Contain.plan_key} are
    deduplicated after the cost sort ([merged]). [views] opens
    registered-view access paths: each query occurrence may also
    resolve to a scan of a materialized view that subsumes it, the
    scan priced by the light-connection economics of [vc_econ]
    against pure navigation — a fresh view wins, a stale view over
    churny schemes loses. A chosen view plan
    is recorded in [view_used] and flagged [W0605]. [bindings] supplies
    binding-pattern rewriting candidates (chains of [Call] operators
    over parameterized entry points, typically
    [Bindings.planner_hook]) for the minimized query; like view scans
    they bypass the navigation rewrites and rejoin at the costing
    stage, subject to the same typecheck gate, semantic deduplication
    and cost race. *)

val plan_sql :
  ?pointer_rules:bool ->
  ?constraint_selections:bool ->
  ?minimize:bool ->
  ?views:view_context ->
  ?bindings:(Conjunctive.t -> Nalg.expr list) ->
  Adm.Schema.t -> Stats.t -> View.registry -> string -> outcome

val run :
  ?views:view_context ->
  ?bindings:(Conjunctive.t -> Nalg.expr list) ->
  Adm.Schema.t -> Stats.t -> View.registry -> Eval.source -> string ->
  outcome * Adm.Relation.t
(** Plan, execute the best plan, rename the output columns. [views]
    opens view access paths to the planner; the source's [views]
    (typically {!Viewstore.answerer}) answers a chosen view scan from
    the store. *)
