(** Plan selection (paper Algorithm 1, Section 6.3): translate the
    conjunctive query to algebra over external relations, expand
    default navigations (rule 1), eliminate repeated navigations
    (rule 4), push and prune joins (rules 8/9 with join reordering),
    push selections (rule 6 + commutation) and projections (rules
    3/5/7 via pruning), then cost every candidate and keep the
    cheapest. *)

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
  candidates : plan list;  (** all candidates, sorted by cost *)
  explored : int;
  merged : int;
      (** candidates dropped by semantic deduplication — an
          equivalent plan (same {!Contain.plan_key}) with lower cost
          was kept, so the chosen plan is unaffected *)
  select : string list;  (** the query's output attributes, in order *)
  view_used : substitution list;
      (** view substitutions of the best plan; empty when the cost
          race chose pure navigation *)
  diagnostics : Diagnostic.t list;
      (** enumeration findings: [W0401] cap truncations, [E0402] /
          [E0403] rewrite-soundness violations, [E0404] ill-typed
          candidates rejected before costing, [E0601] / [W0602] from
          input-query minimization, [W0605] when the best plan answers
          from a materialized view *)
}

val rename_output : outcome -> Adm.Relation.t -> Adm.Relation.t
(** Rename a result header positionally back to the query's SELECT
    names (plans name columns after the page occurrences they
    navigate, which differ between candidates). *)

val closure :
  ?cap:int ->
  ?on_rewrite:(parent:Nalg.expr -> child:Nalg.expr -> unit) ->
  (Nalg.expr -> Nalg.expr list) list ->
  Nalg.expr list ->
  Nalg.expr list * bool
(** Closure of a seed set under one-step rewritings, deduplicated by
    structural identity ({!Nalg.equal}), with a safety cap. The
    boolean is [true] when the cap truncated the exploration (work was
    still queued). [on_rewrite] fires on every rule application,
    before deduplication. *)

val fixpoint :
  ?max_rounds:int -> (Nalg.expr -> Nalg.expr list) -> Nalg.expr -> Nalg.expr

val enumerate :
  ?cap:int ->
  ?pointer_rules:bool ->
  ?constraint_selections:bool ->
  ?minimize:bool ->
  ?views:view_context ->
  ?bindings:(Conjunctive.t -> Nalg.expr list) ->
  Adm.Schema.t -> Stats.t -> View.registry -> Conjunctive.t -> outcome
(** Raises [Invalid_argument] when no computable plan exists.
    [pointer_rules] (default true) enables rules 2/8/9;
    [constraint_selections] (default true) enables rule 6 — both exist
    for ablation studies. [minimize] (default true) runs
    {!Contain.minimize_query} on the input first (its [E0601] /
    [W0602] findings land in the outcome diagnostics; the original
    SELECT names are kept for {!rename_output}). [cap] overrides the
    per-phase plan-space caps (join 1500, selection / projection 400);
    hitting a cap is reported as a [W0401] diagnostic in the outcome.
    Every rewrite step is checked by {!Typecheck.judge}; ill-typed
    candidates are rejected before costing, and plans equivalent under
    {!Contain.plan_key} are deduplicated after the cost sort
    ([merged]). [views] opens registered-view access paths: each
    query occurrence may also resolve to a scan of a materialized view
    that subsumes it, the scan priced by the light-connection
    economics of [vc_econ] against pure navigation — a fresh view
    wins, a stale view over churny schemes loses. A chosen view plan
    is recorded in [view_used] and flagged [W0605]. [bindings] supplies
    binding-pattern rewriting candidates (chains of [Call] operators
    over parameterized entry points, typically
    [Bindings.planner_hook]) for the minimized query; like view scans
    they bypass the navigation rewrites and rejoin at the costing
    stage, subject to the same typecheck gate, semantic deduplication
    and cost race. *)

val plan_sql :
  ?cap:int ->
  ?pointer_rules:bool ->
  ?constraint_selections:bool ->
  ?minimize:bool ->
  ?views:view_context ->
  ?bindings:(Conjunctive.t -> Nalg.expr list) ->
  Adm.Schema.t -> Stats.t -> View.registry -> string -> outcome

val run :
  ?cap:int ->
  ?views:view_context ->
  ?bindings:(Conjunctive.t -> Nalg.expr list) ->
  ?exec_views:Exec.views ->
  Adm.Schema.t -> Stats.t -> View.registry -> Eval.source -> string ->
  outcome * Adm.Relation.t
(** Plan, execute the best plan, rename the output columns. [views]
    opens view access paths to the planner; [exec_views] (typically
    {!Viewstore.answerer}) lets the executor answer a chosen view scan
    from the store. *)

val substitutions_of : view_context option -> Nalg.expr -> substitution list
(** The view substitutions a plan answers from — one per [External]
    leaf the context prices, with its residual predicate and priced
    HEAD/GET split. *)

val pp_plan : plan Fmt.t
