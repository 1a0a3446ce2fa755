(** Human-readable plan explanations: annotated query-plan trees in
    the spirit of the paper's Figures 2–4, and strategy classification
    for the Section 7 experiments. *)

val pp_annotated : ?views:Cost.view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr Fmt.t
(** The plan tree with per-node cardinality and cost estimates. With
    [views], an [External] leaf naming a priced materialized view
    renders as a view scan with its light-connection cost instead of
    "not computable". *)

val pp_physical :
  ?estimates:Physplan.est array -> ?metrics:Exec.metrics -> unit -> Physplan.plan Fmt.t
(** The physical operator tree, each operator annotated with the cost
    model's estimated rows and page accesses when [estimates] (from
    {!Cost.estimates}) are supplied, and — when [metrics] from a
    {!Exec.run_metrics} execution are supplied — the actual rows,
    batches and page accesses beside them. *)

val to_dot : Nalg.expr -> string
(** Graphviz rendering of the plan, paper-figure style (page relations
    as boxes, link operators as upward edges). *)

val locate : Nalg.expr -> string list -> Nalg.expr option
(** Walk a {!Diagnostic.t} path (["select"], ["join.left"], …) down an
    expression tree to the operator the diagnostic points at. [None]
    when the path does not match the tree. *)

val node_label : Nalg.expr -> string
(** One-line label of an operator (no subtrees). *)

type strategy = Pointer_join | Pointer_chase

val strategy : Nalg.expr -> strategy
(** A plan containing a join of link sets is {!Pointer_join}; a pure
    navigation is {!Pointer_chase}. *)

val strategy_name : strategy -> string
val best_of_strategy : Planner.outcome -> strategy -> Planner.plan option

val pp_outcome : Planner.outcome Fmt.t
val pp_candidates : Planner.outcome Fmt.t

val pp_fetch_report : Eval.fetch_report Fmt.t
(** The merged cost ledger of an evaluation through the fetch engine —
    page accesses and runtime fetch counters in one record, plus the
    simulated elapsed time. *)
