(** The page-access cost model (paper Section 6.2):

    - C(entry point) = 1,
    - C(R →L P) = |π_L(R)| (distinct links followed),
    - every local operator costs 0,

    with the paper's Step-1 cardinality rules for intermediate
    results. Deviation (recorded in EXPERIMENTS.md): the paper's table
    states |R →L P| = |P| but its worked examples compute with the
    source cardinality; we use |R →L P| = |R|, which reproduces the
    paper's numbers. *)

type estimate = { cost : float; card : float }

type view_cost = {
  view_rows : float;  (** estimated rows the view scan yields *)
  view_pages : float;  (** pages materialized under the view *)
  view_stale : float;  (** fraction of pages older than max_age, 0..1 *)
  view_change : float;  (** observed per-check change probability, 0..1 *)
  view_attrs : string list;  (** declared attributes, unqualified *)
}
(** A registered materialized view priced as an access path under the
    paper's light-connection economics (Section 8, Function 2): per
    stale page one HEAD, plus a full GET with the observed probability
    the page actually changed. Fresh entries cost nothing. *)

type view_econ = {
  head_unit : float;
      (** HEAD weight relative to GET = 1.0 (Function 2 uses 0.1) *)
  view : string -> view_cost option;
}

val no_views : view_econ
(** No registered views: every [External] stays infinitely costly —
    the behavior of every call site that does not pass [?views]. *)


val estimate :
  ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> Nalg.expr -> estimate
(** [estimate schema stats root e]: estimate for subexpression [e] of
    plan [root] ([root] provides the alias environment). *)

type stats_cache
(** The statistics entries of the attributes resolved so far, each
    looked up once: one cache serves every plan of one query. *)

val stats_cache : Stats.t -> stats_cache

val estimate_node :
  views:view_econ ->
  Adm.Schema.t ->
  stats_cache ->
  (string * string) list ->
  Nalg.expr ->
  estimate list ->
  estimate
(** One step of {!estimate}: the estimate of a node from its
    children's (in {!Nalg.children} order), its attributes resolved
    through an alias environment. {!estimate} applies it bottom-up
    with the root's environment; the planner's memo ({!Memo}) applies
    it once per distinct node with the node's own, which resolves
    every attribute of a plan with unique aliases the same way. *)

val cost : ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float
val cardinality : ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float

val byte_cost : ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float
(** The refined model of footnote 8: estimated bytes transferred
    (page accesses weighted by average page size per scheme).
    Distinguishes plans that tie on page count. *)

val estimates :
  ?views:view_econ -> Adm.Schema.t -> Stats.t -> Physplan.plan -> Physplan.est array
(** The cost model's estimates for each operator of a lowered plan,
    indexed by operator id: the estimated output cardinality of the
    logical subexpression the operator computes
    ({!Physplan.op_to_nalg}), and the page accesses it issues itself
    (1 for a scan, the distinct-link count for a navigation, the
    expected HEAD count for a view scan, 0 for a local operator). *)

val elapsed_estimate :
  ?views:view_econ -> ?window:int -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float
(** Predicted simulated elapsed milliseconds under the batched fetch
    engine, computed from the physical plan {!Physplan.lower} gives
    (the one every execution runs) and its {!estimates}: each
    scan costs one 40 ms round (the network model's round-trip), each
    navigation [ceil(navigations / window)] rounds, and each view scan
    [ceil(expected HEADs / window)] rounds of 4 ms — the Function-2
    HEAD:GET ratio of 1:10 that {!Churn.Budget} charges. Lowering is total on
    well-typed expressions; an expression {!Physplan.lower} rejects
    as not computable estimates [infinity]. *)

