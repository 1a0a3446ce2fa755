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

val view_scan_cost : view_econ -> view_cost -> float
(** [view_pages * view_stale * (head_unit + view_change)] in GET
    units — what the {!estimate} charges an [External] occurrence the
    economics knows. *)

val estimate :
  ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> Nalg.expr -> estimate
(** [estimate schema stats root e]: estimate for subexpression [e] of
    plan [root] ([root] provides the alias environment). *)

val cost : ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float
val cardinality : ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float

val byte_cost : ?views:view_econ -> Adm.Schema.t -> Stats.t -> Nalg.expr -> float
(** The refined model of footnote 8: estimated bytes transferred
    (page accesses weighted by average page size per scheme).
    Distinguishes plans that tie on page count. *)

val lower :
  ?views:view_econ -> ?window:int -> Adm.Schema.t -> Stats.t -> Nalg.expr ->
  Physplan.plan
(** {!Physplan.lower} with cost annotations: each operator carries its
    estimated output cardinality and the page accesses it issues (1
    for a scan, the distinct-link count for a navigation, the expected
    HEAD count for a view scan), and join build sides are chosen from
    the cardinality estimates. Raises like {!Physplan.lower}. *)

val elapsed_estimate :
  ?views:view_econ -> ?window:int -> ?get_ms:float -> ?head_ms:float ->
  Adm.Schema.t -> Stats.t -> Nalg.expr -> float
(** Predicted simulated elapsed milliseconds under the batched fetch
    engine, computed from the physical plan actually executed: each
    scan costs one [get_ms] round (default: the network model's 40ms
    round-trip), each navigation [ceil(navigations / window)] rounds,
    and each view scan [ceil(expected HEADs / window)] rounds of
    [head_ms] — which defaults to [get_ms / 10], the Function-2
    HEAD:GET ratio that {!Churn.Budget} charges. Lowering is total on
    well-typed expressions; an expression {!Physplan.lower} rejects
    as not computable estimates [infinity]. *)

val distinct_of : Stats.t -> Nalg.expr -> string -> int option
(** c_A for an attribute of the plan, resolved through its alias. *)

val join_selectivity : Stats.t -> Nalg.expr -> (string * string) list -> float
(** 1 / max(c_A, c_B) per key pair (System-R uniform estimate). *)
