(** Registered views as cost-based access paths. Binds the registry,
    the {!Viewmatch} filter tree and the materialized store of Section
    8 into the two lenses the plan→execute spine needs: a
    {!Cost.view_econ} snapshot pricing each view by light-connection
    economics (HEAD weight 1 vs GET weight 10, scaled by the stored
    pages' staleness and the observed per-scheme change rate), and an
    {!Exec.views} answerer that serves [View_scan] operators from the
    store after a bounded HEAD-revalidation pass over its stalest
    pages. Revalidation outcomes feed the change-rate observations, so
    stale views over churny schemes genuinely lose the cost race until
    maintenance revalidates them. *)

type t

val create : Adm.Schema.t -> View.registry -> Matview.t -> t
(** A store's views. The freshness tolerance is 0 site-clock ticks:
    every stored page older than the current tick counts as stale for
    pricing and gets revalidated ahead of a scan. *)

val store : t -> Matview.t
val index : t -> Viewmatch.t

val econ : t -> Cost.view_econ
(** Price snapshot for the planner: one pass over the store computes
    per-scheme page and staleness totals, shared by every view priced
    from this snapshot — pricing stays flat in registry size. A view
    with nothing materialized under it prices [None] (the planner then
    never chooses it). *)

val answerer :
  ?admit_head:(unit -> bool) -> ?charge_get:(unit -> unit) -> t -> Exec.views
(** The executor's view of the store. A scan revalidates the stalest
    pages under the view oldest-first, ties by scheme then URL — at
    most 64 HEADs, each
    gated by [admit_head] (the churn runtime's wire budget), which is
    asked once per admitted HEAD plus once for a refusal that ends the
    pass, and never once the budget is spent — then evaluates the view's
    navigation over the stored tuples alone: a link whose target is
    not stored is skipped, so the revalidation pass is the scan's
    whole wire work ([va_heads + va_gets] requests). [charge_get]
    fires for each revalidation that had to re-download. Staleness
    beyond the budget is accepted obsolescence: the cost model already
    priced it.

    Each view keeps one extent — its rows and stored-page count —
    tagged with the {!Matview.tuple_version}s of the schemes its
    navigation reads. While those match, a scan reuses the extent
    instead of re-evaluating, and adds its page count to the store's
    [local_hits] as the evaluation would. *)

val scan :
  ?head_budget:int -> ?admit_head:(unit -> bool) -> ?charge_get:(unit -> unit) ->
  t -> view:string -> Exec.view_answer option
(** One view scan, as {!answerer} performs it, with at most
    [head_budget] HEADs (default 64). [None] when the view is unknown
    or has no complete navigation bindings. *)

val observe : t -> string -> changed:bool -> unit
(** Feed one revalidation outcome for a scheme into the change-rate
    observations (maintenance lanes report through this too). *)

val note_plan : t -> Nalg.expr -> unit
(** Record the views a chosen best plan answers from (its [External]
    leaves). Feeds {!chosen_views} and {!relevant_schemes}. *)

val chosen_views : t -> (string * int) list
(** Views used by noted plans, with use counts, sorted by name. *)

val view_schemes : t -> string -> string list
(** Page-schemes under a view's navigation: the stored pages a scan of
    it revalidates and answers from ([[]] for an unknown view). *)

val relevant_schemes : t -> string list
(** Schemes under views that noted plans actually chose — the churn
    runtime's maintenance lane prioritizes these. *)

val context : t -> Planner.view_context
(** The planner's view of this store — filter tree, price snapshot as
    of now, and typed environments — ready to pass as
    [Planner.enumerate ~views]. Take a fresh context per planning run:
    the price snapshot does not track later churn. *)
