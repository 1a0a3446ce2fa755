(** Pull-based cursor execution of {!Physplan} plans.

    Each operator compiles to a cursor yielding non-empty row batches;
    the consumer pulls from the root, so a [LIMIT] (or an emptiness
    check) stops pulling and upstream operators — in particular the
    page-fetching ones — never do the skipped work (the early-exit
    protocol). Results are the same headers and row multisets as the
    legacy relation-at-a-time evaluator, and on a perfect network the
    same distinct page accesses. A run reads everything through one
    {!source}: pages through its [fetch]/[prefetch], view scans
    through its [views]. *)

type view_answer = {
  va_attrs : string list;
      (** unqualified column names, row order: the view's declared
          attributes in declaration order, as [view_attrs] gives them
          (a scan raises [Invalid_argument] otherwise) *)
  va_rows : Adm.Relation.row array;
  va_heads : int;  (** light connections issued while revalidating *)
  va_gets : int;  (** full downloads forced by observed changes *)
  va_pages : int;  (** stored pages the answer was assembled from *)
}
(** A materialized answer for one [View_scan], with the wire work the
    store spent resolving it (bounded HEAD revalidation, GET only on
    observed change) — keeps the per-query ledger truthful even when
    rows never touch the network. *)

type views = {
  view_attrs : string -> string list option;
      (** declared attributes of a registered view, for lowering *)
  answer : view:string -> view_answer option;
      (** resolve a view scan against the matview store *)
}

type source = {
  fetch : scheme:string -> url:string -> Adm.Value.tuple option;
      (** the page tuple for a URL, or [None] when the page is gone *)
  prefetch : scheme:string -> string list -> unit;
      (** batch hint: a navigation is about to fetch these URLs *)
  window : int;  (** prefetch window the executor hands to [prefetch] *)
  views : views option;
      (** resolves [View_scan]s; without it one raises
          {!Physplan.Not_computable} *)
}
(** Everything a query reads, pages and view scans alike. *)

type op_metrics = {
  mutable rows_out : int;
  mutable batches_out : int;
  mutable pages : int;  (** page accesses this operator issued *)
}

type metrics = {
  ops : op_metrics array;  (** indexed by {!Physplan.op} id *)
  mutable max_batch_rows : int;
  mutable peak_queue_rows : int;
      (** input rows queued inside page-fetch operators *)
  mutable state_rows : int;
      (** rows retained in build tables, dedup sets and page tables *)
  mutable result_rows : int;
  mutable exhausted : bool;
      (** [false] when a limit stopped the pull early *)
}

val peak_resident_rows : metrics -> int
(** Transient residency: the largest row set alive at once outside the
    (separately counted) operator state — [max max_batch_rows
    peak_queue_rows]. *)

val run : ?limit:int -> Adm.Schema.t -> source -> Physplan.plan -> Adm.Relation.t
(** Execute a plan. With [limit], stop pulling (and fetching) once that
    many rows are produced. *)

val run_metrics :
  ?limit:int -> Adm.Schema.t -> source -> Physplan.plan -> Adm.Relation.t * metrics
(** {!run} plus the per-operator and pipeline counters. *)

val lower : Adm.Schema.t -> source -> Nalg.expr -> Physplan.plan
(** {!Physplan.lower} against a source: its prefetch window, and the
    declared attributes of the views its [views] answers. Every
    execution lowers through it, [explain --physical] included. *)

(** {1 Resumable runs}

    The step API a cooperative scheduler drives: [start] compiles the
    plan, each [step] pulls exactly one batch from the root cursor,
    and [snapshot] materializes whatever has been pulled so far — so N
    queries can interleave in batch-sized quanta, and a query stopped
    early (deadline, admission revoked) still yields its partial
    rows. [run]/[run_metrics] are [start] driven to [`Done]. *)

type run

type progress = [ `Pulled of int  (** rows in the batch just pulled *)
                | `Done ]

val start : ?limit:int -> Adm.Schema.t -> source -> Physplan.plan -> run
(** Compile the plan into a paused run; no rows are pulled yet. *)

val step : run -> progress
(** Pull one batch from the root cursor. Returns [`Done] once the
    cursor is exhausted or the limit is reached; further calls keep
    returning [`Done]. *)

val finished : run -> bool
(** [true] once [step] has returned [`Done]. *)

val buffered_rows : run -> int
(** Rows pulled so far (capped at the limit) — the run's contribution
    to a scheduler's resident-rows budget. *)

val snapshot : run -> Adm.Relation.t
(** The rows pulled so far as a relation. Partial unless
    [finished]; the full result (identical to {!run}) once done. *)

val metrics_of : run -> metrics
(** The run's live counters. [metrics.exhausted] is meaningful only
    once [finished]; [metrics.result_rows] is set by [snapshot]. *)

(** {1 Page-scheme helpers}

    For the legacy evaluator in {!Eval}; the binding-pattern search
    also renders call arguments with {!param_string}. *)

val pages_relation :
  Adm.Schema.t -> source -> scheme:string -> alias:string -> string list ->
  Adm.Relation.t
(** The page relation of a URL set, attributes qualified by [alias].
    URLs whose page is gone are skipped (dangling links tolerated). *)

val param_string : Adm.Value.t -> string option
(** Render a scalar value as a form-input string for a templated call
    URL (text and links verbatim, ints in decimal); [None] for nulls,
    booleans and nested rows. *)
