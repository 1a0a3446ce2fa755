(** The incremental maintenance engine: Algorithm 3's freshness
    machinery run {e continuously}, as a scheduler lane, instead of
    per query. Each slice (one scheduler turn) it

    + drains a bounded number of [CheckMissing] backlog entries
      (Function 2's deferred 404s) with light connections, and
    + revalidates the stored entries with the highest {e staleness
      debt} — age over the view's [max_age] — preferring pages whose
      scheme a resident query's plan can still touch (runtime access
      relevance), HEAD first and a GET refresh only on a proven
      change,

    all of it admitted against the shared wire {!Budget.t}, so the
    bench can trade wire units against answer staleness. *)

type config = {
  max_actions_per_slice : int;  (** revalidations attempted per slice *)
  sweep_per_slice : int;  (** CheckMissing HEADs per slice *)
  debt_threshold : float;  (** act on entries with age/max_age >= this *)
}

val config :
  ?max_actions_per_slice:int -> ?sweep_per_slice:int -> ?debt_threshold:float ->
  unit -> config
(** Defaults: 4 revalidations and 2 sweep HEADs per slice, threshold 0.5. *)

val default_config : config

type counters = {
  mutable slices : int;
  mutable heads : int;  (** revalidation light connections issued *)
  mutable gets_refreshed : int;  (** proven-change re-downloads *)
  mutable validated : int;  (** HEADs that found the entry current *)
  mutable gone : int;
      (** revalidations that hit a 404: entry dropped, deferred to the
          CheckMissing sweep *)
  mutable purged : int;  (** sweep-confirmed 404s dropped from the backlog *)
  mutable swept : int;  (** backlog entries processed *)
  mutable denied : int;  (** actions skipped because the budget was dry *)
}

type t

val create :
  ?config:config -> sla:Sla.t -> budget:Budget.t -> costs:Budget.costs ->
  Webviews.Matview.t -> t
(** The engine acts on the store alone: its HEAD-then-GET protocol
    ({!Webviews.Matview.revalidate}) is the only freshness layer, and
    churn queries read the store, never a page or tuple cache, so
    there is nothing else to invalidate. *)

val slice : t -> relevant:(string -> bool) -> unit
(** One maintenance slice. [relevant scheme] says whether any resident
    query's plan can still touch pages of [scheme]; relevant entries
    outrank irrelevant ones at equal debt, and candidates are ordered
    by (relevance, debt, scheme, url) so slices are deterministic. *)

val candidates : t -> relevant:(string -> bool) -> (string * string) list
(** The [(scheme, url)] entries the next slice would revalidate, most
    urgent first: the [max_actions_per_slice] first entries whose debt
    reaches [debt_threshold], in (relevance, debt, scheme, url) order. *)

val counters : t -> counters
val pp_counters : counters Fmt.t
