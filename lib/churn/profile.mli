(** Per-site churn profiles: how fast and in what shape a simulated
    site mutates. A profile is pure data; {!Traffic} interprets it on
    the site's simulated clock. Rates are expected mutations per site
    tick and may be fractional — the generator carries the remainder
    deterministically instead of drawing it. *)

val hot_fraction : float
(** Share of the page set forming the hot set: 10%. *)

val hot_bias : float
(** Probability a mutation targets the hot set: 70%. *)

val touch_share : float
(** Among the update mutations, the probability of a pure [touch]
    (Last-Modified bump) rather than a body [edit]: 50%. *)

type t = {
  rate : float;  (** expected mutations per site-clock tick *)
  tombstone_rate : float;  (** share of mutations that delete a page *)
  insert_rate : float;  (** share that resurrect a tombstoned page *)
  burst_every : int;  (** ticks between burst windows; 0 = steady *)
  burst_len : int;  (** ticks a burst lasts *)
  burst_mult : float;  (** rate multiplier inside a burst *)
}

val make :
  ?tombstone_rate:float -> ?insert_rate:float -> ?burst_every:int ->
  ?burst_len:int -> ?burst_mult:float -> rate:float -> unit -> t
(** Defaults: 5% tombstones, 5% resurrections, steady. *)

val zero : t
(** No mutations at all — the frozen-snapshot baseline. *)

val low : t
(** Steady trickle: 0.02 mutations per tick. *)

val high : t
(** Hot churn: 0.3 mutations per tick with periodic bursts. *)
