(** A seeded, deterministic fault/latency model layered over the
    perfect {!Site}/{!Http} transport: one latency profile for every
    URL, transient 5xx episodes, timeouts, truncated bodies, and a
    simulated wall clock (milliseconds) that advances as exchanges are
    charged against it. Everything is a pure function of
    [(seed, url, attempt, epoch)], so workloads replay identically.

    Faults are {e transient by construction}: a faulty URL fails its
    first [k <= max_consecutive] attempts and then succeeds, so a
    fetcher retrying at least [max_consecutive] times is guaranteed
    the fault-free answer. *)

type config = {
  seed : int;
  fault_rate : float;  (** probability a URL has a fault episode *)
  max_consecutive : int;  (** episode length: first 1..n attempts fail *)
}

val config : ?seed:int -> ?fault_rate:float -> ?max_consecutive:int -> unit -> config
(** Defaults: seed 42, no faults, episodes of at most 2 attempts. A
    GET costs 40 ms plus 5 ms per KiB, a HEAD 10 ms, both within
    +/- 20% jitter; a failed attempt is a timeout (a quarter of them,
    1000 ms), a truncated body (a quarter) or a plain 5xx. *)

type outcome =
  | Ok_response
  | Server_error of int  (** transient 5xx: no response body *)
  | Timed_out  (** no response; costs the full timeout window *)
  | Truncated of float  (** response cut off; fraction received *)

type t

val create : config -> t

val now_ms : t -> float
(** The simulated wall clock. *)

val advance : t -> float -> unit
val next_epoch : t -> unit
(** Draw a fresh fault pattern (e.g. between experiment rounds). *)

val fault : t -> url:string -> attempt:int -> outcome
(** Verdict for attempt [n] (1-based) of an exchange on [url]. *)

val latency_ms : t -> kind:[ `Get | `Head ] -> url:string -> attempt:int -> bytes:int -> float
(** Latency of a successful exchange transferring [bytes]. *)

val penalty_ms : t -> url:string -> attempt:int -> outcome -> float
(** Wall-clock cost of a failed attempt. *)

val uniform : t -> salt:string -> url:string -> attempt:int -> float
(** Deterministic uniform draw in [0, 1) keyed on the arguments — the
    jitter source shared with {!Fetcher}'s backoff. *)
