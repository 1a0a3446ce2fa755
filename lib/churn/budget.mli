(** The explicit wire budget of the maintenance lane, in Function 2's
    cost model: a light connection (HEAD) costs [costs.head] units, a
    full download (GET) costs [costs.get]. The bucket refills by
    [per_turn] units every scheduler turn; an action is admitted while
    the balance is positive and may overdraw it (a HEAD that proves a
    change must be allowed to finish the GET it implies) — the
    overdraft is simply owed against future refills. *)

type costs = { head : float; get : float }

val default_costs : costs
(** head = 1.0, get = 10.0 — the paper's light-connection economics. *)

type t

val create : per_turn:float -> unit -> t
(** The bucket starts with one turn's allowance. *)

val unlimited : unit -> t

val refill : t -> unit
(** Credit one turn's allowance. *)

val balance : t -> float

val admit : t -> float -> bool
(** [admit t cost] — spend [cost] if the balance is positive (the
    result may go negative: overdraft); [false] (and a denial count)
    when the bucket is dry. *)

val force : t -> float -> unit
(** Spend unconditionally (the committed GET after an admitted HEAD). *)

val spent : t -> float
val denied : t -> int
