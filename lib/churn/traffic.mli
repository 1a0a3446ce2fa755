(** The seeded mutation-traffic generator: interprets a {!Profile.t}
    against one {!Websim.Site.t}, driving [touch]/[edit]/[delete]/[put]
    on the site's simulated clock. Everything is a deterministic
    function of (site URL set, profile, seed): the PRNG is a private
    xorshift (no [Random]), the per-tick mutation count is a carried
    fractional accumulator (no sampling noise), and deleted pages are
    remembered as tombstones so an insert is the resurrection of a
    previously-linked URL — keeping the site's link structure
    consistent and the new page discoverable by a re-crawl. *)

type kind = Touch | Edit | Delete | Insert

type t

val create : ?seed:int -> ?protect:string list -> profile:Profile.t -> Websim.Site.t -> t
(** Snapshot the site's URL set (sorted, then shuffled by [seed]) as
    the target population; the first {!Profile.hot_fraction} of the shuffle is
    the hot set. URLs in [protect] (typically the schema's entry
    points) are never deleted — a site keeps its front door. *)

val tick : t -> int
(** Advance the site clock by one tick and apply the mutations due
    under the profile; returns how many were applied. *)

val run_ticks : t -> int -> int
(** [tick] n times; returns the total mutations applied. *)

val ticks : t -> int
val applied : t -> int
val applied_by_kind : t -> (kind * int) list
(** Always four pairs, in [Touch; Edit; Delete; Insert] order. *)

val tombstones : t -> int
(** Currently deleted (not yet resurrected) pages. *)

val kind_to_string : kind -> string
