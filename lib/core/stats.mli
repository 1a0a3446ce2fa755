(** Quantitative site statistics for the cost model (paper Section
    6.2, items a–f): page-scheme cardinalities |P|, nested-list
    fanouts |L|, and distinct value counts c_A, keyed by dotted paths
    such as ["SessionPage.CourseList.ToCourse"]. Collected exactly
    from a crawled instance, or declared by hand for what-if
    analyses. *)

type t

val create : unit -> t
val set_cardinality : t -> string -> int -> unit
val set_fanout : t -> string -> float -> unit
val set_distinct : t -> string -> int -> unit

val cardinality : t -> string -> int
val fanout : t -> string -> float
val distinct : t -> string -> int
val find_distinct : t -> string -> int option
(** The distinct count of a path, when one is recorded. *)

val selectivity : t -> string -> float
(** s_A = 1 / c_A. *)

val page_bytes : t -> string -> float
(** Average page size (bytes) of a page-scheme; 0 when unknown. Used
    by the refined byte-based cost model (paper, footnote 8). *)

val key : string -> string list -> string
(** [key scheme steps] builds the dotted lookup key. *)

val of_instance : Websim.Crawler.instance -> t

val repetition : t -> string -> string list -> float
(** r_A = |μ_A(P)| / c_A, the average repetition of values of an
    attribute across the fully unnested relation (item f). *)

val pp : t Fmt.t
