(** An in-memory web site: URL → HTML page with a Last-Modified
    timestamp, plus a simulated clock and mutation API (the site is
    autonomous and changes without notice, per the paper). *)

type page = { body : string; last_modified : int }
type t

val create : unit -> t

val clock : t -> int
val tick : ?by:int -> t -> unit

val page_count : t -> int
val urls : t -> string list
val mem : t -> string -> bool
val find : t -> string -> page option

val put : t -> url:string -> body:string -> unit
val delete : t -> string -> unit
val touch : t -> string -> unit
(** Bump Last-Modified without changing content. *)

val edit : t -> string -> (string -> string) -> bool
(** Rewrite a page body in place, bumping Last-Modified. *)

val revision : t -> int
