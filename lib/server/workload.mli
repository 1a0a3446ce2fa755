(** Seeded workloads for the concurrent query server: SQL queries with
    optional priorities and deadlines, drawn deterministically from
    per-site template pools or loaded from a text file. *)

type entry = {
  sql : string;
  priority : int;  (** larger = scheduled first under [Priority] *)
  deadline_ms : float option;  (** per-query budget of simulated time *)
}

val entry : ?priority:int -> ?deadline_ms:float -> string -> entry

val university_templates : string list
val bibliography_templates : string list
val catalog_templates : string list

val formsite_templates : string list
(** Queries over the form-only site: each carries an equality constant
    (a department name) that seeds the binding-pattern rewriting
    search — no other access path exists there. *)

val generate :
  ?templates:string list -> ?deadline_ms:float -> seed:int -> n:int -> unit ->
  entry list
(** [n] entries drawn from [templates] (default: university) by a
    fixed xorshift PRNG — same seed, same workload, independent of any
    [Random] state. Priorities are drawn from [0..2]; [deadline_ms]
    applies to every entry when given. *)

val of_lines : string list -> entry list
(** Parse workload-file lines: one query per line, blank lines and
    [#] comments skipped, optional [PRIO|SELECT ...] priority prefix. *)

val load : string -> (int * entry) list
(** [of_lines] over a file, each entry paired with its 1-based line
    number. *)
