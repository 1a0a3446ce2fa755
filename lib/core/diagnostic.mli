(** Structured diagnostics for the static analyzer ({!Typecheck}).

    Codes are stable identifiers grouped by analysis pass: [E01xx]
    NALG type inference, [E02xx]/[W02xx] schema lint, [E03xx]/[W03xx]
    query lint, [E04xx]/[W04xx] planner and rewrite soundness, [E05xx]
    view-registry lint. *)

type severity = Error | Warning

type t = {
  code : string;  (** stable identifier, e.g. ["E0104"] *)
  severity : severity;
  message : string;
  path : string list;
      (** steps from the root of the analyzed expression to the node
          the diagnostic concerns (["select"], ["join.left"],
          ["follow"], …); [[]] when no expression context applies. See
          {!Explain.locate}. *)
}

val v : ?path:string list -> severity -> string -> string -> t

val error : ?path:string list -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : ?path:string list -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val is_error : t -> bool
val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

val compare : t -> t -> int
(** Errors before warnings, then by code and message — a stable report
    order independent of discovery order. *)

val pp_severity : severity Fmt.t
val pp : t Fmt.t
(** Renders as [error[E0104] at select/unnest: message]. *)

val to_string : t -> string

val summary : t list -> string
(** ["N error(s), M warning(s)"]. *)

val dedup : t list -> t list
(** Drop diagnostics identical to an earlier one (same code, node path
    and message); order otherwise preserved. *)

val exit_code : ?strict:bool -> t list -> int
(** [2] if any error; with [~strict:true], [1] when only warnings
    remain; else [0]. *)
