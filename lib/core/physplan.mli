(** Physical operator plans — the executable form of a NALG expression.

    Logical NALG (Section 4) says {e what} a navigation computes; a
    physical plan says {e how}: selections fused into the scans and
    navigations that produce their input, hash joins with an explicit
    build side chosen from cardinality estimates, streaming unnest
    against the declared inner header, and a pipelined
    [Follow] that dedupes link values incrementally and prefetches in
    windows. {!Exec} runs these plans with pull-based cursors. *)

type est = {
  est_rows : float;  (** estimated output cardinality of the operator *)
  est_pages : float;  (** estimated page accesses the operator issues *)
}

type node =
  | Scan of { scheme : string; alias : string; url : string; filter : Pred.t }
      (** entry-point page access with any fused selection *)
  | View_scan of {
      view : string;
      alias : string;
      ext_attrs : string list;
      filter : Pred.t;
    }
      (** registered materialized view answered from the matview store
          under light-connection economics (bounded HEAD revalidation,
          GET only on observed change); [ext_attrs] are the relation's
          declared attributes, qualified by [alias] in the output *)
  | Filter of { pred : Pred.t; input : op }
  | Project of { attrs : string list; input : op }
  | Hash_join of {
      keys : (string * string) list;
      left : op;
      right : op;
      build_left : bool;
          (** hash the left input and probe with the right (chosen from
              cardinality estimates; without estimates the right input
              is built, matching the legacy evaluator) *)
    }
  | Stream_unnest of { attr : string; expect : string list; input : op }
      (** row-by-row expansion of a nested attribute against the
          declared inner header [expect] *)
  | Follow_links of {
      src : op;
      link : string;
      scheme : string;
      alias : string;
      filter : Pred.t;  (** selection fused over the joined output *)
    }
      (** pipelined [R →L P]: incremental URL dedup, windowed prefetch *)
  | Call_fetch of {
      src : op option;
      scheme : string;
      alias : string;
      args : (string * Nalg.arg) list;
      filter : Pred.t;  (** selection fused over the joined output *)
    }
      (** pipelined parameterized-entry access [R ⇒\[args\] P]: one
          templated GET per distinct bound-argument combination
          (incremental URL dedup, windowed prefetch); [src = None] is
          an all-constant root call, a single-page scan *)

and op = { id : int; node : node; est : est option }
(** [id] is a dense post-order index in [0 .. n_ops-1]; {!Exec} uses it
    to address per-operator counters. *)

type plan = { root : op; n_ops : int; window : int }

exception Not_computable of string
(** The expression has no physical form: an [External] leaf that names
    no registered view, a non-entry-point [Entry] leaf, a call to a
    scheme without parameters, or an unnest of an attribute that is
    not a declared list. These are exactly the expressions
    {!Typecheck} rejects (E0107, E0102, E0111, E0103/E0104). *)

exception Not_streamable of string
(** Never raised: lowering is total on well-typed expressions. Kept
    only because the end-to-end benchmark ([bench/e2e]) still matches
    on it. *)

val lower :
  ?card:(Nalg.expr -> float) ->
  ?pages:(Nalg.expr -> float) ->
  ?view_attrs:(string -> string list option) ->
  ?window:int ->
  Adm.Schema.t ->
  Nalg.expr ->
  plan
(** Compile a logical expression to a physical plan. [card] estimates
    the output cardinality of a subexpression and [pages] the page
    accesses its own operator issues (both typically from {!Cost} over
    {!Stats}; omitted → no annotations and legacy build sides).
    [view_attrs] answers the declared attribute list of a registered
    materialized view by name; when it returns [Some attrs] an
    [External] leaf lowers to {!View_scan} instead of raising.
    [window] (default 8) is the prefetch window handed to the fetch
    engine. Total on well-typed expressions: every unnest streams
    against the declared tuple type of its list attribute
    ({!Nalg.list_fields}). Raises {!Not_computable} otherwise. *)

val to_nalg : plan -> Nalg.expr
(** Reconstruct the logical expression a plan computes (fused filters
    reappear as [Select] wrappers) — this is what lets {!Typecheck}
    judge a lowered plan like any other rewrite. *)

val fold : ('a -> op -> 'a) -> 'a -> plan -> 'a
(** Pre-order fold over the operators. *)

val node_label : op -> string
(** One-line description of an operator, without its inputs. *)

val pp : plan Fmt.t
(** The operator tree, indented. *)
