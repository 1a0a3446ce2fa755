(** The static analyzer: typed NALG inference, schema / registry /
    query lints, and the rewrite-soundness judgment the planner applies
    after every rule application.

    Diagnostic codes by pass:
    - [E0101]–[E0109] — NALG typing ({!infer});
    - [E0201]–[E0214], [W0210] — schema lint ({!lint_schema});
    - [E0301]–[E0308], [W0306], [W0307] — query lint ({!lint_query},
      {!lint_sql});
    - [E0402], [E0403] — rewrite soundness ({!soundness}); [E0404] is
      emitted by {!Planner.enumerate};
    - [E0501]–[E0503] — view-registry lint ({!lint_registry}). *)

type env = (string * Adm.Webtype.t) list
(** Ordered output environment of a NALG expression: its output
    attributes, in order, with their web types. Its names are the one
    naming rule of output attributes ({!Memo.attrs} reads them). *)

val infer :
  ?views:(string -> (string * Adm.Webtype.t) list option) ->
  Adm.Schema.t ->
  Nalg.expr ->
  env * Diagnostic.t list
(** Bottom-up type inference over every subexpression. The environment
    is best-effort when diagnostics contain errors (unknown attributes
    default to [Text]); it is trustworthy exactly when no error is
    reported. Diagnostic paths point into the expression tree (see
    {!Explain.locate}).

    [?views] answers the declared attributes of a registered
    materialized view by name: when it returns [Some attrs] for an
    [External] occurrence, the occurrence types like a base scheme
    (each attribute qualified by the alias) instead of raising [E0107]
    — views become first-class access paths to the type system. *)

type typed
(** A node's inferred type: its environment, whose names resolve to
    their first binding, shared with the nodes built over it. *)

val typed_env : typed -> env

val occurrence : Adm.Schema.t -> scheme:string -> alias:string -> typed
(** The type of a page-scheme occurrence: [alias.URL] first (typed
    [Link scheme]), then the declared attributes; empty for unknown
    schemes. *)

val type_node :
  ?views:(string -> (string * Adm.Webtype.t) list option) ->
  ?occurrence:(scheme:string -> alias:string -> typed) ->
  Adm.Schema.t ->
  Nalg.expr ->
  typed list ->
  typed * Diagnostic.t list
(** One step of {!infer}: the type of a node from its children's (in
    {!Nalg.children} order), and the node's own diagnostics in report
    order, each with the empty path. [occurrence] (default
    {!occurrence} [schema]) types page-scheme occurrences.
    {!infer} is this step applied bottom-up; the planner's memo
    ({!Memo}) applies it once per distinct node. *)

val steps : Nalg.expr -> string list
(** The path step reaching each child of a node, in {!Nalg.children}
    order (["select"], ["join.left"], ...). *)

val under : string -> Diagnostic.t -> Diagnostic.t
(** A child's diagnostic seen from its parent: [under step d] puts
    [step] in front of [d]'s path. *)

val check : Adm.Schema.t -> Nalg.expr -> Diagnostic.t list
(** [check schema e = snd (infer schema e)]. *)

val soundness :
  Adm.Schema.t -> parent:Nalg.expr -> child:Nalg.expr -> Diagnostic.t list
(** Judge one rewrite step: [child] must typecheck ([E0402] otherwise)
    and keep an output environment compatible with [parent]'s
    ([E0403]). Returns [[]] when the step is sound, or when [parent]
    itself is ill-typed (no verdict possible). *)

val judge :
  parent:env * Diagnostic.t list ->
  child:env * Diagnostic.t list ->
  Diagnostic.t list
(** The judgment underlying {!soundness}, over pre-computed {!infer}
    results — lets the planner memoize inference across a closure. *)

val judge_reordering :
  parent:env * Diagnostic.t list ->
  child:env * Diagnostic.t list ->
  Diagnostic.t list
(** {!judge} with the output environments compared as sets of
    bindings, each name with a compatible type, in any order: the
    judgment of a join reordering below a plan's root, which permutes
    columns that only the root's projection puts in order. *)

val check_plan :
  Adm.Schema.t -> parent:Nalg.expr -> Physplan.plan -> Diagnostic.t list
(** Judge a lowered physical plan like a rewrite step: its logical
    reading ({!Physplan.to_nalg}) must typecheck and keep [parent]'s
    output shape. Returns [[]] when the lowering is sound. *)

val lint_schema : Adm.Schema.t -> Diagnostic.t list
(** Schema well-formedness beyond what {!Adm.Schema.make} enforces:
    unresolvable constraint paths, link constraints on non-links or
    with mismatched targets, multi-valued constraint ends, inclusions
    over non-links or differing targets, links to undeclared schemes,
    duplicate scheme / attribute names, missing entry points, and
    unreachable page-schemes (warning). *)

val relation_env : Adm.Schema.t -> View.relation -> env
(** The typed environment of an external relation, read off its first
    default navigation through the bindings. *)

val lint_registry : Adm.Schema.t -> View.registry -> Diagnostic.t list
(** Ill-typed default navigations ([E0501]), bindings to attributes a
    navigation does not produce ([E0502]), and attributes whose type
    differs across alternative navigations ([E0503]). *)

val lint_query :
  Adm.Schema.t -> View.registry -> Conjunctive.t -> Diagnostic.t list
(** Semantic checks on a conjunctive query: unknown relations /
    aliases / attributes, predicate type mismatches, disconnected FROM
    groups (Cartesian product warning), always-false conditions. *)

val lint_sql : Adm.Schema.t -> View.registry -> string -> Diagnostic.t list
(** {!lint_query} over a SQL string; syntax errors surface as a single
    [E0308] diagnostic instead of an exception. *)
