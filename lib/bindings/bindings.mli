(** Equivalent rewritings over path views with binding patterns.

    Form and service endpoints are path views: callable only with
    their input parameters bound, returning pages of output
    attributes. On a form-only site no navigation-only plan exists;
    the search of this module (after Romero, Preda and Suchanek,
    "Equivalent rewritings on path views with binding patterns")
    discovers compositions of calls in which every input is bound by a
    query constant or by an output of an earlier call, and emits them
    as ordinary {!Webviews.Nalg.Call} plans for the planner to cost
    and the executor to run. *)

type origin = OConst of string | OAttr of string
(** How a logical name is bound inside a search state: by a query
    constant, or carried by a plan attribute of the chain built so
    far. *)

type path_view = {
  pv_name : string;
  pv_scheme : string;
  pv_inputs : string list;
      (** logical names consumed, positionally matching the scheme's
          declared parameters *)
  pv_unnest : string list;
      (** nested-list attributes unnested after the call, outermost
          first *)
  pv_outputs : (string * string) list;
      (** logical name -> attribute relative to the call's alias *)
}

val path_view :
  ?unnest:string list ->
  ?outputs:(string * string) list ->
  name:string -> scheme:string -> inputs:string list -> unit -> path_view

val decoys : ?hooks:string list -> seed:int -> n:int -> unit -> path_view list
(** [n] synthetic one-step services over a vocabulary of 24
    entity names, for search-scaling experiments. A fraction take a
    name from [hooks] as input so the search reaches them from real
    query constants; none outputs a real name, so no decoy can appear
    in an emitted rewriting. Deterministic in [seed]. *)

type config = {
  views : path_view list;
  vocab : (string * (string * string) list) list;
      (** external relation -> (relation attribute -> logical name) *)
}

val config :
  views:path_view list -> vocab:(string * (string * string) list) list ->
  config

val add_views : config -> path_view list -> config

type search_report = {
  rewritings : Webviews.Nalg.expr list;
      (** executable compositions, fewest calls first *)
  explored : int;  (** binding states expanded *)
  truncated : bool;  (** the state cap stopped the search *)
}

val search : config -> Adm.Schema.t -> Webviews.Conjunctive.t -> search_report
(** Breadth-first search over binding states (sets of bound logical
    names), seeded by the query's equality constants. It expands at
    most 20,000 states, returns at most 4 rewritings and composes at
    most 8 calls. Every returned
    plan is executable — calls appear in an order where each argument
    is bound upstream — and covers the query's SELECT and WHERE under
    the vocabulary. *)

val planner_hook :
  config -> Adm.Schema.t -> Webviews.Conjunctive.t -> Webviews.Nalg.expr list
(** The function to pass as [?bindings] to
    {!Webviews.Planner.enumerate}: rewriting candidates for a
    (minimized) conjunctive query. *)

val lint : config -> Adm.Schema.t -> Webviews.Conjunctive.t -> Webviews.Diagnostic.t list
(** [E0111] when the vocabulary covers the query but no executable
    composition answers it; empty when a rewriting exists or the
    query is outside the vocabulary. *)
