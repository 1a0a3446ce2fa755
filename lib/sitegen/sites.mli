(** The site table: the one place that knows, for each generated site,
    its name, its ADM web scheme and external views, how a size and a
    seed apply to it, where its statistics come from (a crawl over the
    site's own connection, or declared for a form-only site that cannot
    be crawled) and its binding-pattern configuration. In the paper's
    terms a site is one bundle — scheme, relational views, §6.2 cost
    statistics — and every caller takes it from here.

    Adding a site: write its generator module beside {!University},
    add a constructor to {!kind} (and to the table's list of kinds in
    the implementation), its name to {!name}, an [of_…] bundle, and one
    case to {!load}. *)

type kind = University | Bibliography | Catalog | Formsite

val names : string list
(** ["university"; "bibliography"; "catalog"; "formsite"]. *)

val name : kind -> string

val of_name : string -> (kind, string) result
(** Inverse of {!name}; the error names the known sites. *)

type size = { depts : int; profs : int; courses : int; seed : int }
(** Applies to the university and form-only sites; the bibliography
    and catalog sites always build at their generators' defaults. *)

val default_size : size
(** 3 departments, 20 professors, 50 courses, seed 42 — the paper's
    Example 7.2 university. *)

type t = {
  kind : kind;
  schema : Adm.Schema.t;
  registry : Webviews.View.registry;
      (** the bibliography site has no hand-written view: its registry
          is {!Webviews.View.auto_registry} over the scheme *)
  site : Websim.Site.t;
  stats : Webviews.Stats.t Lazy.t;
      (** crawled over the site's own connection on first use, or the
          form-only site's declared statistics *)
  binding_config : Bindings.config option;
      (** path views + vocabulary of a form-only site: feeds the
          planner's [?bindings] hook and the E0111 lint *)
}

val load : ?size:size -> kind -> t
(** Build the site at [size] (default {!default_size}). *)

(** Bundles over an already-built generator, for callers that also
    read its ground-truth records or mutate it. *)

val of_university : University.t -> t
val of_bibliography : Bibliography.t -> t
val of_catalog : Catalog.t -> t
val of_formsite : Formsite.t -> t

val crawl : t -> Websim.Crawler.instance
(** Crawl the whole site over a fresh connection of its own. *)

val stats : t -> Webviews.Stats.t
(** [Lazy.force t.stats]. *)

val bindings : t -> (Webviews.Conjunctive.t -> Webviews.Nalg.expr list) option
(** The rewriting-search hook handed to the planner ([?bindings]);
    [None] on a site without forms. *)

val binding_lint : t -> Webviews.Conjunctive.t -> Webviews.Diagnostic.t list
(** E0111 when the vocabulary covers a query but no executable
    composition of forms answers it; empty on a site without forms. *)

val lint_query : t -> string -> Webviews.Diagnostic.t list
(** The lint gate of every command that plans a query: the query lint
    ({!Webviews.Typecheck.lint_sql} — syntax E0308, unknown relation,
    alias or attribute E0301-E0304, ...), then, when it finds no error
    and the site has views, {!binding_lint}. A query without an
    error-severity finding here can be planned. *)

val viewstore : t -> Webviews.Viewstore.t
(** Materialize the site (own connection) and put the registered views
    behind a view store, so the planner can price them as access
    paths. *)
