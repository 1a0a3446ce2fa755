(** External relations (paper Section 5): the relational view offered
    to users. Each external relation maps to one or more {e default
    navigations} — computable NALG expressions materializing its
    extent — plus bindings from external attribute names to plan
    attribute names. *)

type navigation = {
  nav_expr : Nalg.expr;
  bindings : (string * string) list;
      (** external attribute → plan attribute *)
}

type relation = {
  rel_name : string;
  rel_attrs : string list;
  rel_keys : string list;
      (** declared unique, non-null attributes — each key value matches
          at most one row. {!Contain.minimize_query} folds duplicate
          occurrences only when they are equated on a key, which keeps
          minimization sound under bag semantics. *)
  navigations : navigation list;
}

type registry = relation list

val relation :
  ?keys:string list ->
  name:string -> attrs:string list -> navigations:navigation list -> unit ->
  relation
(** Raises [Invalid_argument] when an attribute lacks a binding in
    some navigation or a key is not an attribute. [keys] (default
    none) declares single-attribute unique keys. *)

val navigation : ?bindings:(string * string) list -> Nalg.expr -> navigation

val find : registry -> string -> relation option
val find_exn : registry -> string -> relation

val expand : registry -> Nalg.expr -> Nalg.expr list
(** Rule 1 [Default Navigation]: all ways of replacing every external
    relation occurrence by one of its default navigations, renaming
    external attribute references to the navigation's attributes and
    uniquifying aliases. *)

val expand_access :
  registry ->
  scans:(relation -> alias:string -> Nalg.expr list) ->
  Nalg.expr ->
  Nalg.expr list
(** Rule 1 generalized to access-path choice: each occurrence is
    replaced either by a default navigation (as {!expand}) or by any
    alternative scan expression [scans rel ~alias] offers — typically
    an [External] leaf naming a materialized view that subsumes the
    occurrence, left for the physical layer's view scan. Scans keep
    the occurrence's ["<alias>.<attr>"] naming, so the surrounding
    query needs no renaming. [expand] is [expand_access] with no
    scans. *)

val infer_navigations : Adm.Schema.t -> scheme:string -> Nalg.expr list
(** The paper's Section 5 suggestion made concrete: infer default
    navigations for a page-scheme from the web scheme itself — the
    shortest entry-point navigations whose final hop is a ⊇-maximal
    link path towards the scheme under the inclusion closure (so each
    is guaranteed to reach the whole extent any single path can). *)

val auto_registry : Adm.Schema.t -> registry
(** An automatic relational view over a whole web scheme: one external
    relation per page-scheme (its mono-valued attributes) with
    inferred default navigations. *)
