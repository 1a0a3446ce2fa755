(** Constraint discovery over a crawled instance — the
    reverse-engineering role the paper assigns to WebSQL-style
    exploration (Sections 3.1 and 3.3): propose every link constraint
    that holds across all instances of a link, and every containment
    between link paths towards the same page-scheme, then audit them
    against the declared schema. *)

type report = {
  discovered_links : Adm.Constraints.link_constraint list;
  discovered_inclusions : Adm.Constraints.inclusion list;
}

val discover : Adm.Schema.t -> Websim.Crawler.instance -> report

type audit = {
  confirmed_links : Adm.Constraints.link_constraint list;
  refuted_links : Adm.Constraints.link_constraint list;
      (** declared but not supported by the instance *)
  candidate_links : Adm.Constraints.link_constraint list;
      (** hold on the instance but are not declared *)
  confirmed_inclusions : Adm.Constraints.inclusion list;
  refuted_inclusions : Adm.Constraints.inclusion list;
  candidate_inclusions : Adm.Constraints.inclusion list;
}

val audit : Adm.Schema.t -> Websim.Crawler.instance -> audit
