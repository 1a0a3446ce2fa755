(** Page-schemes: descriptions of sets of structurally similar pages
    (paper, Section 3.1). The URL attribute is implicit and forms a
    key; entry points are page-schemes with a known URL and a
    single-page instance. *)

type attr_decl = {
  name : string;
  ty : Webtype.t;
  optional : bool;
  nonempty : bool;
      (** list attributes only: declared integrity constraint that every
          instance holds at least one element (licenses rule 3) *)
}

type param = { p_name : string; p_ty : Webtype.t }
(** A binding-pattern parameter of a parameterized entry point (a form
    field or service-call input): it must be bound to a constant before
    any page of the scheme can be fetched. Parameters are the bound
    positions of the scheme's binding pattern; the page attributes are
    the free positions. Only [Text] and [Int] parameters are allowed. *)

type t

val url_attr : string
(** ["URL"], the implicit key attribute. *)

val attr : ?optional:bool -> ?nonempty:bool -> string -> Webtype.t -> attr_decl
val param : string -> Webtype.t -> param

val make : ?entry_url:string -> ?params:param list -> string -> attr_decl list -> t
(** Raises [Invalid_argument] if an attribute is named [URL], if
    [params] is non-empty without an [entry_url] base, on a duplicate
    or non-scalar parameter, or if a parameter is named [URL]. *)

val name : t -> string
val attrs : t -> attr_decl list
val entry_url : t -> string option

val params : t -> param list
val is_parameterized : t -> bool

val is_entry_point : t -> bool
(** Crawlable entry point: known URL {e and} no parameters. A
    parameterized scheme is never an entry point — nothing can be
    fetched until its inputs are bound. *)

val find_param : t -> string -> param option

val bound_url : t -> (string * string) list -> string option
(** [bound_url ps bindings] is the templated URL
    [base?p1=v1&p2=v2] (declaration order, percent-encoded) of the
    page reached by binding every parameter, or [None] when [ps] is
    not parameterized or a parameter is missing from [bindings]. The
    site generator and the executor both use this function, so served
    and requested URLs agree byte-for-byte. *)

val adornment : t -> string
(** Binding adornment, one letter per position: ["b"] for each
    parameter then ["f"] for each attribute (e.g. ["bff"]). *)

val resolve_path : t -> string list -> Webtype.t option
val link_paths : t -> (string list * string) list
(** All link attributes as (dotted path from page root, target
    page-scheme name). *)

val is_optional_path : t -> string list -> bool

val is_nonempty_path : t -> string list -> bool
(** Whether the (top-level) list attribute at [path] is declared
    non-empty. [false] means the list may be empty, so eliminating an
    unnest over it (rule 3) could add phantom rows and is unsound. *)

val validate_tuple : t -> Value.tuple -> string list
(** Structural errors of a page tuple against the scheme (empty list =
    valid). *)

val pp : t Fmt.t
