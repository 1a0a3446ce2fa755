(** Convention-based wrappers mapping HTML pages to ADM nested tuples
    and back: mono-valued attribute [A] is any element with class
    ["a-A"] (links are anchors with [href]); multi-valued attribute
    [L] is a [<ul class="l-L">] of [<li>] nested tuples. Extraction is
    scope-aware and ignores unclassified markup. It reads a body in one
    pass over {!Html.scan}'s events, with no token list and no DOM. *)

exception Wrap_error of string

val attr_class : string -> string
val list_class : string -> string

val extract : Adm.Page_scheme.t -> url:string -> string -> Adm.Value.tuple
(** Extract the page tuple of an HTML body, including the implicit
    [URL] attribute. Within one nesting level each attribute takes its
    first element in document order, never looking inside an element
    of class ["l-…"]; a matched list's direct [<li>] children are its
    nested tuples; an attribute with no element is [Null]. Raises
    {!Html.Parse_error} on a malformed body, whatever else is wrong
    with it; otherwise {!Wrap_error} for the first attribute, in
    field order, that is malformed, then for the first non-optional
    top-level attribute that is missing. *)

val render : ?title:string -> Adm.Value.tuple -> string
(** Render a page tuple (inverse of {!extract} up to chrome). *)
