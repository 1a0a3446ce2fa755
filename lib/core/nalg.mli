(** The Navigational Algebra (NALG, paper Section 4): selection,
    projection and join over nested relations, extended with the two
    navigational operators

    - {e unnest page} [R ◦ L] — navigate inside a page's nested
      structure;
    - {e follow link} [R →L P] — navigate between pages, joining the
      source on [R.L = P.URL].

    Every page-scheme occurrence carries an {e alias} (defaulting to
    the scheme name); the attributes it contributes are qualified by
    that alias, e.g. ["ProfPage.Rank"] or
    ["ProfPage.CourseList.ToCourse"] after an unnest, so a scheme may
    occur several times in one plan. *)

type expr =
  | Entry of { scheme : string; alias : string }
      (** a page relation reachable by URL: an entry point *)
  | External of { name : string; alias : string }
      (** an external relation of the view; must be replaced by a
          default navigation (rule 1) before evaluation *)
  | Select of Pred.t * expr
  | Project of string list * expr
  | Join of (string * string) list * expr * expr
      (** equi-join on (left attribute, right attribute) pairs *)
  | Unnest of expr * string  (** [R ◦ L], [L] a full attribute name *)
  | Follow of follow
  | Call of call
      (** parameterized-entry access [R ⇒\[args\] P]: fetch pages of a
          form/service page-scheme by binding every declared parameter *)

and follow = {
  src : expr;
  link : string;  (** full name of the link attribute in [src] *)
  scheme : string;  (** target page-scheme *)
  alias : string;  (** alias qualifying the target's attributes *)
}

(** A call through a binding pattern. With [c_src = Some r], one
    templated GET is issued per distinct argument combination drawn
    from [r]'s rows ([Arg_attr] feeds an upstream column into the
    parameter) and the reached page joins its source row, like
    {!Follow}. With [c_src = None] every argument is a constant and
    the call is a single-page relation, like an entry point. Calls
    whose URL resolves to no page contribute no rows. *)
and call = {
  c_src : expr option;
  c_scheme : string;  (** target (parameterized) page-scheme *)
  c_alias : string;  (** alias qualifying the target's attributes *)
  c_args : (string * arg) list;  (** parameter name -> bound value *)
}

and arg = Arg_const of string | Arg_attr of string

(** {1 Constructors} *)

val entry : ?alias:string -> string -> expr
val external_ : ?alias:string -> string -> expr
val select : Pred.t -> expr -> expr
val project : string list -> expr -> expr
val join : (string * string) list -> expr -> expr -> expr
val unnest : expr -> string -> expr
val follow : ?alias:string -> expr -> string -> scheme:string -> expr

val call :
  ?alias:string -> ?src:expr -> string -> args:(string * arg) list -> expr
(** [call ?alias ?src scheme ~args] builds a parameterized-entry
    access. Omit [src] for an all-constant root call. *)

(** {1 Traversals} *)

val fold : ('a -> expr -> 'a) -> 'a -> expr -> 'a
val map : (expr -> expr) -> expr -> expr
(** Bottom-up rebuild: [f] is applied to every node after its children
    have been rebuilt. A node whose children come back physically
    unchanged is kept, so [f] returning its argument leaves a subtree
    intact. *)

val size : expr -> int

val children : expr -> expr list
(** The operands, left before right: the source of a follow or call,
    both sides of a join. *)

val with_children : expr -> expr list -> expr
(** [with_children e kids] is [e] over the operands [kids] (in
    {!children} order); [e] itself when [kids] are its own operands,
    physically. *)

val equal : expr -> expr -> bool
(** Structural equality: same tree, predicates compared atom-by-atom
    (atom order matters: two equivalent conjunctions written in a
    different order are different plans). *)

val head_equal : expr -> expr -> bool
(** {!equal} on the operators and their own fields only, children
    excluded. *)

val head_hash : expr -> int
(** A hash of the operator and its own fields, consistent with
    {!head_equal}. *)

val alias_env : expr -> (string * string) list
(** Aliases in scope, as [(alias, page-scheme name)]. *)

val scheme_of_alias : expr -> string -> string option
val aliases : expr -> string list
val externals : expr -> (string * string) list
val is_computable : expr -> bool
(** No [External] leaves remain (all leaves are entry points). *)

val qualifier : (string * 'a) list -> string -> (int * 'a) option
(** [qualifier env attr]: the alias of [env] qualifying [attr] — the
    longest one [attr] extends by a dot — as its length and the value
    of its first binding. *)

val split_attr : string list -> string -> (string * string list) option
(** Split an attribute name into its (longest-prefix) alias and
    remaining dotted steps. *)

val constraint_path_of_attr :
  expr -> string -> (Adm.Constraints.path * string) option
(** The constraint path (scheme + steps) an attribute denotes,
    resolving its alias, plus that alias. *)

val list_fields :
  Adm.Schema.t -> expr -> string -> (string * Adm.Webtype.t) list option
(** [list_fields schema e attr] is the declared tuple type of the list
    attribute [attr] of [e] (resolved through its alias to the
    page-scheme's ADM declaration), or [None] when [attr] does not
    resolve to a declared list type. Every unnest of a well-typed
    expression has [Some] fields: the inner header is known before
    any page is fetched. *)

type link = string * Adm.Constraints.path * string * string
(** A link attribute of an expression's output, as (attribute,
    constraint path, alias, target scheme). *)

val links_in : Adm.Schema.t -> (string * string) list -> string list -> link list
(** The link attributes among output attributes, resolved through an
    alias environment. *)

(** {1 Renaming} *)

val rename_attrs : (string -> string) -> expr -> expr
val rename_alias : from:string -> into:string -> expr -> expr
val uniquify_aliases : taken:string list -> expr -> expr

(** {1 Printing} *)

val pp_args : (string * arg) list Fmt.t
val pp : expr Fmt.t
val to_string : expr -> string
val canonical : expr -> string
(** Canonical form used for plan deduplication. *)

val pp_plan : expr Fmt.t
(** Indented query-plan tree in the style of the paper's Figures 2–4. *)
