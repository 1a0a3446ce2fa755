(** The interned plan memo of one planning run (one
    {!Planner.enumerate} call).

    Every distinct subtree is interned once as a {!node} with an
    integer id. Interning is shallow — a node's hash and equality are
    its operator's own fields plus its children's ids — and, given the
    node a plan was rewritten from ([?hint]), it finds the subtrees
    the rewrite kept by physical identity, so a rule output costs only
    the nodes the rule rebuilt. That one intern step is the planner's
    dedup, and the node is the key of every logical property, each
    computed at most once from the children's:

    - {!infer} — {!Typecheck.infer}, with the views' environments;
    - {!attrs} and {!links} — the names of {!infer}'s environment, and
      {!Nalg.links_in} over them;
    - {!estimate} — [Cost.estimate schema stats e e];
    - {!key} and {!key_stages} — {!Contain.key_stages}, shared by the
      plans with one multiset of key items ({!Contain.items}) and one
      top projection.

    Each returns exactly what its context-free function returns on
    the node's expression; {!estimate} does so for plans with unique
    aliases, which every candidate past the planner's typecheck gate
    has. *)

type t
type node

val create :
  ?views:(string -> (string * Adm.Webtype.t) list option) ->
  ?econ:Cost.view_econ ->
  Adm.Schema.t ->
  Stats.t ->
  t
(** An empty memo. [views] types registered views' [External]
    occurrences ({!Typecheck.infer}'s [?views]); [econ] (default
    {!Cost.no_views}) prices them. *)

val schema : t -> Adm.Schema.t

val intern : ?hint:node -> t -> Nalg.expr -> node
(** The node of an expression. With [hint], the subtrees of [hint]'s
    expression that the expression shares physically are found
    among [hint]'s {!walk} without hashing. *)

val make : t -> Nalg.expr -> node list -> node
(** [make m e kids] is the node of [e]'s operator over the nodes
    [kids] (in {!Nalg.children} order), hashing only the operator. *)

val expr : node -> Nalg.expr
(** The expression first interned with this node's structure. *)

val id : node -> int
val kids : node -> node list
(** The children's nodes, in {!Nalg.children} order. *)

val kid : node -> int -> node
(** [kid n i] is [List.nth (kids n) i]. *)

val size : t -> int
(** Distinct nodes interned so far. *)

(** {1 The walk of a plan}

    A plan's positions in pre-order — a node before its operands, left
    operand before right — numbered from 0 (the root), each with its
    subexpression and its node. Every rule reads a plan through its
    walk, and interning a rule output against the plan finds the kept
    subtrees in it. Only the last walk is kept. *)

type walk

val walk : t -> node -> walk
val sub : walk -> int -> Nalg.expr
val node_at : walk -> int -> node

val child : walk -> int -> int -> int
(** [child w i k] is the position of operand [k] of position [i]. *)

val concat_map : ?within:int -> walk -> (int -> 'a list) -> 'a list
(** [f]'s results at every position, in pre-order; with [within], at
    the positions of that position's subtree only. *)

val rebuild : ?within:int -> walk -> int -> Nalg.expr -> Nalg.expr
(** [rebuild w i x] is the plan with position [i] replaced by [x] —
    with [within], an ancestor of [i], that ancestor's subexpression —
    sharing every subtree off the path from [i] up physically. *)

(** {1 Dedup} *)

type visit
(** A set of nodes, e.g. the plans of one closure; one is filled at a
    time. *)

val visit : t -> visit
val first_visit : visit -> node -> bool
(** Adds the node; [true] when it was not in the set yet. *)

val first_judgment : node -> bool
(** [true] the first time it is asked for a node. *)

(** {1 Properties} *)

val alias_env : node -> (string * string) list
(** {!Nalg.alias_env} of the node's expression. *)

val attrs : t -> node -> string list
val links : t -> node -> Nalg.link list
val infer : t -> node -> Typecheck.env * Diagnostic.t list
val has_errors : t -> node -> bool
(** [Diagnostic.has_errors (snd (infer m n))], without building the
    diagnostics. *)

val estimate : t -> node -> Cost.estimate
val key : t -> node -> string

val key_stages : t -> node -> int * string Lazy.t
(** {!Contain.key_stages} of the node's plan: equal {!key}s imply
    equal hints. The plans of one multiset of key items and top
    projection share one key, physically, unless it is the structural
    fallback (["S:"]); it is computed when first forced. *)

(** {1 Groups}

    The planner's join phase runs over groups (Algorithm 1's
    equivalence classes, Cascades-style): a group holds the
    subexpressions with one multiset of key items ({!Contain.items})
    and one top projection, which {!key_stages} already treats as one
    class. A member of a group is a node whose children are the
    witnesses of their own groups, so it stands for one operator over
    groups: the plans a group holds are every choice of a member per
    group, top-down. A node of a [Call] or of a residual
    attribute-attribute comparison has no key items; it is alone in its
    group. *)

type group

val member : fresh:(node -> unit) -> t -> node -> node
(** The member standing for a node: the node's operator over its
    children's members' witnesses, added to its group (made on first
    use) when it is not a member yet. [fresh] sees every member added
    on the way, children's before their parents'. *)

val group_of : node -> group option
(** The group of a member; [None] for any other node. *)

val gid : group -> int
(** The group's identity: its witness's {!id}. *)

val witness : group -> node
(** The group's first member. *)

val members : group -> node list
(** In the order they were added. *)

val alternatives : node -> node list
(** The members of a member's group; [[n]] for any other node [n]. *)

val parents : group -> node list
(** The members with the group among their children's groups, newest
    first. *)
