(* The interned plan memo of one planning run.

   Every distinct subtree the planner meets is interned once as a
   node: its hash and its equality are shallow — the operator's own
   fields plus the children's ids — so interning a rule output visits
   only the nodes the rule rebuilt. A rule shares every untouched
   subtree with the plan it rewrote; interning against that plan's
   nodes finds those subtrees by physical identity, without hashing.

   A node carries its logical properties, each computed at most once,
   from its children's: typed environment with its own diagnostics,
   output attributes (the environment's names), available links, cost
   estimate and plan key.
   The memo is a value of one planning run: nothing outlives it. *)

type node = {
  id : int;
  expr : Nalg.expr;  (** the first plan interned with this shape *)
  kids : node array;  (** in [Nalg.children] order *)
  mutable attrs : string list option;
  mutable links : Nalg.link list option;
  mutable ty : Typecheck.typed option;
  mutable own : Diagnostic.t list;  (** the node's own findings, empty path *)
  mutable findings : int;
      (** twice the findings of the subtree, plus one when one of them
          is an error; set with [ty] *)
  mutable est : Cost.estimate option;
  mutable bag : bag;  (** the key items of the subtree *)
  mutable key : (int * string Lazy.t) option;  (** hint and key *)
  mutable mark : int;  (** the last {!visit} that met the node *)
  mutable judged : bool;
  mutable group : group option;  (** set on a group's members *)
}

(* The multiset of key items of a subtree, as the sorted ids of its
   items; interned, so equal bags are one array. [No_items] when a node
   of the subtree has none. *)
and bag = Unknown | No_items | Bag of int array

(* The equivalent subexpressions of one bag of key items and top
   projection: its members are nodes whose children are the witnesses
   of their own groups, so a member stands for an operator over
   groups. *)
and group = {
  witness : node;  (** the first member *)
  mutable members : node list;  (** in the order they were added *)
  mutable parents : node list;  (** members with the group as a child, newest first *)
}

(* Nodes by shape: an expression's head and its children's nodes. *)
module Shape = Hashtbl.Make (struct
  type t = node

  let equal n1 n2 =
    Array.length n1.kids = Array.length n2.kids
    && Array.for_all2 ( == ) n1.kids n2.kids
    && Nalg.head_equal n1.expr n2.expr

  let hash n =
    Array.fold_left (fun acc k -> (acc * 65599) + k.id) (Nalg.head_hash n.expr) n.kids
    land max_int
end)

let hash_ids a = Array.fold_left (fun acc i -> (acc * 65599) + i) 0 a land max_int

(* Bags of key items, for interning them. *)
module Bags = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = hash_ids
end)

(* Interned bags with top projections, for sharing hints and keys. *)
module Keys = Hashtbl.Make (struct
  type t = int array * string list option

  let equal (a1, t1) (a2, t2) = a1 == a2 && Option.equal (List.equal String.equal) t1 t2
  let hash (a, top) = Hashtbl.hash (hash_ids a, top)
end)

type t = {
  schema : Adm.Schema.t;
  views : string -> (string * Adm.Webtype.t) list option;
  econ : Cost.view_econ;
  stats : Cost.stats_cache;
  shapes : node Shape.t;  (** every node, by shape *)
  item_ids : (string, int) Hashtbl.t;
  bags : int array Bags.t;
  keys : (int * string Lazy.t) Keys.t;
  groups : group Keys.t;
  occurrences : (string * string, Typecheck.typed) Hashtbl.t;
      (** [Typecheck.occurrence] per (scheme, alias) *)
  mutable visits : int;
  mutable walked : walk option;  (** the last plan walked *)
}

(* The positions of one plan in pre-order. Position [i]'s subtree is
   positions [i] to [ends.(i)], so a node's first child is the next
   position and a join's right operand follows its left's subtree. *)
and walk = {
  subs : Nalg.expr array;  (** each position's subexpression *)
  nodes : node array;  (** and its node *)
  up : int array;  (** the parent's position; -1 at the root *)
  ends : int array;  (** the last position of the subtree *)
}

let create ?(views = fun (_ : string) -> None) ?(econ = Cost.no_views) schema stats =
  {
    schema;
    views;
    econ;
    stats = Cost.stats_cache stats;
    shapes = Shape.create 1024;
    item_ids = Hashtbl.create 256;
    bags = Bags.create 256;
    keys = Keys.create 256;
    groups = Keys.create 256;
    occurrences = Hashtbl.create 16;
    visits = 0;
    walked = None;
  }

let schema m = m.schema
let expr n = n.expr
let id n = n.id
let kids n = Array.to_list n.kids
let kid n i = n.kids.(i)
let size m = Shape.length m.shapes

(* ------------------------------------------------------------------ *)
(* The walk of a plan                                                  *)
(* ------------------------------------------------------------------ *)

(* Only the last plan walked is kept: the planner walks one plan many
   times in a row (once per rule, and once per rule output it interns
   against the plan), and never again once it moves on. *)
let walk m n =
  match m.walked with
  | Some w when w.nodes.(0) == n -> w
  | _ ->
    let size = Nalg.size n.expr in
    let w =
      {
        subs = Array.make size n.expr;
        nodes = Array.make size n;
        up = Array.make size (-1);
        ends = Array.make size 0;
      }
    in
    let next = ref 0 in
    let rec go parent e n =
      let i = !next in
      incr next;
      w.subs.(i) <- e;
      w.nodes.(i) <- n;
      w.up.(i) <- parent;
      List.iteri (fun k kid -> go i kid n.kids.(k)) (Nalg.children e);
      w.ends.(i) <- !next - 1
    in
    go (-1) n.expr n;
    m.walked <- Some w;
    w

let sub w i = w.subs.(i)
let node_at w i = w.nodes.(i)
let child w i k = if k = 0 then i + 1 else w.ends.(i + 1) + 1

let concat_map ?within w f =
  let first, last =
    match within with Some a -> (a, w.ends.(a)) | None -> (0, Array.length w.subs - 1)
  in
  let rec go i =
    if i > last then []
    else
      let here = f i in
      here @ go (i + 1)
  in
  go first

(* Replace position [i] by [x] and rebuild its ancestors up to
   [within], each over its other operands as they are. *)
let rec rebuild ?(within = 0) w i x =
  if i = within then x
  else
    let p = w.up.(i) in
    let slot = if i = p + 1 then 0 else 1 in
    let kids = List.mapi (fun k kid -> if k = slot then x else kid) (Nalg.children w.subs.(p)) in
    rebuild ~within w p (Nalg.with_children w.subs.(p) kids)

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* The node of [e] over the child nodes [kids], [e]'s own. *)
let shallow m e kids =
  let n =
    {
      id = Shape.length m.shapes;
      expr = e;
      kids;
      attrs = None;
      links = None;
      ty = None;
      own = [];
      findings = 0;
      est = None;
      bag = Unknown;
      key = None;
      mark = 0;
      judged = false;
      group = None;
    }
  in
  match Shape.find_opt m.shapes n with
  | Some known -> known
  | None ->
    Shape.add m.shapes n n;
    n

let make m e kids =
  shallow m (Nalg.with_children e (List.map (fun k -> k.expr) kids)) (Array.of_list kids)

let intern ?hint m e =
  let subs, nodes =
    match hint with
    | Some h ->
      let w = walk m h in
      (w.subs, w.nodes)
    | None -> ([||], [||])
  in
  let rec find e i =
    if i = Array.length subs then None
    else if subs.(i) == e then Some nodes.(i)
    else find e (i + 1)
  in
  let rec go e =
    match find e 0 with
    | Some n -> n
    | None -> shallow m e (Array.of_list (List.map go (Nalg.children e)))
  in
  go e

(* ------------------------------------------------------------------ *)
(* Dedup                                                               *)
(* ------------------------------------------------------------------ *)

type visit = int

let visit m =
  m.visits <- m.visits + 1;
  m.visits

let first_visit v n =
  if n.mark = v then false
  else begin
    n.mark <- v;
    true
  end

let first_judgment n =
  if n.judged then false
  else begin
    n.judged <- true;
    true
  end

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Cheap to derive and read once per node by each property that needs
   it, so not kept. *)
let alias_env n = Nalg.alias_env n.expr

let rec typed m n =
  match n.ty with
  | Some ty -> ty
  | None ->
    let kid_types = List.map (typed m) (kids n) in
    let occurrence ~scheme ~alias =
      match Hashtbl.find_opt m.occurrences (scheme, alias) with
      | Some t -> t
      | None ->
        let t = Typecheck.occurrence m.schema ~scheme ~alias in
        Hashtbl.add m.occurrences (scheme, alias) t;
        t
    in
    let ty, own =
      Typecheck.type_node ~views:m.views ~occurrence m.schema n.expr kid_types
    in
    let count =
      Array.fold_left (fun acc k -> acc + (k.findings asr 1)) (List.length own) n.kids
    in
    let error =
      Array.exists (fun k -> k.findings land 1 = 1) n.kids
      || List.exists Diagnostic.is_error own
    in
    n.own <- own;
    n.findings <- (2 * count) + Bool.to_int error;
    n.ty <- Some ty;
    ty

(* The subtree's findings with their paths from [n], children's
   before the node's own, as [Typecheck.infer] reports them. *)
let rec diagnostics m n =
  ignore (typed m n);
  if n.findings = 0 then []
  else
    List.concat
      (List.map2
         (fun step kid -> List.map (Typecheck.under step) (diagnostics m kid))
         (Typecheck.steps n.expr) (kids n))
    @ n.own

let infer m n = (Typecheck.typed_env (typed m n), diagnostics m n)

(* A plan's output attributes are the names of its typed environment:
   the typing rule is the one naming rule. *)
let attrs m n =
  match n.attrs with
  | Some a -> a
  | None ->
    let a = List.map fst (Typecheck.typed_env (typed m n)) in
    n.attrs <- Some a;
    a

let links m n =
  match n.links with
  | Some l -> l
  | None ->
    let l = Nalg.links_in m.schema (alias_env n) (attrs m n) in
    n.links <- Some l;
    l

let has_errors m n =
  ignore (typed m n);
  n.findings land 1 = 1

let rec estimate m n =
  match n.est with
  | Some est -> est
  | None ->
    let est =
      Cost.estimate_node ~views:m.econ m.schema m.stats (alias_env n) n.expr
        (List.map (estimate m) (kids n))
    in
    n.est <- Some est;
    est

(* Two sorted arrays merged into one. *)
let merge a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && a.(!i) <= b.(!j)) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* The bag of [n]'s subtree: the node's own items merged into its
   children's bags. *)
let rec bag m n =
  match n.bag with
  | Unknown ->
    let b =
      match Contain.items n.expr, Array.map (bag m) n.kids with
      | Some own, kids when Array.for_all (function Bag _ -> true | _ -> false) kids ->
        let id s =
          match Hashtbl.find_opt m.item_ids s with
          | Some i -> i
          | None ->
            let i = Hashtbl.length m.item_ids in
            Hashtbl.add m.item_ids s i;
            i
        in
        let ids =
          Array.fold_left
            (fun acc k -> match k with Bag a -> merge acc a | _ -> acc)
            (Array.of_list (List.sort Int.compare (List.map id own)))
            kids
        in
        Bag
          (match Bags.find_opt m.bags ids with
          | Some a -> a
          | None ->
            Bags.add m.bags ids ids;
            ids)
      | _ -> No_items
    in
    n.bag <- b;
    b
  | b -> b

(* The projection under the top selections. *)
let rec top n =
  match n.expr with
  | Nalg.Select _ -> top n.kids.(0)
  | Nalg.Project (attrs, _) -> Some attrs
  | _ -> None

(* The hint and the key, shared by the plans of one bag and top
   projection when the key is not the structural fallback. *)
let key_stages m n =
  match n.key with
  | Some k -> k
  | None ->
    let k =
      match bag m n with
      | Unknown | No_items -> Contain.key_stages n.expr
      | Bag ids -> (
        let shape = (ids, top n) in
        match Keys.find_opt m.keys shape with
        | Some k -> k
        | None ->
          let k = Contain.key_stages n.expr in
          if not (Lazy.is_val (snd k) && String.starts_with ~prefix:"S:" (Lazy.force (snd k)))
          then Keys.add m.keys shape k;
          k)
    in
    n.key <- Some k;
    k

let key m n = Lazy.force (snd (key_stages m n))

(* ------------------------------------------------------------------ *)
(* Groups                                                              *)
(* ------------------------------------------------------------------ *)

let group_of n = n.group
let gid g = g.witness.id
let witness g = g.witness
let members g = g.members
let alternatives n = match n.group with Some g -> g.members | None -> [ n ]
let parents g = g.parents

let rec member ~fresh m n =
  match n.group with
  | Some _ -> n
  | None ->
    let kids =
      Array.map
        (fun k ->
          match (member ~fresh m k).group with Some g -> g.witness | None -> assert false)
        n.kids
    in
    let c =
      if Array.for_all2 ( == ) kids n.kids then n else make m n.expr (Array.to_list kids)
    in
    (match c.group with
    | Some _ -> ()
    | None ->
      let fresh_group () = { witness = c; members = []; parents = [] } in
      let g =
        match bag m c with
        | Bag ids -> (
          let shape = (ids, top c) in
          match Keys.find_opt m.groups shape with
          | Some g -> g
          | None ->
            let g = fresh_group () in
            Keys.add m.groups shape g;
            g)
        | Unknown | No_items -> fresh_group ()
      in
      c.group <- Some g;
      g.members <- g.members @ [ c ];
      Array.iter
        (fun k -> match k.group with Some kg -> kg.parents <- c :: kg.parents | None -> ())
        c.kids;
      fresh c);
    c
