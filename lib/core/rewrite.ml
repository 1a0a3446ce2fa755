(* NALG rewriting rules (Section 6.1 of the paper).

   Rule 1 (default navigation) lives in {!View.expand}; this module
   implements the algebraic rules:

   - rule 2: a join whose predicate is a link constraint is a follow;
   - rules 3/5: eliminate unnests and navigations that contribute no
     needed attribute (implemented together as [prune]);
   - rule 4: eliminate repeated navigations under a join;
   - rule 6: move a selection across a link constraint (and standard
     selection sinking, which can choose among rule 6's forms);
   - rule 7: projection pushing (standard, via neededness analysis in
     [prune], which can choose among the rule's forms; the literal
     rule is exposed for tests);
   - rule 8: pointer join — join link sets before navigating;
   - rule 9: pointer chase — replace a join by a navigation, justified
     by an inclusion constraint.

   Every rule takes a plan as a node of the planning run's memo and
   matches over the memo's walk of it ({!Memo.walk}): one pass over the
   plan's positions in pre-order, each with its subexpression and its
   node, and each output the plan rebuilt around one position. Rules
   that restructure joins (4, 8, 9) also rewrite attribute references
   in the whole plan. *)

open Nalg

type rule = Memo.t -> Memo.node -> expr list

(* A rule's rewritings at one position of the memo's walk of a plan,
   each the whole plan rebuilt around that position. *)
type 'a at = Memo.t -> Memo.walk -> int -> 'a list

(* The rewritings at every position, in pre-order. *)
let everywhere (at : 'a at) m root =
  let w = Memo.walk m root in
  Memo.concat_map w (at m w)

(* ------------------------------------------------------------------ *)
(* Attribute name helpers                                              *)
(* ------------------------------------------------------------------ *)

(* The full attribute name for a constraint path, given the alias
   standing for its page-scheme occurrence. *)
let attr_of_path alias (p : Adm.Constraints.path) =
  String.concat "." (alias :: p.Adm.Constraints.steps)

(* [s] extends [prefix] by at least one character. *)
let extends ~prefix s =
  String.length s > String.length prefix && String.starts_with ~prefix s

(* Every attribute name referenced by operators of [e]. *)
let referenced_attrs e =
  fold
    (fun acc node ->
      match node with
      | Select (p, _) -> Pred.attrs p @ acc
      | Project (attrs, _) -> attrs @ acc
      | Join (keys, _, _) -> List.concat_map (fun (a, b) -> [ a; b ]) keys @ acc
      | Unnest (_, a) -> a :: acc
      | Follow { link; _ } -> link :: acc
      | Call { c_args; _ } ->
        List.filter_map
          (function _, Arg_attr a -> Some a | _, Arg_const _ -> None)
          c_args
        @ acc
      | Entry _ | External _ -> acc)
    [] e

(* Does the plan reference any attribute qualified by one of
   [aliases]? (Used by rule 9's side condition: the attributes of the
   abandoned path must not be needed.) *)
let references_any_alias e aliases =
  let prefixes = List.map (fun a -> a ^ ".") aliases in
  List.exists
    (fun attr -> List.exists (fun prefix -> extends ~prefix attr) prefixes)
    (referenced_attrs e)

(* The source-side attributes a link constraint equates with [attr],
   an attribute of [fl]'s target page: for each constraint A = B of
   [fl]'s link with [attr] = [fl]'s alias . B, the source side's A.
   Rules 6 and 7 read a target attribute from the source side this
   way. *)
let source_attrs schema (fl : follow) attr =
  let prefix = fl.alias ^ "." in
  if not (extends ~prefix attr) then []
  else
    match constraint_path_of_attr fl.src fl.link with
    | None -> []
    | Some (link_path, link_alias) ->
      let b = String.sub attr (String.length prefix) (String.length attr - String.length prefix) in
      List.filter_map
        (fun (c : Adm.Constraints.link_constraint) ->
          if String.equal c.target_attr b then Some (attr_of_path link_alias c.source_attr)
          else None)
        (Adm.Schema.constraints_on_link schema link_path)

(* The follows inside position [i]'s subtree (itself included), in
   pre-order. *)
let follows_within w i =
  Memo.concat_map ~within:i w (fun f ->
      match Memo.sub w f with Follow fl -> [ (f, fl) ] | _ -> [])

(* ------------------------------------------------------------------ *)
(* Rule 2: join with a link-constraint predicate = follow              *)
(* ------------------------------------------------------------------ *)

(* Join(keys=[(A, B)], e1, Entry P2) where e1 carries a link L to P2
   with associated constraint A = B, becomes e1 →L P2. The paper
   states the rule for any page relation; in plans only entry points
   appear as bare page relations. *)
let rule2_at m w i =
  match Memo.sub w i with
  | Join ([ (ka, kb) ], e1, Entry { scheme; alias }) ->
    List.filter_map
      (fun (link_attr, link_path, link_alias, target) ->
        if
          String.equal target scheme
          && List.exists
               (fun (c : Adm.Constraints.link_constraint) ->
                 String.equal c.target_scheme scheme
                 && String.equal (attr_of_path link_alias c.source_attr) ka
                 && String.equal (alias ^ "." ^ c.target_attr) kb)
               (Adm.Schema.constraints_on_link (Memo.schema m) link_path)
        then Some (Memo.rebuild w i (Follow { src = e1; link = link_attr; scheme; alias }))
        else None)
      (Memo.links m (Memo.node_at w (Memo.child w i 0)))
  | _ -> []

let rule2 m root = everywhere rule2_at m root

(* ------------------------------------------------------------------ *)
(* Rule 4: eliminate repeated navigations                              *)
(* ------------------------------------------------------------------ *)

(* Rename an attribute's alias through an alias map, leaving
   attributes of unmapped aliases alone. *)
let rename_through map a =
  match String.index_opt a '.' with
  | None -> a
  | Some i -> (
    let alias = String.sub a 0 i in
    match List.assoc_opt alias map with
    | Some alias' -> alias' ^ String.sub a i (String.length a - i)
    | None -> a)

(* [p2] under the alias map is [p1], atom by atom. *)
let same_pred map (p1 : Pred.t) (p2 : Pred.t) =
  let operand o1 o2 =
    match o1, o2 with
    | Pred.Attr a1, Pred.Attr a2 -> String.equal a1 (rename_through map a2)
    | (Pred.Attr _ | Pred.Const _), _ -> Pred.operand_equal o1 o2
  in
  List.equal
    (fun (a1 : Pred.atom) (a2 : Pred.atom) ->
      a1.Pred.cmp = a2.Pred.cmp
      && operand a1.Pred.left a2.Pred.left
      && operand a1.Pred.right a2.Pred.right)
    p1 p2

(* Structural isomorphism of navigation chains modulo an alias
   bijection: returns the renaming from [e2]'s aliases to [e1]'s. *)
let rec iso (e1 : expr) (e2 : expr) (map : (string * string) list) :
    (string * string) list option =
  match e1, e2 with
  | Entry { scheme = s1; alias = a1 }, Entry { scheme = s2; alias = a2 }
    when String.equal s1 s2 ->
    Some ((a2, a1) :: map)
  | Unnest (x1, at1), Unnest (x2, at2) -> (
    match iso x1 x2 map with
    | Some map when String.equal (rename_through map at2) at1 -> Some map
    | _ -> None)
  | Follow f1, Follow f2 when String.equal f1.scheme f2.scheme -> (
    match iso f1.src f2.src map with
    | Some map when String.equal (rename_through map f2.link) f1.link ->
      Some ((f2.alias, f1.alias) :: map)
    | _ -> None)
  | Select (p1, x1), Select (p2, x2) -> (
    match iso x1 x2 map with
    | Some map when same_pred map p1 p2 -> Some map
    | _ -> None)
  | _, _ -> None

(* Try to merge Join(keys, keep, drop): [drop] must be isomorphic to a
   peeled prefix of [keep], and every join key must collapse to an
   identity under the alias renaming. On success the result is [keep]
   (which subsumes [drop]) plus the renaming to apply to the rest of
   the plan. *)
let try_merge (keys : (string * string) list) ~(keep : expr) ~(drop : expr)
    ~drop_is_right =
  match drop with
  | Unnest _ ->
    (* trailing unnests on [drop] would be lost by the merge *)
    None
  | _ -> (
    (* find a prefix of keep (peeled at any depth) isomorphic to drop *)
    let rec first_match e =
      match iso e drop [] with
      | Some map -> Some map
      | None -> (
        match e with
        | Unnest (e1, _) | Follow { src = e1; _ } | Select (_, e1) -> first_match e1
        | Entry _ | External _ | Project _ | Join _ | Call _ -> None)
    in
    match first_match keep with
    | None -> None
    | Some alias_map ->
      let rename a =
        if String.contains a '.' then rename_through alias_map a
        else Option.value (List.assoc_opt a alias_map) ~default:a
      in
      let keys_ok =
        List.for_all
          (fun (ka, kb) ->
            let drop_key, keep_key = if drop_is_right then (kb, ka) else (ka, kb) in
            String.equal (rename drop_key) keep_key)
          keys
      in
      if keys_ok then Some (keep, rename) else None)

let rule4_at _ w i =
  match Memo.sub w i with
  | Join (keys, e1, e2) ->
    let attempt ~keep ~drop ~drop_is_right =
      match try_merge keys ~keep ~drop ~drop_is_right with
      | Some (merged, rename) -> [ (rename_attrs rename (Memo.rebuild w i merged), rename) ]
      | None -> []
    in
    attempt ~keep:e2 ~drop:e1 ~drop_is_right:false @ attempt ~keep:e1 ~drop:e2 ~drop_is_right:true
  | _ -> []

let rule4 m root = List.map fst (everywhere rule4_at m root)

(* ------------------------------------------------------------------ *)
(* Join reordering                                                     *)
(* ------------------------------------------------------------------ *)

(* Conjunctive queries arrive as left-deep join trees in FROM order;
   commutativity and associativity let rules 4, 8 and 9 find repeated
   or joinable navigations wherever they sit in the tree. *)

let join_commute_at _ w i =
  match Memo.sub w i with
  | Join (keys, e1, e2) -> [ Memo.rebuild w i (Join (List.map (fun (a, b) -> (b, a)) keys, e2, e1)) ]
  | _ -> []

let join_commute m root = everywhere join_commute_at m root

let join_rotate_at m w i =
  (* the output attributes of operand [k] of position [i]'s operand [j] *)
  let attrs j k = Memo.attrs m (Memo.node_at w (Memo.child w (Memo.child w i j) k)) in
  match Memo.sub w i with
  | Join (k2, Join (k1, a, b), c) ->
    (* ((a ⋈ b) ⋈ c) = (a ⋈ (b ⋈ c)) when k2's left attributes all
       come from b *)
    let b_attrs = attrs 0 1 in
    if List.for_all (fun (x, _) -> List.mem x b_attrs) k2 then
      [ Memo.rebuild w i (Join (k1, a, Join (k2, b, c))) ]
    else []
  | Join (k2, a, Join (k1, b, c)) ->
    (* (a ⋈ (b ⋈ c)) = ((a ⋈ b) ⋈ c) when k2's right attributes all
       come from b *)
    let b_attrs = attrs 1 0 in
    if List.for_all (fun (_, y) -> List.mem y b_attrs) k2 then
      [ Memo.rebuild w i (Join (k1, Join (k2, a, b), c)) ]
    else []
  | _ -> []

let join_rotate m root = everywhere join_rotate_at m root

(* ------------------------------------------------------------------ *)
(* Rules 8 and 9: pointer join and pointer chase                       *)
(* ------------------------------------------------------------------ *)

(* Common pattern: a Join whose one side contains (on its spine) a
   Follow to page-scheme P3, joined with the other side on
   P3.B = R2.A, where R2 carries its own link to P3 whose constraint
   says R2.A = P3.B. One match per (Join, Follow, join key, R2 link),
   by their positions in the plan's walk. *)
type pointer_match = {
  walk : Memo.walk;
  join : int;  (** the Join's position *)
  side : int;  (** the navigation side's position *)
  at : int;  (** the Follow's position, inside the navigation side *)
  follow : follow;
  other : expr;  (** R2 *)
  other_link_attr : string;  (** R2's link attribute towards P3 *)
  other_link_path : Adm.Constraints.path;
  residual_keys : (string * string) list;
}

let pointer_matches_at m w join =
  let schema = Memo.schema m in
  match Memo.sub w join with
  | Join (keys, _, _) ->
    let sided ~side ~other_at ~nav_is_left =
      (* R2's links, resolved once per side and only when some
         join key names a follow's target *)
      let links = lazy (Memo.links m (Memo.node_at w other_at)) in
      List.concat_map
        (fun (at, (fl : follow)) ->
          (* join keys of the form (P3.B, R2.A) *)
          let prefix = fl.alias ^ "." in
          List.concat_map
            (fun (ka, kb) ->
              let nav_key, other_key = if nav_is_left then (ka, kb) else (kb, ka) in
              if not (extends ~prefix nav_key) then []
              else
                let b =
                  String.sub nav_key (String.length prefix)
                    (String.length nav_key - String.length prefix)
                in
                (* R2's links to P3 whose constraint binds A = B *)
                List.filter_map
                  (fun (link_attr, link_path, link_alias, target) ->
                    if
                      String.equal target fl.scheme
                      && List.exists
                           (fun (c : Adm.Constraints.link_constraint) ->
                             String.equal c.target_scheme fl.scheme
                             && String.equal c.target_attr b
                             && String.equal (attr_of_path link_alias c.source_attr) other_key)
                           (Adm.Schema.constraints_on_link schema link_path)
                    then
                      Some
                        {
                          walk = w;
                          join;
                          side;
                          at;
                          follow = fl;
                          other = Memo.sub w other_at;
                          other_link_attr = link_attr;
                          other_link_path = link_path;
                          residual_keys =
                            List.filter
                              (fun (x, y) -> not (String.equal x ka && String.equal y kb))
                              keys;
                        }
                    else None)
                  (Lazy.force links))
            keys)
        (follows_within w side)
    in
    let left = Memo.child w join 0 and right = Memo.child w join 1 in
    sided ~side:left ~other_at:right ~nav_is_left:true
    @ sided ~side:right ~other_at:left ~nav_is_left:false
  | _ -> []

let pointer_matches m root = everywhere pointer_matches_at m root

(* The plan with the match's Join replaced by its navigation side, the
   Follow in it replaced by [follow], and the residual join keys
   re-applied as a selection over it. *)
let replace_join pm follow =
  let side = Memo.rebuild ~within:pm.side pm.walk pm.at follow in
  Memo.rebuild pm.walk pm.join
    (match pm.residual_keys with
    | [] -> side
    | keys -> Select (List.map (fun (a, b) -> Pred.eq_attrs a b) keys, side))

(* Rule 8 [Pointer Join]:
   (R1 →L R3) ⋈_{R3.B=R2.A} R2  =  (R1 ⋈_{R1.L=R2.L'} R2) →L R3 *)
let pointer_join pm =
  let fl = pm.follow in
  (* R2's attributes must be disjoint from the navigation side's:
     guaranteed by unique aliases. Link values joined directly. *)
  replace_join pm (Follow { fl with src = Join ([ (fl.link, pm.other_link_attr) ], fl.src, pm.other) })

let rule8 m root = List.map pointer_join (pointer_matches m root)

(* Rule 9 [Pointer Chase]:
   π_X((R1 →L R3) ⋈_{R3.B=R2.A} R2) = π_X(R2 →L' R3)
   requires the inclusion R2.L' ⊆ R1.L and that X references nothing
   from R1. *)

(* The abandoned prefix must enumerate the link path's full extent:
   a chain of entry points, unnests and follows. A Select or Join on
   the spine restricts the link set the navigation reaches, and the
   declared inclusion R2.L' ⊆ R1.L speaks about the unrestricted
   extent — dropping a restricted prefix would silently widen the
   answer (e.g. "professors that teach" back to "professors"). *)
let rec pure_navigation = function
  | Entry _ -> true
  | Unnest (e1, _) -> pure_navigation e1
  | Follow { src; _ } -> pure_navigation src
  (* a call reaches only the pages its bound arguments select, never
     a link attribute's full extent — rule 9's inclusion does not apply *)
  | Select _ | Join _ | Project _ | External _ | Call _ -> false

let pointer_chase (schema : Adm.Schema.t) pm =
  let fl = pm.follow in
  if not (pure_navigation fl.src) then None
  else
    match constraint_path_of_attr fl.src fl.link with
    | None -> None
    | Some (sup_path, _) ->
      if not (Adm.Schema.inclusion_holds schema ~sub:pm.other_link_path ~sup:sup_path)
      then None
      else
        let candidate =
          replace_join pm
            (Follow { src = pm.other; link = pm.other_link_attr; scheme = fl.scheme; alias = fl.alias })
        in
        (* side condition: the dropped prefix R1's aliases must not
           be referenced anywhere in the rewritten plan *)
        let kept = aliases candidate in
        let dropped = List.filter (fun a -> not (List.mem a kept)) (aliases fl.src) in
        if references_any_alias candidate dropped then None else Some candidate

let rule9 m root = List.filter_map (pointer_chase (Memo.schema m)) (pointer_matches m root)

(* Rules 8 and 9 over one shared match pass: rule 8's rewritings,
   then rule 9's — the order the two rules produce one after the
   other. *)
let rules8_9_of m ms = List.map pointer_join ms @ List.filter_map (pointer_chase (Memo.schema m)) ms
let rules8_9 m root = rules8_9_of m (pointer_matches m root)
let rules8_9_at m w i = rules8_9_of m (pointer_matches_at m w i)

(* ------------------------------------------------------------------ *)
(* Rule 6: moving selections across link constraints                   *)
(* ------------------------------------------------------------------ *)

(* The follows of [e], in pre-order. *)
let follows_of e = List.rev (fold (fun acc -> function Follow fl -> fl :: acc | _ -> acc) [] e)

(* [x] and every form [steps] reaches from it, each once, in
   breadth-first order. *)
let forms equal steps x =
  let seen = ref [ x ] and queue = Queue.create () in
  Queue.add x queue;
  while not (Queue.is_empty queue) do
    List.iter
      (fun y ->
        if not (List.exists (equal y) !seen) then begin
          seen := y :: !seen;
          Queue.add y queue
        end)
      (steps (Queue.pop queue))
  done;
  List.rev !seen

(* For a selection atom on attribute P3.B (alias a3) where a3 is the
   target of a Follow over link L carrying constraint A = B, the atom
   can equivalently test A on the source side. The one-step rewritings
   of a conjunction [p] over a subplan with [follows]: one per
   applicable (atom, follow, constraint), in that order. *)
let rule6_steps schema follows (p : Pred.t) =
  List.concat_map
    (fun (atom : Pred.atom) ->
      (* any comparison against a constant qualifies: A = B makes
         σ_{B ⊙ v} ≡ σ_{A ⊙ v} for every comparison ⊙ *)
      match atom.Pred.left, atom.Pred.right with
      | Pred.Attr attr, Pred.Const _ | Pred.Const _, Pred.Attr attr ->
        (* the atom testing [a] in [attr]'s place *)
        let reread a =
          match atom.Pred.left with
          | Pred.Attr _ -> { atom with Pred.left = Pred.Attr a }
          | Pred.Const _ -> { atom with Pred.right = Pred.Attr a }
        in
        List.concat_map
          (fun fl ->
            List.map
              (fun source_attr ->
                let atom' = reread source_attr in
                List.map (fun a -> if a == atom then atom' else a) p)
              (source_attrs schema fl attr))
          follows
      | _ -> [])
    p

let rule6 m root =
  let schema = Memo.schema m in
  let w = Memo.walk m root in
  Memo.concat_map w (fun i ->
      match Memo.sub w i with
      | Select (p, e1) ->
        List.map
          (fun p' -> Memo.rebuild w i (Select (p', e1)))
          (rule6_steps schema (follows_of e1) p)
      | _ -> [])

(* ------------------------------------------------------------------ *)
(* Standard selection sinking                                          *)
(* ------------------------------------------------------------------ *)

let subset attrs available = List.for_all (fun a -> List.mem a available) attrs

(* The cheapest of [xs] by {!Memo.estimate} — a well-typed one
   before an ill-typed one, the first on a tie; typed only as far as
   the cheapest well-typed one. *)
let cheapest m = function
  | [ x ] -> x
  | xs -> (
    let by_cost =
      List.stable_sort
        (fun x y -> Float.compare (Memo.estimate m x).Cost.cost (Memo.estimate m y).Cost.cost)
        xs
    in
    match List.find_opt (fun x -> not (Memo.has_errors m x)) by_cost with
    | Some x -> x
    | None -> List.hd by_cost)

(* Push every selection atom to the lowest operator that provides its
   attributes. Without [rule6] this is plain commutation; with it,
   each selection's conjunction is also placed in each of its rule-6
   forms, and the cheapest placement is kept. *)
let sink ?(rule6 = false) (m : Memo.t) =
  (* the atoms child [i] of [n] provides every attribute of, and the
     rest; the memo answers each child's attributes once *)
  let split atoms n i =
    match atoms with
    | [] -> ([], [])
    | _ ->
      let avail = Memo.attrs m (Memo.kid n i) in
      List.partition (fun at -> subset (Pred.atom_attrs at) avail) atoms
  in
  (* per node (a group's first member for its group), the plan made
     for each set of atoms *)
  let chosen = Hashtbl.create 16 in
  fun (root : Memo.node) ->
  let rec place (atoms : Pred.atom list) n =
    let alts = Memo.alternatives n in
    let id = Memo.id (List.hd alts) in
    let made = Option.value (Hashtbl.find_opt chosen id) ~default:[] in
    match List.find_opt (fun (a, _) -> List.equal Pred.atom_equal a atoms) made with
    | Some (_, x) -> x
    | None ->
      let x = cheapest m (List.map (place_in atoms) alts) in
      Hashtbl.replace chosen id ((atoms, x) :: made);
      x
  and place_in atoms n =
    let e = Memo.expr n in
    let kid i atoms = place atoms (Memo.kid n i) in
    match e with
    | Select (p, e1) ->
      let ps =
        if rule6 then
          forms (List.equal Pred.atom_equal) (rule6_steps (Memo.schema m) (follows_of e1)) p
        else [ p ]
      in
      cheapest m (List.map (fun p -> kid 0 (atoms @ p)) ps)
    | Entry _ | External _ | Call { c_src = None; _ } -> wrap atoms n
    | Project (attrs, _) ->
      let inside, here =
        List.partition (fun a -> subset (Pred.atom_attrs a) attrs) atoms
      in
      wrap here (Memo.make m e [ kid 0 inside ])
    | Unnest _ | Follow _ | Call { c_src = Some _; _ } ->
      let inside, here = split atoms n 0 in
      wrap here (Memo.make m e [ kid 0 inside ])
    | Join _ ->
      let left, rest = split atoms n 0 in
      let right, here = split rest n 1 in
      wrap here (Memo.make m e [ kid 0 left; kid 1 right ])
  and wrap atoms n =
    match atoms with [] -> n | p -> Memo.make m (Select (p, Memo.expr n)) [ n ]
  in
  place [] root

let sink_selections m root = Memo.expr (sink m root)

(* ------------------------------------------------------------------ *)
(* Rules 3, 5, 7: neededness pruning                                   *)
(* ------------------------------------------------------------------ *)

(* Drop unnests (rule 3) and navigations (rule 5) that contribute no
   attribute needed above them; this is projection pushing (rule 7)
   done by analysis instead of by materializing π nodes. Neededness
   flows top-down: the root's projection, plus every predicate, join
   key, link and unnest attribute below. *)
let prune_plan (m : Memo.t) (root : Memo.node) : expr =
  let schema = Memo.schema m in
  let rec go (needed : string list) e =
    match e with
    | Entry _ | External _ -> e
    | Project (attrs, e1) -> with_children e [ go attrs e1 ]
    | Select (p, e1) -> with_children e [ go (Pred.attrs p @ needed) e1 ]
    | Join (keys, e1, e2) ->
      let key_attrs = List.concat_map (fun (a, b) -> [ a; b ]) keys in
      let needed = key_attrs @ needed in
      with_children e [ go needed e1; go needed e2 ]
    | Unnest (e1, a) ->
      let contributes =
        let prefix = a ^ "." in
        List.exists (extends ~prefix) needed
      in
      (* Rule 3 is licensed by a declared non-emptiness constraint:
         without it, a page with an empty list would survive the
         unnest-free plan but produce no rows in the original. *)
      let droppable =
        match constraint_path_of_attr e1 a with
        | Some (p, _) -> (
          match Adm.Schema.find_scheme schema p.Adm.Constraints.scheme with
          | Some ps -> Adm.Page_scheme.is_nonempty_path ps p.Adm.Constraints.steps
          | None -> false)
        | None -> false
      in
      if contributes || not droppable then with_children e [ go (a :: needed) e1 ]
      else go needed e1
    | Follow fl ->
      let prefix = fl.alias ^ "." in
      let contributes = List.exists (extends ~prefix) needed in
      let optional =
        match constraint_path_of_attr fl.src fl.link with
        | Some (p, _) -> (
          match Adm.Schema.find_scheme schema p.Adm.Constraints.scheme with
          | Some ps -> Adm.Page_scheme.is_optional_path ps p.Adm.Constraints.steps
          | None -> false)
        | None -> false
      in
      if contributes || optional then with_children e [ go (fl.link :: needed) fl.src ]
      else go needed fl.src
    | Call { c_src; c_args; _ } ->
      (* never dropped: the bound arguments are the access path itself;
         the source must keep every attribute a call argument reads *)
      let arg_attrs =
        List.filter_map
          (function _, Arg_attr a -> Some a | _, Arg_const _ -> None)
          c_args
      in
      (match c_src with
      | None -> e
      | Some src -> with_children e [ go (arg_attrs @ needed) src ])
  in
  go (Memo.attrs m root) (Memo.expr root)

(* Rule 7: a projected attribute P2.B whose page is reached over a
   link carrying the constraint A = B can be read from the source side
   instead (the value is replicated there — the paper's "editors of
   VLDB'96 are already on the conference page"). With pruning this
   eliminates whole navigations whose pages only contribute replicated
   values. The one-step rewritings of a projection list [attrs] over a
   subplan with [follows]: one per (attribute, follow, constraint), in
   that order. *)
let rule7_steps schema follows attrs =
  List.concat_map
    (fun attr ->
      List.concat_map
        (fun fl ->
          List.map
            (fun source_attr ->
              List.map (fun a -> if String.equal a attr then source_attr else a) attrs)
            (source_attrs schema fl attr))
        follows)
    attrs

(* With [rule7], every rule-7 form of the top projection pruned, the
   cheapest kept: an attribute is read from its source side where that
   lets a navigation go. *)
let prune ?(rule7 = false) m root =
  match Memo.expr root with
  | Project (attrs, e1) when rule7 ->
    let pruned attrs' =
      let n = Memo.make m (Project (attrs', e1)) [ Memo.kid root 0 ] in
      Memo.intern ~hint:n m (prune_plan m n)
    in
    let attrs' =
      forms (List.equal String.equal) (rule7_steps (Memo.schema m) (follows_of e1)) attrs
    in
    Memo.expr (cheapest m (List.map pruned attrs'))
  | _ -> prune_plan m root

let rule7_replace m root =
  let schema = Memo.schema m in
  let w = Memo.walk m root in
  Memo.concat_map w (fun i ->
      match Memo.sub w i with
      | Project (attrs, e1) ->
        List.map
          (fun attrs' -> Memo.rebuild w i (Project (attrs', e1)))
          (rule7_steps schema (follows_of e1) attrs)
      | _ -> [])

(* Rule 7 in its literal form, for tests and documentation:
   π_B(R1 →L R2) = π_A(π_{A,L}(R1) →L R2) given constraint A = B
   (we return the source-side equivalent π_A(R1)). *)
let rule7_literal m root =
  let schema = Memo.schema m in
  let w = Memo.walk m root in
  Memo.concat_map w (fun i ->
      match Memo.sub w i with
      | Project ([ b_attr ], Follow fl) ->
        List.map
          (fun source_attr -> Memo.rebuild w i (Project ([ source_attr ], fl.src)))
          (source_attrs schema fl b_attr)
      | _ -> [])
