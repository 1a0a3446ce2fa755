(* NALG rewriting rules (Section 6.1 of the paper).

   Rule 1 (default navigation) lives in {!View.expand}; this module
   implements the algebraic rules:

   - rule 2: a join whose predicate is a link constraint is a follow;
   - rules 3/5: eliminate unnests and navigations that contribute no
     needed attribute (implemented together as [prune]);
   - rule 4: eliminate repeated navigations under a join;
   - rule 6: move a selection across a link constraint (and standard
     selection sinking);
   - rule 7: projection pushing (standard, via neededness analysis in
     [prune]; the literal rule is exposed for tests);
   - rule 8: pointer join — join link sets before navigating;
   - rule 9: pointer chase — replace a join by a navigation, justified
     by an inclusion constraint.

   Rules that restructure joins (4, 8, 9) must rewrite attribute
   references in the *whole* plan, so they are implemented as searches
   over the root expression using explicit node contexts. *)

open Nalg

(* Every subexpression paired with the function that rebuilds the root
   with that subexpression replaced. *)
let rec contexts (e : expr) : (expr * (expr -> expr)) list =
  let wrap f rest = List.map (fun (sub, rb) -> (sub, fun x -> f (rb x))) rest in
  (e, fun x -> x)
  ::
  (match e with
  | Entry _ | External _ | Call { c_src = None; _ } -> []
  | Select (p, e1) -> wrap (fun x -> Select (p, x)) (contexts e1)
  | Project (attrs, e1) -> wrap (fun x -> Project (attrs, x)) (contexts e1)
  | Unnest (e1, a) -> wrap (fun x -> Unnest (x, a)) (contexts e1)
  | Follow fl -> wrap (fun x -> Follow { fl with src = x }) (contexts fl.src)
  | Call ({ c_src = Some src; _ } as c) ->
    wrap (fun x -> Call { c with c_src = Some x }) (contexts src)
  | Join (keys, e1, e2) ->
    wrap (fun x -> Join (keys, x, e2)) (contexts e1)
    @ wrap (fun x -> Join (keys, e1, x)) (contexts e2))

(* ------------------------------------------------------------------ *)
(* Attribute name helpers                                              *)
(* ------------------------------------------------------------------ *)

(* The full attribute name for a constraint path, given the alias
   standing for its page-scheme occurrence. *)
let attr_of_path alias (p : Adm.Constraints.path) =
  String.concat "." (alias :: p.Adm.Constraints.steps)

(* All link attributes available in [e]'s output (after the necessary
   unnests), with their constraint path and target scheme. *)
let available_links (schema : Adm.Schema.t) (e : expr) =
  let out = output_attrs schema e in
  let env = alias_env e in
  List.filter_map
    (fun attr ->
      match constraint_path_in env attr with
      | None -> None
      | Some (path, alias) -> (
        match Adm.Schema.link_target schema path with
        | Some target -> Some (attr, path, alias, target)
        | None -> None))
    out

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
    (fun attr -> List.exists (fun p -> String.length attr > String.length p
                                       && String.sub attr 0 (String.length p) = p)
                   prefixes)
    (referenced_attrs e)

(* ------------------------------------------------------------------ *)
(* Rule 2: join with a link-constraint predicate = follow              *)
(* ------------------------------------------------------------------ *)

(* Join(keys=[(A, B)], e1, Entry P2) where e1 carries a link L to P2
   with associated constraint A = B, becomes e1 →L P2. The paper
   states the rule for any page relation; in plans only entry points
   appear as bare page relations. *)
let rule2 (schema : Adm.Schema.t) (root : expr) : expr list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Join ([ (ka, kb) ], e1, Entry { scheme; alias }) ->
        List.filter_map
          (fun (link_attr, link_path, link_alias, target) ->
            if not (String.equal target scheme) then None
            else
              let matching =
                List.find_opt
                  (fun (c : Adm.Constraints.link_constraint) ->
                    String.equal c.target_scheme scheme
                    && String.equal (attr_of_path link_alias c.source_attr) ka
                    && String.equal (alias ^ "." ^ c.target_attr) kb)
                  (Adm.Schema.constraints_on_link schema link_path)
              in
              match matching with
              | Some _ -> Some (rb (Follow { src = e1; link = link_attr; scheme; alias }))
              | None -> None)
          (available_links schema e1)
      | _ -> [])
    (contexts root)

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

(* Peel trailing unnests: e = core ◦ a1 ◦ … ◦ ak. *)
let rec peel_unnests = function
  | Unnest (e1, a) ->
    let core, steps = peel_unnests e1 in
    (core, steps @ [ a ])
  | e -> (e, [])

(* Try to merge Join(keys, keep, drop): [drop]'s core must be
   isomorphic to a peeled prefix of [keep], and every join key must
   collapse to an identity under the alias renaming. On success the
   result is [keep] (which subsumes [drop]) plus the renaming to apply
   to the rest of the plan. *)
let try_merge (keys : (string * string) list) ~(keep : expr) ~(drop : expr)
    ~drop_is_right =
  let drop_core, _drop_steps = peel_unnests drop in
  (* [drop] must not have residual unnests beyond the core — otherwise
     merging would lose attributes; require drop = its own core. *)
  if not (equal drop drop_core) then None
  else
    (* find a prefix of keep (peeled at any depth) isomorphic to drop *)
    let rec prefixes e = e :: (match e with
      | Unnest (e1, _) -> prefixes e1
      | Follow { src; _ } -> prefixes src
      | Select (_, e1) -> prefixes e1
      | Entry _ | External _ | Project _ | Join _ | Call _ -> [])
    in
    let candidates = prefixes keep in
    let rec first_match = function
      | [] -> None
      | prefix :: rest -> (
        match iso prefix drop [] with
        | Some map -> Some map
        | None -> first_match rest)
    in
    match first_match candidates with
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
      if keys_ok then Some (keep, rename) else None

let rule4 (_schema : Adm.Schema.t) (root : expr) : expr list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Join (keys, e1, e2) ->
        let attempt ~keep ~drop ~drop_is_right =
          match try_merge keys ~keep ~drop ~drop_is_right with
          | Some (merged, rename) -> [ rename_attrs rename (rb merged) ]
          | None -> []
        in
        attempt ~keep:e2 ~drop:e1 ~drop_is_right:false
        @ attempt ~keep:e1 ~drop:e2 ~drop_is_right:true
      | _ -> [])
    (contexts root)

(* ------------------------------------------------------------------ *)
(* Join reordering                                                     *)
(* ------------------------------------------------------------------ *)

(* Conjunctive queries arrive as left-deep join trees in FROM order;
   commutativity and associativity let rules 4, 8 and 9 find repeated
   or joinable navigations wherever they sit in the tree. *)

let join_commute (_schema : Adm.Schema.t) (root : expr) : expr list =
  List.filter_map
    (fun (sub, rb) ->
      match sub with
      | Join (keys, e1, e2) ->
        Some (rb (Join (List.map (fun (a, b) -> (b, a)) keys, e2, e1)))
      | _ -> None)
    (contexts root)

let join_rotate (schema : Adm.Schema.t) (root : expr) : expr list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Join (k2, Join (k1, a, b), c) ->
        (* ((a ⋈ b) ⋈ c) = (a ⋈ (b ⋈ c)) when k2's left attributes all
           come from b *)
        let b_attrs = output_attrs schema b in
        if List.for_all (fun (x, _) -> List.mem x b_attrs) k2 then
          [ rb (Join (k1, a, Join (k2, b, c))) ]
        else []
      | Join (k2, a, Join (k1, b, c)) ->
        (* (a ⋈ (b ⋈ c)) = ((a ⋈ b) ⋈ c) when k2's right attributes all
           come from b *)
        let b_attrs = output_attrs schema b in
        if List.for_all (fun (_, y) -> List.mem y b_attrs) k2 then
          [ rb (Join (k1, Join (k2, a, b), c)) ]
        else []
      | _ -> [])
    (contexts root)

(* ------------------------------------------------------------------ *)
(* Rules 8 and 9: pointer join and pointer chase                       *)
(* ------------------------------------------------------------------ *)

(* Common pattern: a Join whose one side contains (on its spine) a
   Follow to page-scheme P3, joined with the other side on
   P3.B = R2.A, where R2 carries its own link to P3 whose constraint
   says R2.A = P3.B. Returns, per match:
   (context of the Follow inside that side, the follow record, the
    other side, R2's link attribute, remaining join keys, rebuild). *)
type pointer_match = {
  follow : follow; (* the Follow node on the navigation side *)
  follow_rb : expr -> expr; (* rebuilds that side around the Follow *)
  other : expr; (* R2 *)
  other_link_attr : string; (* R2's link attribute towards P3 *)
  other_link_path : Adm.Constraints.path;
  residual_keys : (string * string) list;
  rebuild : expr -> expr; (* rebuilds the root around the Join *)
}

let pointer_matches (schema : Adm.Schema.t) (root : expr) : pointer_match list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Join (keys, left, right) ->
        let sided nav_side other ~nav_is_left =
          (* R2's links, resolved once per side and only when some
             join key names a follow's target *)
          let links = lazy (available_links schema other) in
          List.concat_map
            (fun (fsub, frb) ->
              match fsub with
              | Follow fl ->
                (* join keys of the form (P3.B, R2.A) *)
                let prefix = fl.alias ^ "." in
                List.concat_map
                  (fun (ka, kb) ->
                    let nav_key, other_key = if nav_is_left then (ka, kb) else (kb, ka) in
                    if
                      String.length nav_key > String.length prefix
                      && String.sub nav_key 0 (String.length prefix) = prefix
                    then
                      let b =
                        String.sub nav_key (String.length prefix)
                          (String.length nav_key - String.length prefix)
                      in
                      (* find R2's links to P3 whose constraint binds A = B *)
                      List.filter_map
                        (fun (link_attr, link_path, link_alias, target) ->
                          if not (String.equal target fl.scheme) then None
                          else
                            let ok =
                              List.exists
                                (fun (c : Adm.Constraints.link_constraint) ->
                                  String.equal c.target_scheme fl.scheme
                                  && String.equal c.target_attr b
                                  && String.equal
                                       (attr_of_path link_alias c.source_attr)
                                       other_key)
                                (Adm.Schema.constraints_on_link schema link_path)
                            in
                            if not ok then None
                            else
                              let residual_keys =
                                List.filter
                                  (fun (x, y) ->
                                    not (String.equal x ka && String.equal y kb))
                                  keys
                              in
                              Some
                                {
                                  follow = fl;
                                  follow_rb = frb;
                                  other;
                                  other_link_attr = link_attr;
                                  other_link_path = link_path;
                                  residual_keys;
                                  rebuild = rb;
                                })
                        (Lazy.force links)
                    else [])
                  keys
              | _ -> [])
            (contexts nav_side)
        in
        sided left right ~nav_is_left:true @ sided right left ~nav_is_left:false
      | _ -> [])
    (contexts root)

(* A pointer match with its residual join keys re-applied as a
   selection over the rewritten side. *)
let with_residual m new_side =
  match m.residual_keys with
  | [] -> new_side
  | keys -> Select (List.map (fun (a, b) -> Pred.eq_attrs a b) keys, new_side)

(* Rule 8 [Pointer Join]:
   (R1 →L R3) ⋈_{R3.B=R2.A} R2  =  (R1 ⋈_{R1.L=R2.L'} R2) →L R3 *)
let pointer_join m =
  let fl = m.follow in
  (* R2's attributes must be disjoint from the navigation side's:
     guaranteed by unique aliases. Link values joined directly. *)
  let joined = Join ([ (fl.link, m.other_link_attr) ], fl.src, m.other) in
  m.rebuild (with_residual m (m.follow_rb (Follow { fl with src = joined })))

let rule8 (schema : Adm.Schema.t) (root : expr) : expr list =
  List.map pointer_join (pointer_matches schema root)

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

let pointer_chase (schema : Adm.Schema.t) m =
  let fl = m.follow in
  if not (pure_navigation fl.src) then None
  else
    match constraint_path_of_attr fl.src fl.link with
    | None -> None
    | Some (sup_path, _) ->
      if not (Adm.Schema.inclusion_holds schema ~sub:m.other_link_path ~sup:sup_path)
      then None
      else
        let new_follow =
          Follow { src = m.other; link = m.other_link_attr; scheme = fl.scheme; alias = fl.alias }
        in
        let candidate = m.rebuild (with_residual m (m.follow_rb new_follow)) in
        (* side condition: the dropped prefix R1's aliases must not
           be referenced anywhere in the rewritten plan *)
        let kept = aliases candidate in
        let dropped = List.filter (fun a -> not (List.mem a kept)) (aliases fl.src) in
        if references_any_alias candidate dropped then None else Some candidate

let rule9 (schema : Adm.Schema.t) (root : expr) : expr list =
  List.filter_map (pointer_chase schema) (pointer_matches schema root)

(* Rules 8 and 9 over one shared match pass: rule 8's rewritings,
   then rule 9's — the order the two rules produce one after the
   other. *)
let rules8_9 (schema : Adm.Schema.t) (root : expr) : expr list =
  let ms = pointer_matches schema root in
  List.map pointer_join ms @ List.filter_map (pointer_chase schema) ms

(* ------------------------------------------------------------------ *)
(* Rule 6: moving selections across link constraints                   *)
(* ------------------------------------------------------------------ *)

(* For a selection atom on attribute P3.B (alias a3) where a3 is the
   target of a Follow over link L carrying constraint A = B, the atom
   can equivalently test A on the source side. One rewriting step per
   applicable (atom, constraint); closure is taken by the planner. *)
let rule6 (schema : Adm.Schema.t) (root : expr) : expr list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Select (p, e1) ->
        List.concat_map
          (fun (atom : Pred.atom) ->
            (* any comparison against a constant qualifies: A = B makes
               σ_{B ⊙ v} ≡ σ_{A ⊙ v} for every comparison ⊙ *)
            let attr_const =
              match atom.Pred.left, atom.Pred.right with
              | Pred.Attr a, Pred.Const v -> Some (a, v, true)
              | Pred.Const v, Pred.Attr a -> Some (a, v, false)
              | _ -> None
            in
            match attr_const with
            | None -> []
            | Some (attr, v, const_right) ->
              (* find follows in e1 whose alias qualifies [attr] *)
              List.concat_map
                (fun (fsub, _) ->
                  match fsub with
                  | Follow fl
                    when String.length attr > String.length fl.alias + 1
                         && String.sub attr 0 (String.length fl.alias + 1)
                            = fl.alias ^ "." -> (
                    let b =
                      String.sub attr
                        (String.length fl.alias + 1)
                        (String.length attr - String.length fl.alias - 1)
                    in
                    match constraint_path_of_attr fl.src fl.link with
                    | None -> []
                    | Some (link_path, link_alias) ->
                      List.filter_map
                        (fun (c : Adm.Constraints.link_constraint) ->
                          if not (String.equal c.target_attr b) then None
                          else
                            let source_attr = attr_of_path link_alias c.source_attr in
                            let atom' =
                              if const_right then
                                { Pred.left = Pred.Attr source_attr;
                                  cmp = atom.Pred.cmp;
                                  right = Pred.Const v }
                              else
                                { Pred.left = Pred.Const v;
                                  cmp = atom.Pred.cmp;
                                  right = Pred.Attr source_attr }
                            in
                            let p' =
                              List.map (fun a -> if a == atom then atom' else a) p
                            in
                            Some (rb (Select (p', e1))))
                        (Adm.Schema.constraints_on_link schema link_path))
                  | _ -> [])
                (contexts e1))
          p
      | _ -> [])
    (contexts root)

(* ------------------------------------------------------------------ *)
(* Standard selection sinking                                          *)
(* ------------------------------------------------------------------ *)

let subset attrs available = List.for_all (fun a -> List.mem a available) attrs

(* Push every selection atom to the lowest operator that provides its
   attributes. Equalities implied by link constraints are not used
   here — that is rule 6's job; this is plain commutation. *)
let sink_selections (schema : Adm.Schema.t) (e : expr) : expr =
  (* one memo table per invocation: the same subtrees are queried at
     every enclosing operator on the way down *)
  let out = output_attrs_memo schema in
  let rec place (atoms : Pred.atom list) e =
    match e with
    | Select (p, e1) -> place (atoms @ p) e1
    | Entry _ | External _ -> wrap atoms e
    | Project (attrs, e1) ->
      let inside, here =
        List.partition (fun a -> subset (Pred.atom_attrs a) attrs) atoms
      in
      wrap here (Project (attrs, place inside e1))
    | Unnest (e1, a) ->
      let avail = out e1 in
      let inside, here =
        List.partition (fun at -> subset (Pred.atom_attrs at) avail) atoms
      in
      wrap here (Unnest (place inside e1, a))
    | Follow fl ->
      let avail = out fl.src in
      let inside, here =
        List.partition (fun at -> subset (Pred.atom_attrs at) avail) atoms
      in
      wrap here (Follow { fl with src = place inside fl.src })
    | Call { c_src = None; _ } -> wrap atoms e
    | Call ({ c_src = Some src; _ } as c) ->
      let avail = out src in
      let inside, here =
        List.partition (fun at -> subset (Pred.atom_attrs at) avail) atoms
      in
      wrap here (Call { c with c_src = Some (place inside src) })
    | Join (keys, e1, e2) ->
      let a1 = out e1 in
      let a2 = out e2 in
      let left, rest = List.partition (fun at -> subset (Pred.atom_attrs at) a1) atoms in
      let right, here = List.partition (fun at -> subset (Pred.atom_attrs at) a2) rest in
      wrap here (Join (keys, place left e1, place right e2))
  and wrap atoms e = match atoms with [] -> e | p -> Select (p, e) in
  place [] e

(* ------------------------------------------------------------------ *)
(* Rules 3, 5, 7: neededness pruning                                   *)
(* ------------------------------------------------------------------ *)

(* Drop unnests (rule 3) and navigations (rule 5) that contribute no
   attribute needed above them; this is projection pushing (rule 7)
   done by analysis instead of by materializing π nodes. Neededness
   flows top-down: the root's projection, plus every predicate, join
   key, link and unnest attribute below. *)
let prune (schema : Adm.Schema.t) (root : expr) : expr =
  let rec go (needed : string list) e =
    match e with
    | Entry _ | External _ -> e
    | Project (attrs, e1) -> Project (attrs, go attrs e1)
    | Select (p, e1) -> Select (p, go (Pred.attrs p @ needed) e1)
    | Join (keys, e1, e2) ->
      let key_attrs = List.concat_map (fun (a, b) -> [ a; b ]) keys in
      let needed = key_attrs @ needed in
      Join (keys, go needed e1, go needed e2)
    | Unnest (e1, a) ->
      let contributes =
        List.exists
          (fun n ->
            String.length n > String.length a + 1
            && String.sub n 0 (String.length a + 1) = a ^ ".")
          needed
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
      if contributes || not droppable then Unnest (go (a :: needed) e1, a)
      else go needed e1
    | Follow fl ->
      let prefix = fl.alias ^ "." in
      let contributes =
        List.exists
          (fun n ->
            String.length n > String.length prefix
            && String.sub n 0 (String.length prefix) = prefix)
          needed
      in
      let optional =
        match constraint_path_of_attr fl.src fl.link with
        | Some (p, _) -> (
          match Adm.Schema.find_scheme schema p.Adm.Constraints.scheme with
          | Some ps -> Adm.Page_scheme.is_optional_path ps p.Adm.Constraints.steps
          | None -> false)
        | None -> false
      in
      if contributes || optional then Follow { fl with src = go (fl.link :: needed) fl.src }
      else go needed fl.src
    | Call ({ c_src; c_args; _ } as c) ->
      (* never dropped: the bound arguments are the access path itself;
         the source must keep every attribute a call argument reads *)
      let arg_attrs =
        List.filter_map
          (function _, Arg_attr a -> Some a | _, Arg_const _ -> None)
          c_args
      in
      (match c_src with
      | None -> e
      | Some src -> Call { c with c_src = Some (go (arg_attrs @ needed) src) })
  in
  go (output_attrs schema root) root

(* Rule 7 as a plan-space rewriting: a projected attribute P2.B whose
   page is reached over a link carrying the constraint A = B can be
   read from the source side instead (the value is replicated there —
   the paper's "editors of VLDB'96 are already on the conference
   page"). Combined with [prune], this eliminates whole navigations
   whose pages only contribute replicated values. One projection
   attribute is replaced per step; the planner takes the closure. *)
let rule7_replace (schema : Adm.Schema.t) (root : expr) : expr list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Project (attrs, e1) ->
        List.concat_map
          (fun attr ->
            (* find the Follow feeding [attr]'s alias *)
            List.concat_map
              (fun (fsub, _) ->
                match fsub with
                | Follow fl
                  when String.length attr > String.length fl.alias + 1
                       && String.sub attr 0 (String.length fl.alias + 1)
                          = fl.alias ^ "." -> (
                  let b =
                    String.sub attr
                      (String.length fl.alias + 1)
                      (String.length attr - String.length fl.alias - 1)
                  in
                  match constraint_path_of_attr fl.src fl.link with
                  | None -> []
                  | Some (link_path, link_alias) ->
                    List.filter_map
                      (fun (c : Adm.Constraints.link_constraint) ->
                        if not (String.equal c.target_attr b) then None
                        else
                          let source_attr = attr_of_path link_alias c.source_attr in
                          let attrs' =
                            List.map
                              (fun a -> if String.equal a attr then source_attr else a)
                              attrs
                          in
                          Some (rb (Project (attrs', e1))))
                      (Adm.Schema.constraints_on_link schema link_path))
                | _ -> [])
              (contexts e1))
          attrs
      | _ -> [])
    (contexts root)

(* Rule 7 in its literal form, for tests and documentation:
   π_B(R1 →L R2) = π_A(π_{A,L}(R1) →L R2) given constraint A = B
   (we return the source-side equivalent π_A(R1)). *)
let rule7_literal (schema : Adm.Schema.t) (root : expr) : expr list =
  List.concat_map
    (fun (sub, rb) ->
      match sub with
      | Project ([ b_attr ], Follow fl) -> (
        match constraint_path_of_attr fl.src fl.link with
        | None -> []
        | Some (link_path, link_alias) ->
          let prefix = fl.alias ^ "." in
          if
            String.length b_attr > String.length prefix
            && String.sub b_attr 0 (String.length prefix) = prefix
          then
            let b =
              String.sub b_attr (String.length prefix)
                (String.length b_attr - String.length prefix)
            in
            List.filter_map
              (fun (c : Adm.Constraints.link_constraint) ->
                if String.equal c.target_attr b then
                  Some (rb (Project ([ attr_of_path link_alias c.source_attr ], fl.src)))
                else None)
              (Adm.Schema.constraints_on_link schema link_path)
          else [])
      | _ -> [])
    (contexts root)
