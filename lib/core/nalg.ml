(* The Navigational Algebra (NALG, Section 4 of the paper): the
   selection-projection-join algebra over nested relations extended
   with two navigational operators,

     unnest page  R ◦ L   — navigate inside a page's nested structure
     follow link  R →L P  — navigate between pages along link L

   Expressions are built over page-schemes of a web scheme. Every
   page-scheme occurrence carries an alias (defaulting to the scheme
   name) so that one scheme may appear several times in a plan; the
   attributes an occurrence contributes are qualified by its alias,
   e.g. "ProfPage.Name" or "ProfPage.CourseList.ToCourse" after an
   unnest. *)

type expr =
  | Entry of { scheme : string; alias : string }
      (* a page relation accessible by URL: an entry point *)
  | External of { name : string; alias : string }
      (* an external relation of the view; not computable until
         replaced by a default navigation (rule 1) *)
  | Select of Pred.t * expr
  | Project of string list * expr
  | Join of (string * string) list * expr * expr
      (* equi-join on (left attr, right attr) pairs *)
  | Unnest of expr * string (* R ◦ L, with L a full attribute name *)
  | Follow of follow
  | Call of call
      (* parameterized-entry access R ⇒[args] P: fetch pages of a
         form/service page-scheme by binding every declared parameter *)

and follow = {
  src : expr;
  link : string; (* full name of the link attribute in [src] *)
  scheme : string; (* target page-scheme *)
  alias : string; (* alias qualifying the target's attributes *)
}

(* A call through a binding pattern. With [c_src = Some r], one
   templated GET is issued per distinct argument combination drawn
   from the rows of [r] ([Arg_attr] feeds an upstream column into the
   parameter) and the reached page joins its source row, like Follow.
   With [c_src = None] every argument is a constant and the call is a
   single-page relation, like an entry point. Calls whose URL resolves
   to no page contribute no rows. *)
and call = {
  c_src : expr option;
  c_scheme : string; (* target (parameterized) page-scheme *)
  c_alias : string; (* alias qualifying the target's attributes *)
  c_args : (string * arg) list; (* parameter name -> bound value *)
}

and arg = Arg_const of string | Arg_attr of string

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let entry ?alias scheme =
  Entry { scheme; alias = Option.value alias ~default:scheme }

let external_ ?alias name =
  External { name; alias = Option.value alias ~default:name }

let select pred e = Select (pred, e)
let project attrs e = Project (attrs, e)
let join keys e1 e2 = Join (keys, e1, e2)
let unnest e attr = Unnest (e, attr)

let follow ?alias e link ~scheme =
  Follow { src = e; link; scheme; alias = Option.value alias ~default:scheme }

let call ?alias ?src scheme ~args =
  Call
    {
      c_src = src;
      c_scheme = scheme;
      c_alias = Option.value alias ~default:scheme;
      c_args = args;
    }

(* Infix helpers mirroring the paper's notation: [e /: l] is unnest
   (R ◦ L, with [l] relative to the last alias) and [e @-> (l, p)] is
   follow link. They are defined in {!Dsl} to keep the module surface
   clean. *)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Entry _ | External _ | Call { c_src = None; _ } -> acc
  | Select (_, e1) | Project (_, e1) | Unnest (e1, _) -> fold f acc e1
  | Follow { src; _ } | Call { c_src = Some src; _ } -> fold f acc src
  | Join (_, e1, e2) -> fold f (fold f acc e1) e2

let children = function
  | Entry _ | External _ | Call { c_src = None; _ } -> []
  | Select (_, e1) | Project (_, e1) | Unnest (e1, _) | Follow { src = e1; _ }
  | Call { c_src = Some e1; _ } ->
    [ e1 ]
  | Join (_, e1, e2) -> [ e1; e2 ]

(* [e] over the operands [kids] (in [children] order): [e] itself when
   they are its own, so unchanged subtrees stay physically shared. *)
let with_children e kids =
  if List.equal ( == ) (children e) kids then e
  else
    match e, kids with
    | Select (p, _), [ x ] -> Select (p, x)
    | Project (attrs, _), [ x ] -> Project (attrs, x)
    | Join (keys, _, _), [ x; y ] -> Join (keys, x, y)
    | Unnest (_, a), [ x ] -> Unnest (x, a)
    | Follow fl, [ x ] -> Follow { fl with src = x }
    | Call c, [ x ] -> Call { c with c_src = Some x }
    | _ -> invalid_arg "Nalg.with_children"

(* Bottom-up rebuild: [f] is applied to every node after its children
   have been rebuilt; a node whose children come back unchanged is
   kept, so [f] returning its argument leaves a subtree intact. *)
let rec map f e = f (with_children e (List.map (map f) (children e)))

let size e = fold (fun n _ -> n + 1) 0 e

(* The operator and its own fields, children excluded. Predicates
   compare atom-by-atom, so two plans are equal exactly when they are
   the same tree — rewrites that only reorder atoms produce distinct
   (if equivalent) plans, as before. *)
let head_equal e1 e2 =
  match e1, e2 with
  | Entry a, Entry b -> String.equal a.scheme b.scheme && String.equal a.alias b.alias
  | External a, External b -> String.equal a.name b.name && String.equal a.alias b.alias
  | Select (p1, _), Select (p2, _) -> List.equal Pred.atom_equal p1 p2
  | Project (attrs1, _), Project (attrs2, _) -> List.equal String.equal attrs1 attrs2
  | Join (k1, _, _), Join (k2, _, _) ->
    List.equal
      (fun (l1, r1) (l2, r2) -> String.equal l1 l2 && String.equal r1 r2)
      k1 k2
  | Unnest (_, x), Unnest (_, y) -> String.equal x y
  | Follow f1, Follow f2 ->
    String.equal f1.link f2.link
    && String.equal f1.scheme f2.scheme
    && String.equal f1.alias f2.alias
  | Call c1, Call c2 ->
    String.equal c1.c_scheme c2.c_scheme
    && String.equal c1.c_alias c2.c_alias
    && Option.is_some c1.c_src = Option.is_some c2.c_src
    && List.equal
         (fun (p1, a1) (p2, a2) ->
           String.equal p1 p2
           &&
           match a1, a2 with
           | Arg_const x, Arg_const y | Arg_attr x, Arg_attr y -> String.equal x y
           | (Arg_const _ | Arg_attr _), _ -> false)
         c1.c_args c2.c_args
  | ( Entry _ | External _ | Select _ | Project _ | Join _ | Unnest _ | Follow _
    | Call _ ), _ -> false

(* Structural equality: same operators and fields, node by node. *)
let rec equal e1 e2 =
  e1 == e2 || (head_equal e1 e2 && List.equal equal (children e1) (children e2))

(* A hash of the operator and its own fields, consistent with
   [head_equal]: every string and predicate atom feeds it. *)
let head_hash e =
  let mix acc h = (acc * 31) + h in
  let str acc s = mix acc (Hashtbl.hash s) in
  let operand acc = function
    | Pred.Attr a -> str (mix acc 1) a
    | Pred.Const v -> mix (mix acc 2) (Adm.Value.hash v)
  in
  let atom acc (a : Pred.atom) =
    operand (mix (operand acc a.Pred.left) (Hashtbl.hash a.Pred.cmp)) a.Pred.right
  in
  let h =
    match e with
    | Entry { scheme; alias } -> str (str 3 scheme) alias
    | External { name; alias } -> str (str 5 name) alias
    | Select (p, _) -> List.fold_left atom 7 p
    | Project (attrs, _) -> List.fold_left str 11 attrs
    | Join (keys, _, _) -> List.fold_left (fun acc (a, b) -> str (str acc a) b) 13 keys
    | Unnest (_, a) -> str 17 a
    | Follow { link; scheme; alias; _ } -> str (str (str 19 link) scheme) alias
    | Call { c_src; c_scheme; c_alias; c_args } ->
      List.fold_left
        (fun acc (p, a) ->
          match a with
          | Arg_const c -> str (str (mix acc 1) p) c
          | Arg_attr x -> str (str (mix acc 2) p) x)
        (str (str (if Option.is_some c_src then 29 else 23) c_scheme) c_alias)
        c_args
  in
  h land max_int

(* Aliases in scope: alias -> page-scheme name. External occurrences
   are reported with their relation name. *)
let alias_env e =
  fold
    (fun acc node ->
      match node with
      | Entry { scheme; alias } -> (alias, scheme) :: acc
      | Follow { scheme; alias; _ } -> (alias, scheme) :: acc
      | Call { c_scheme; c_alias; _ } -> (c_alias, c_scheme) :: acc
      | External _ | Select _ | Project _ | Join _ | Unnest _ -> acc)
    [] e

let scheme_of_alias e alias = List.assoc_opt alias (alias_env e)

let aliases e = List.map fst (alias_env e)

let externals e =
  fold
    (fun acc node ->
      match node with
      | External { name; alias } -> (name, alias) :: acc
      | Entry _ | Select _ | Project _ | Join _ | Unnest _ | Follow _ | Call _ ->
        acc)
    [] e
  |> List.rev

let is_computable e = externals e = []

(* The alias qualifying [attr] among the bindings [env]: the longest
   alias that [attr] extends by a dot (aliases may themselves contain
   no dots, but we match by longest prefix for safety), as its length
   and the value of its first binding. *)
let qualifier env attr =
  let n = String.length attr in
  List.fold_left
    (fun best (alias, v) ->
      let k = String.length alias in
      if
        k < n
        && Char.equal attr.[k] '.'
        && String.starts_with ~prefix:alias attr
        && match best with Some (k', _) -> k > k' | None -> true
      then Some (k, v)
      else best)
    None env

(* Split an attribute name into its alias and the remaining dotted
   steps, given the aliases in scope. *)
let split_attr known_aliases attr =
  match qualifier (List.map (fun a -> (a, ())) known_aliases) attr with
  | Some (k, ()) ->
    Some
      ( String.sub attr 0 k,
        String.split_on_char '.' (String.sub attr (k + 1) (String.length attr - k - 1)) )
  | None -> None

(* The dotted constraint path (scheme + steps) an attribute denotes,
   resolving its alias against an alias environment. *)
let constraint_path_in env attr =
  match qualifier env attr with
  | Some (k, scheme) ->
    let steps = String.split_on_char '.' (String.sub attr (k + 1) (String.length attr - k - 1)) in
    Some (Adm.Constraints.path scheme steps, String.sub attr 0 k)
  | None -> None

let constraint_path_of_attr e attr = constraint_path_in (alias_env e) attr

(* ------------------------------------------------------------------ *)
(* Output attributes                                                   *)
(* ------------------------------------------------------------------ *)

(* Statically computed output attribute names of a node, from its
   children's: [kid i] is child [i]'s attributes and [kid_env i] its
   alias environment, each asked for only when the node needs it.
   Nested (list) attributes are included with their type so unnest can
   be checked. External relations contribute their attributes only
   after binding, so here they contribute a placeholder. *)
let rec node_output_attrs (schema : Adm.Schema.t) e ~kid ~kid_env : string list =
  match e with
  | Entry { scheme; alias } -> scheme_attrs schema ~scheme ~alias
  | External { name; alias } -> [ alias ^ ".*" ^ name ]
  | Select _ -> kid 0
  | Project (attrs, _) -> attrs
  | Join _ -> kid 0 @ kid 1
  | Unnest (_, attr) ->
    let inner =
      match list_fields_in schema (kid_env 0) attr with
      | Some fields -> List.map (fun (a, _) -> attr ^ "." ^ a) fields
      | None -> []
    in
    List.filter (fun a -> not (String.equal a attr)) (kid 0) @ inner
  | Follow { scheme; alias; _ } -> kid 0 @ scheme_attrs schema ~scheme ~alias
  | Call { c_src; c_scheme; c_alias; _ } ->
    (match c_src with None -> [] | Some _ -> kid 0)
    @ scheme_attrs schema ~scheme:c_scheme ~alias:c_alias

and scheme_attrs schema ~scheme ~alias =
  let ps = Adm.Schema.find_scheme_exn schema scheme in
  (alias ^ "." ^ Adm.Page_scheme.url_attr)
  :: List.map
       (fun (d : Adm.Page_scheme.attr_decl) -> alias ^ "." ^ d.Adm.Page_scheme.name)
       (Adm.Page_scheme.attrs ps)

(* The declared tuple type of list attribute [attr], resolved through
   the alias environment [env]. *)
and list_fields_in schema env attr =
  match constraint_path_in env attr with
  | None -> None
  | Some (path, _alias) -> (
    match Adm.Schema.find_scheme schema path.Adm.Constraints.scheme with
    | None -> None
    | Some ps -> (
      match Adm.Page_scheme.resolve_path ps path.Adm.Constraints.steps with
      | Some (Adm.Webtype.List fields) -> Some fields
      | Some _ | None -> None))

let rec output_attrs (schema : Adm.Schema.t) e : string list =
  let kids = children e in
  node_output_attrs schema e
    ~kid:(fun i -> output_attrs schema (List.nth kids i))
    ~kid_env:(fun i -> alias_env (List.nth kids i))

let list_fields schema e attr = list_fields_in schema (alias_env e) attr

type link = string * Adm.Constraints.path * string * string

(* The link attributes among output attributes [attrs], resolved
   through the alias environment [env]: (attribute, constraint path,
   alias, target scheme). *)
let links_in (schema : Adm.Schema.t) env attrs : link list =
  List.filter_map
    (fun attr ->
      match constraint_path_in env attr with
      | None -> None
      | Some (path, alias) -> (
        match Adm.Schema.link_target schema path with
        | Some target -> Some (attr, path, alias, target)
        | None -> None))
    attrs

let available_links schema e =
  let out = output_attrs schema e in
  links_in schema (alias_env e) out

(* ------------------------------------------------------------------ *)
(* Attribute renaming                                                  *)
(* ------------------------------------------------------------------ *)

(* Apply an attribute-name rewriting function everywhere (predicates,
   projections, join keys, unnest and link attributes). Aliases are
   not touched; use [rename_alias] for that. *)
let rename_attrs f e =
  (* a node none of whose attributes [f] changes is kept as it is *)
  let same = List.for_all (fun a -> f a == a) in
  map
    (fun node ->
      match node with
      | Select (p, _) when same (Pred.attrs p) -> node
      | Project (attrs, _) when same attrs -> node
      | Join (keys, _, _) when same (List.concat_map (fun (a, b) -> [ a; b ]) keys) -> node
      | Unnest (_, a) when same [ a ] -> node
      | Follow fl when same [ fl.link ] -> node
      | Select (p, e1) -> Select (Pred.map_attrs f p, e1)
      | Project (attrs, e1) -> Project (List.map f attrs, e1)
      | Join (keys, e1, e2) -> Join (List.map (fun (a, b) -> (f a, f b)) keys, e1, e2)
      | Unnest (e1, a) -> Unnest (e1, f a)
      | Follow fl -> Follow { fl with link = f fl.link }
      | Call c ->
        Call
          {
            c with
            c_args =
              List.map
                (fun (p, a) ->
                  ( p,
                    match a with
                    | Arg_attr x -> Arg_attr (f x)
                    | Arg_const _ as k -> k ))
                c.c_args;
          }
      | (Entry _ | External _) as leaf -> leaf)
    e

(* Rename one alias (and every attribute qualified by it). *)
let rename_alias ~from ~into e =
  let prefix = from ^ "." in
  let ren a =
    if String.equal a from then into
    else if String.length a > String.length prefix
            && String.sub a 0 (String.length prefix) = prefix then
      into ^ "." ^ String.sub a (String.length prefix) (String.length a - String.length prefix)
    else a
  in
  let e = rename_attrs ren e in
  map
    (function
      | Entry { scheme; alias } when String.equal alias from -> Entry { scheme; alias = into }
      | Follow fl when String.equal fl.alias from -> Follow { fl with alias = into }
      | Call c when String.equal c.c_alias from -> Call { c with c_alias = into }
      | other -> other)
    e

(* Rename aliases so that none clashes with [taken]; returns the new
   expression. Fresh aliases are "<alias>@<n>". *)
let uniquify_aliases ~taken e =
  let taken = ref taken in
  let fresh alias =
    if not (List.mem alias !taken) then begin
      taken := alias :: !taken;
      alias
    end
    else begin
      let rec go n =
        let candidate = Fmt.str "%s@%d" alias n in
        if List.mem candidate !taken then go (n + 1) else candidate
      in
      let candidate = go 2 in
      taken := candidate :: !taken;
      candidate
    end
  in
  List.fold_left
    (fun e alias ->
      let alias' = fresh alias in
      if String.equal alias alias' then e else rename_alias ~from:alias ~into:alias' e)
    e (aliases e)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_arg ppf = function
  | Arg_const c -> Fmt.pf ppf "'%s'" c
  | Arg_attr a -> Fmt.string ppf a

let pp_args ppf args =
  Fmt.(list ~sep:comma)
    (fun ppf (p, a) -> Fmt.pf ppf "%s:=%a" p pp_arg a)
    ppf args

let rec pp ppf = function
  | Entry { scheme; alias } ->
    if String.equal scheme alias then Fmt.string ppf scheme
    else Fmt.pf ppf "%s as %s" scheme alias
  | External { name; alias } ->
    if String.equal name alias then Fmt.pf ppf "ext:%s" name
    else Fmt.pf ppf "ext:%s as %s" name alias
  | Select (p, e) -> Fmt.pf ppf "σ[%a](%a)" Pred.pp p pp e
  | Project (attrs, e) ->
    Fmt.pf ppf "π[%a](%a)" Fmt.(list ~sep:comma string) attrs pp e
  | Join (keys, e1, e2) ->
    let pp_key ppf (a, b) = Fmt.pf ppf "%s=%s" a b in
    Fmt.pf ppf "(%a ⋈[%a] %a)" pp e1 Fmt.(list ~sep:comma pp_key) keys pp e2
  | Unnest (e, a) -> Fmt.pf ppf "%a ◦ %s" pp e a
  | Follow { src; link; scheme; alias } ->
    if String.equal scheme alias then Fmt.pf ppf "%a →[%s] %s" pp src link scheme
    else Fmt.pf ppf "%a →[%s] %s as %s" pp src link scheme alias
  | Call { c_src; c_scheme; c_alias; c_args } ->
    let suffix = if String.equal c_scheme c_alias then "" else " as " ^ c_alias in
    (match c_src with
    | None -> Fmt.pf ppf "⇒[%a] %s%s" pp_args c_args c_scheme suffix
    | Some src -> Fmt.pf ppf "%a ⇒[%a] %s%s" pp src pp_args c_args c_scheme suffix)

let to_string e = Fmt.str "%a" pp e

(* Canonical form for deduplication during plan enumeration. *)
let canonical e = to_string e

(* Indented query-plan tree, in the style of the paper's Figures 2–4
   (unnest kept infix, link operators drawn as upward edges). *)
let pp_plan ppf e =
  let rec go indent ppf e =
    let pad = String.make indent ' ' in
    match e with
    | Entry { scheme; alias } ->
      Fmt.pf ppf "%s%s%s@," pad scheme
        (if String.equal scheme alias then "" else " as " ^ alias)
    | External { name; alias } ->
      Fmt.pf ppf "%sext:%s%s@," pad name
        (if String.equal name alias then "" else " as " ^ alias)
    | Select (p, e1) ->
      Fmt.pf ppf "%sσ %a@,%a" pad Pred.pp p (go (indent + 2)) e1
    | Project (attrs, e1) ->
      Fmt.pf ppf "%sπ %a@,%a" pad Fmt.(list ~sep:(any ", ") string) attrs (go (indent + 2)) e1
    | Join (keys, e1, e2) ->
      let pp_key ppf (a, b) = Fmt.pf ppf "%s=%s" a b in
      Fmt.pf ppf "%s⋈ %a@,%a%a" pad
        Fmt.(list ~sep:(any ", ") pp_key)
        keys (go (indent + 2)) e1 (go (indent + 2)) e2
    | Unnest (e1, a) -> Fmt.pf ppf "%s◦ %s@,%a" pad a (go (indent + 2)) e1
    | Follow { src; link; scheme; alias } ->
      Fmt.pf ppf "%s→ %s [via %s]%s@,%a" pad scheme link
        (if String.equal scheme alias then "" else " as " ^ alias)
        (go (indent + 2)) src
    | Call { c_src; c_scheme; c_alias; c_args } ->
      let suffix =
        if String.equal c_scheme c_alias then "" else " as " ^ c_alias
      in
      Fmt.pf ppf "%s⇒ %s [%a]%s@,%a" pad c_scheme pp_args c_args suffix
        (fun ppf -> function
          | None -> ()
          | Some src -> go (indent + 2) ppf src)
        c_src
  in
  Fmt.pf ppf "@[<v>%a@]" (go 0) e
