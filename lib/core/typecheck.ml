(* The static analyzer: typed NALG inference, schema and registry
   lints, query semantic checks, and the rewrite-soundness judgment
   used by the planner. All findings are structured {!Diagnostic.t}
   values; codes are grouped per pass (E01xx typing, E02xx schema,
   E03xx query, E04xx soundness, E05xx registry). *)

type env = (string * Adm.Webtype.t) list

let pp_env ppf (env : env) =
  Fmt.pf ppf "[%a]"
    Fmt.(
      list ~sep:(any "; ") (fun ppf (a, ty) ->
          Fmt.pf ppf "%s : %a" a Adm.Webtype.pp ty))
    env

(* The typed environment a page-scheme occurrence contributes: the
   implicit URL attribute first — typed as a link to its own scheme,
   so follow-joins against it are well-typed — then the declared
   attributes, all qualified by the alias. Unknown schemes contribute
   nothing (the occurrence itself is reported separately). *)
let scheme_env (schema : Adm.Schema.t) ~scheme ~alias : env =
  match Adm.Schema.find_scheme schema scheme with
  | None -> []
  | Some ps ->
    (alias ^ "." ^ Adm.Page_scheme.url_attr, Adm.Webtype.Link scheme)
    :: List.map
         (fun (d : Adm.Page_scheme.attr_decl) ->
           (alias ^ "." ^ d.Adm.Page_scheme.name, d.Adm.Page_scheme.ty))
         (Adm.Page_scheme.attrs ps)

(* ------------------------------------------------------------------ *)
(* Typed NALG inference (E01xx)                                        *)
(* ------------------------------------------------------------------ *)

(* An environment built from the children's without copying them:
   bindings in order, a name resolving to its first binding
   ([List.assoc]). [Without (b, a)] is [b] less every binding of [a]. *)
type bindings = Flat of env | Cat of bindings * bindings | Without of bindings * string

let rec find a = function
  | Flat env -> List.assoc_opt a env
  | Cat (b1, b2) -> ( match find a b1 with Some _ as ty -> ty | None -> find a b2)
  | Without (b, x) -> if String.equal a x then None else find a b

let mem a b = Option.is_some (find a b)

let to_env b =
  let rec go acc = function
    | Flat env -> List.rev_append env acc
    | Cat (b1, b2) -> go (go acc b1) b2
    | Without (b, x) -> List.filter (fun (a, _) -> not (String.equal a x)) (go [] b) @ acc
  in
  List.rev (go [] b)

(* A node's type: its bindings, and the heads of their names — each
   name's prefix up to its first dot, one entry per distinct head. Two
   environments with disjoint heads share no name, so most ambiguity
   checks end there. Both are persistent: a node shares its children's
   instead of copying them. *)
type typed = { env : bindings; heads : string list }

let head_len a = match String.index_opt a '.' with Some i -> i | None -> String.length a

let add_heads heads (env : env) =
  List.fold_left
    (fun heads (a, _) ->
      let k = head_len a in
      if
        List.exists
          (fun h -> String.length h = k && String.starts_with ~prefix:h a)
          heads
      then heads
      else String.sub a 0 k :: heads)
    heads env

let typed_of env = { env = Flat env; heads = add_heads [] env }

let occurrence schema ~scheme ~alias = typed_of (scheme_env schema ~scheme ~alias)

let typed_env t = to_env t.env

(* The step each child of a node is reached by, in [Nalg.children]
   order: the components of a diagnostic's path. *)
let steps (e : Nalg.expr) =
  match e with
  | Nalg.Entry _ | Nalg.External _ | Nalg.Call { c_src = None; _ } -> []
  | Nalg.Select _ -> [ "select" ]
  | Nalg.Project _ -> [ "project" ]
  | Nalg.Join _ -> [ "join.left"; "join.right" ]
  | Nalg.Unnest _ -> [ "unnest" ]
  | Nalg.Follow _ -> [ "follow" ]
  | Nalg.Call { c_src = Some _; _ } -> [ "call" ]

(* The type of one node from its children's ([kids], in
   [Nalg.children] order), with the node's own findings in report
   order, each with the empty path. The environment's names, in order,
   are the node's output attributes, each with its web type; names
   resolve through the children's bindings. *)
let type_node ?(views = fun (_ : string) -> None) ?occurrence:occ
    (schema : Adm.Schema.t)
    (e : Nalg.expr) (kids : typed list) : typed * Diagnostic.t list =
  let diags = ref [] in
  let report severity code fmt =
    Fmt.kstr (fun m -> diags := Diagnostic.v severity code m :: !diags) fmt
  in
  let err code fmt = report Diagnostic.Error code fmt in
  let warn code fmt = report Diagnostic.Warning code fmt in
  (* an operand's type, reporting an unavailable attribute *)
  let operand_ty where t = function
    | Pred.Const v -> Adm.Webtype.of_value v
    | Pred.Attr a ->
      let ty = find a t.env in
      if Option.is_none ty then
        err "E0103" "%s references unavailable attribute %s" where a;
      ty
  in
  let check_atom where t (a : Pred.atom) =
    let t1 = operand_ty where t a.Pred.left in
    let t2 = operand_ty where t a.Pred.right in
    match t1, t2 with
    | Some t1, Some t2 ->
      if Adm.Webtype.is_multi t1 || Adm.Webtype.is_multi t2 then
        err "E0106" "%s compares a multi-valued attribute in %a" where Pred.pp_atom a
      else if not (Adm.Webtype.compatible t1 t2) then
        err "E0106" "type mismatch in %s %a: %a vs %a" where Pred.pp_atom a
          Adm.Webtype.pp t1 Adm.Webtype.pp t2
    | (Some _ | None), _ -> ()
  in
  (* [tgt]'s names already bound by the source are ambiguous (none can
     be when their heads are disjoint); then the source's environment
     takes [tgt] in *)
  let append what src tgt =
    let shared = List.filter (fun h -> List.mem h src.heads) tgt.heads in
    if shared <> [] then
      List.iter
        (fun (a, _) ->
          if mem a src.env then err "E0105" "%s produces ambiguous attribute %s" what a)
        (to_env tgt.env);
    {
      env = Cat (src.env, tgt.env);
      heads =
        List.fold_left
          (fun hs h -> if List.mem h shared then hs else h :: hs)
          src.heads tgt.heads;
    }
  in
  let occurrence =
    match occ with Some f -> f | None -> occurrence schema
  in
  let kid = function k :: _ -> k | [] -> invalid_arg "Typecheck.type_node" in
  let typed =
    match e with
    | Nalg.Entry { scheme; alias } ->
      (match Adm.Schema.find_scheme schema scheme with
      | None -> err "E0101" "unknown page-scheme %s" scheme
      | Some ps ->
        if Adm.Page_scheme.is_parameterized ps then
          err "E0111"
            "page-scheme %s is a parameterized entry (%s): every parameter \
             must be bound by a call"
            scheme
            (Adm.Page_scheme.adornment ps)
        else if not (Adm.Page_scheme.is_entry_point ps) then
          err "E0102" "page-scheme %s is not an entry point" scheme);
      occurrence ~scheme ~alias
    | Nalg.External { name; alias } ->
      let env =
        match views name with
        | Some (attrs : (string * Adm.Webtype.t) list) ->
          (* A registered materialized view: the occurrence is an access
             path (answered by [View_scan]), typed like a base scheme. *)
          List.map (fun (a, ty) -> (alias ^ "." ^ a, ty)) attrs
        | None ->
          err "E0107" "external relation %s remains (not computable)" name;
          (* an arity-1 placeholder: the relation's attributes are
             unknown until rule 1 replaces it *)
          [ (alias ^ ".*" ^ name, Adm.Webtype.Text) ]
      in
      typed_of env
    | Nalg.Select (p, _) ->
      let r1 = kid kids in
      List.iter (check_atom "selection" r1) p;
      r1
    | Nalg.Project (attrs, _) ->
      let env1 = (kid kids).env in
      let rec dups seen = function
        | [] -> ()
        | a :: rest ->
          (* Selecting the same column twice is legal (the result is
             positional), merely suspicious — unlike a join clash. *)
          if List.exists (String.equal a) seen then
            warn "W0110" "projection duplicates attribute %s" a
          else if not (mem a env1) then
            err "E0103" "projection references unavailable attribute %s" a;
          dups (a :: seen) rest
      in
      dups [] attrs;
      let env =
        List.map
          (fun a -> (a, Option.value (find a env1) ~default:Adm.Webtype.Text))
          attrs
      in
      typed_of env
    | Nalg.Join (keys, _, _) ->
      let r1, r2 =
        match kids with [ r1; r2 ] -> (r1, r2) | _ -> invalid_arg "Typecheck.type_node"
      in
      List.iter
        (fun (l, r) ->
          let t1 = find l r1.env and t2 = find r r2.env in
          if Option.is_none t1 then
            err "E0103" "join (left) references unavailable attribute %s" l;
          if Option.is_none t2 then
            err "E0103" "join (right) references unavailable attribute %s" r;
          match t1, t2 with
          | Some t1, Some t2 ->
            if Adm.Webtype.is_multi t1 || Adm.Webtype.is_multi t2 then
              err "E0106" "join key %s=%s binds a multi-valued attribute" l r
            else if not (Adm.Webtype.compatible t1 t2) then
              err "E0106" "join key type mismatch %s=%s: %a vs %a" l r
                Adm.Webtype.pp t1 Adm.Webtype.pp t2
          | (Some _ | None), _ -> ())
        keys;
      append "join" r1 r2
    | Nalg.Unnest (_, attr) ->
      let r1 = kid kids in
      let fields =
        match find attr r1.env with
        | Some (Adm.Webtype.List fields) -> fields
        | Some ty ->
          err "E0104" "unnest of %s: not a list attribute (%a)" attr Adm.Webtype.pp ty;
          []
        | None ->
          err "E0103" "unnest references unavailable attribute %s" attr;
          []
      in
      let inner = List.map (fun (f, ty) -> (attr ^ "." ^ f, ty)) fields in
      {
        env = Cat (Without (r1.env, attr), Flat inner);
        heads = add_heads r1.heads inner;
      }
    | Nalg.Follow { link; scheme; alias; _ } ->
      let r_src = kid kids in
      (match find link r_src.env with
      | Some (Adm.Webtype.Link target) ->
        if not (String.equal target scheme) then
          err "E0109" "follow of %s reaches %s, plan says %s" link target scheme
      | Some ty ->
        err "E0108" "follow of %s: not a link attribute (%a)" link Adm.Webtype.pp ty
      | None -> err "E0103" "follow references unavailable attribute %s" link);
      (match Adm.Schema.find_scheme schema scheme with
      | None -> err "E0101" "unknown page-scheme %s" scheme
      | Some _ -> ());
      append "follow" r_src (occurrence ~scheme ~alias)
    | Nalg.Call { c_scheme; c_alias; c_args; _ } ->
      let r_src = match kids with [] -> typed_of [] | r :: _ -> r in
      (match Adm.Schema.find_scheme schema c_scheme with
      | None -> err "E0101" "unknown page-scheme %s" c_scheme
      | Some ps ->
        if not (Adm.Page_scheme.is_parameterized ps) then
          err "E0111" "call targets %s, which declares no parameters" c_scheme
        else begin
          (* binding-pattern discipline: every declared parameter bound
             exactly once, every argument a declared parameter, every
             attribute argument available (and scalar) in the source *)
          List.iter
            (fun (p : Adm.Page_scheme.param) ->
              match
                List.filter
                  (fun (n, _) -> String.equal n p.Adm.Page_scheme.p_name)
                  c_args
              with
              | [] ->
                err "E0111" "call to %s leaves required parameter %s unbound"
                  c_scheme p.Adm.Page_scheme.p_name
              | [ _ ] -> ()
              | _ ->
                err "E0111" "call to %s binds parameter %s more than once"
                  c_scheme p.Adm.Page_scheme.p_name)
            (Adm.Page_scheme.params ps);
          List.iter
            (fun (n, arg) ->
              match Adm.Page_scheme.find_param ps n with
              | None ->
                err "E0111" "call to %s binds unknown parameter %s" c_scheme n
              | Some p -> (
                match arg with
                | Nalg.Arg_const _ -> ()
                | Nalg.Arg_attr a -> (
                  match find a r_src.env with
                  | None ->
                    err "E0111"
                      "call argument %s := %s references an attribute the \
                       enclosing plan does not bind"
                      n a
                  | Some ty ->
                    if Adm.Webtype.is_multi ty then
                      err "E0106"
                        "call argument %s := %s feeds a multi-valued attribute"
                        n a
                    else if not (Adm.Webtype.compatible ty p.Adm.Page_scheme.p_ty)
                    then
                      err "E0106"
                        "call argument %s type mismatch: parameter is %a, %s \
                         is %a"
                        n Adm.Webtype.pp p.Adm.Page_scheme.p_ty a Adm.Webtype.pp
                        ty)))
            c_args
        end);
      append "call" r_src (occurrence ~scheme:c_scheme ~alias:c_alias)
  in
  (typed, List.rev !diags)

(* [d] seen from [step]'s parent. *)
let under step (d : Diagnostic.t) = { d with Diagnostic.path = step :: d.Diagnostic.path }

(* Bottom-up inference over every subexpression: each node typed from
   its children's, its children's findings (paths extended by the
   step reaching them) before its own. *)
let infer ?views (schema : Adm.Schema.t) root =
  let rec go e =
    let kids = List.map2 (fun step kid -> (step, go kid)) (steps e) (Nalg.children e) in
    let typed, own = type_node ?views schema e (List.map (fun (_, (t, _)) -> t) kids) in
    (typed, List.concat_map (fun (step, (_, ds)) -> List.map (under step) ds) kids @ own)
  in
  let typed, diags = go root in
  (to_env typed.env, diags)

let check schema e = snd (infer schema e)

(* ------------------------------------------------------------------ *)
(* Rewrite soundness (E04xx)                                           *)
(* ------------------------------------------------------------------ *)

(* Two environments agree up to aliasing: same arity, positionally
   compatible types. Rewrites rename aliases and swap projection names
   but must preserve the shape of the answer. *)
let env_compatible (env1 : env) (env2 : env) =
  List.length env1 = List.length env2
  && List.for_all2
       (fun (_, t1) (_, t2) -> Adm.Webtype.compatible t1 t2)
       env1 env2

(* The same names with compatible types, in any order: a reordering
   of joins permutes the columns of a subexpression. *)
let same_bindings (env1 : env) (env2 : env) =
  let by_name = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  List.length env1 = List.length env2
  && List.for_all2
       (fun (a, t1) (b, t2) -> String.equal a b && Adm.Webtype.compatible t1 t2)
       (by_name env1) (by_name env2)

(* Judge one rewrite step: the child must typecheck, and its output
   environment must stay compatible with the parent's. A parent that
   is itself ill-typed yields no verdict (garbage in, garbage out).
   [judge] works over pre-computed inference results so the planner
   can memoize [infer] across the thousands of steps of a closure. *)
let verdict compatible ~parent:(parent_env, parent_diags) ~child:(child_env, child_diags) :
    Diagnostic.t list =
  if Diagnostic.has_errors parent_diags then []
  else
    match Diagnostic.errors child_diags with
    | _ :: _ as child_errors ->
      List.map
        (fun (d : Diagnostic.t) ->
          Diagnostic.v ~path:d.Diagnostic.path Diagnostic.Error "E0402"
            (Fmt.str "rewrite produced ill-typed plan: %s" d.Diagnostic.message))
        child_errors
    | [] ->
      if compatible parent_env child_env then []
      else
        [
          Diagnostic.error ~code:"E0403"
            "rewrite changed the output type: parent %a vs child %a" pp_env
            parent_env pp_env child_env;
        ]

let judge = verdict env_compatible
let judge_reordering = verdict same_bindings

let soundness (schema : Adm.Schema.t) ~(parent : Nalg.expr)
    ~(child : Nalg.expr) : Diagnostic.t list =
  judge ~parent:(infer schema parent) ~child:(infer schema child)

(* A lowered physical plan is judged like any other rewrite: its
   logical reading must typecheck and keep the output shape of the
   expression it was lowered from. *)
let check_plan (schema : Adm.Schema.t) ~(parent : Nalg.expr)
    (plan : Physplan.plan) : Diagnostic.t list =
  soundness schema ~parent ~child:(Physplan.to_nalg plan)

(* ------------------------------------------------------------------ *)
(* Schema lint (E02xx / W02xx)                                         *)
(* ------------------------------------------------------------------ *)

(* Page-schemes reachable from some entry point by following declared
   link attributes. *)
let reachable_schemes (schema : Adm.Schema.t) =
  let visited = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      match Adm.Schema.find_scheme schema name with
      | None -> ()
      | Some ps ->
        List.iter (fun (_, target) -> visit target) (Adm.Page_scheme.link_paths ps)
    end
  in
  List.iter
    (fun ps -> visit (Adm.Page_scheme.name ps))
    (Adm.Schema.entry_points schema);
  (* parameterized entries are reachable too — through a call binding
     their parameters — and so is everything they link to *)
  List.iter
    (fun ps ->
      if Adm.Page_scheme.is_parameterized ps then
        visit (Adm.Page_scheme.name ps))
    (Adm.Schema.schemes schema);
  visited

let lint_schema (schema : Adm.Schema.t) : Diagnostic.t list =
  let diags = ref [] in
  let report severity code fmt =
    Fmt.kstr (fun m -> diags := Diagnostic.v severity code m :: !diags) fmt
  in
  let err code fmt = report Diagnostic.Error code fmt in
  let warn code fmt = report Diagnostic.Warning code fmt in
  (* E0212: duplicate page-scheme names *)
  let rec dup_schemes seen = function
    | [] -> ()
    | n :: rest ->
      if List.mem n seen then err "E0212" "duplicate page-scheme name %s" n;
      dup_schemes (n :: seen) rest
  in
  dup_schemes [] (Adm.Schema.scheme_names schema);
  (* E0213: duplicate attribute names, including inside nested lists *)
  let rec dup_fields ctx fields =
    let rec dup seen = function
      | [] -> ()
      | (n, ty) :: rest ->
        if List.mem n seen then err "E0213" "duplicate attribute %s in %s" n ctx;
        (match ty with
        | Adm.Webtype.List inner -> dup_fields (ctx ^ "." ^ n) inner
        | Adm.Webtype.Text | Adm.Webtype.Int | Adm.Webtype.Image
        | Adm.Webtype.Link _ ->
          ());
        dup (n :: seen) rest
    in
    dup [] fields
  in
  List.iter
    (fun ps ->
      dup_fields
        (Adm.Page_scheme.name ps)
        (List.map
           (fun (d : Adm.Page_scheme.attr_decl) ->
             (d.Adm.Page_scheme.name, d.Adm.Page_scheme.ty))
           (Adm.Page_scheme.attrs ps)))
    (Adm.Schema.schemes schema);
  (* E0211: no access path at all — neither a crawlable entry point
     nor a parameterized (form/service) entry *)
  if
    Adm.Schema.entry_points schema = []
    && not (List.exists Adm.Page_scheme.is_parameterized (Adm.Schema.schemes schema))
  then
    err "E0211" "web scheme %s declares no entry point" (Adm.Schema.name schema);
  (* Constraint path resolution (E0201 / E0202) *)
  let resolve (p : Adm.Constraints.path) =
    match Adm.Schema.find_scheme schema p.scheme with
    | None ->
      err "E0201" "unknown page-scheme %s in constraint path %s" p.scheme
        (Adm.Constraints.path_to_string p);
      None
    | Some ps -> (
      match Adm.Page_scheme.resolve_path ps p.steps with
      | Some ty -> Some ty
      | None ->
        err "E0202" "constraint path %s does not resolve"
          (Adm.Constraints.path_to_string p);
        None)
  in
  List.iter
    (fun (c : Adm.Constraints.link_constraint) ->
      let src_ty = resolve c.source_attr in
      (match resolve c.link with
      | Some (Adm.Webtype.Link target) ->
        if not (String.equal target c.target_scheme) then
          err "E0204" "link %s targets %s, constraint names %s"
            (Adm.Constraints.path_to_string c.link)
            target c.target_scheme
      | Some _ ->
        err "E0203" "link constraint on non-link attribute %s"
          (Adm.Constraints.path_to_string c.link)
      | None -> ());
      (match src_ty with
      | Some ty when Adm.Webtype.is_mono ty -> ()
      | Some _ ->
        err "E0205" "source attribute %s is multi-valued"
          (Adm.Constraints.path_to_string c.source_attr)
      | None -> ());
      match Adm.Schema.find_scheme schema c.target_scheme with
      | None -> err "E0201" "unknown target page-scheme %s" c.target_scheme
      | Some ps -> (
        let tgt_ty =
          if String.equal c.target_attr Adm.Page_scheme.url_attr then
            Some (Adm.Webtype.Link c.target_scheme)
          else Adm.Page_scheme.resolve_path ps [ c.target_attr ]
        in
        match tgt_ty with
        | None ->
          err "E0206" "unknown target attribute %s.%s" c.target_scheme
            c.target_attr
        | Some ty when not (Adm.Webtype.is_mono ty) ->
          err "E0206" "target attribute %s.%s is multi-valued" c.target_scheme
            c.target_attr
        | Some ty -> (
          match src_ty with
          | Some sty
            when Adm.Webtype.is_mono sty && not (Adm.Webtype.compatible sty ty)
            ->
            err "E0214"
              "link constraint binds incompatible types: %s (%a) vs %s.%s (%a)"
              (Adm.Constraints.path_to_string c.source_attr)
              Adm.Webtype.pp sty c.target_scheme c.target_attr Adm.Webtype.pp ty
          | Some _ | None -> ())))
    (Adm.Schema.link_constraints schema);
  List.iter
    (fun (c : Adm.Constraints.inclusion) ->
      match resolve c.sub, resolve c.sup with
      | Some (Adm.Webtype.Link t1), Some (Adm.Webtype.Link t2) ->
        if not (String.equal t1 t2) then
          err "E0208" "inclusion %s ⊆ %s relates links with different targets (%s vs %s)"
            (Adm.Constraints.path_to_string c.sub)
            (Adm.Constraints.path_to_string c.sup)
            t1 t2
      | Some _, Some _ ->
        err "E0207" "inclusion %s ⊆ %s must relate link attributes"
          (Adm.Constraints.path_to_string c.sub)
          (Adm.Constraints.path_to_string c.sup)
      | (Some _ | None), _ -> ())
    (Adm.Schema.inclusions schema);
  (* E0209: links towards undeclared page-schemes *)
  List.iter
    (fun (p, target) ->
      if Adm.Schema.find_scheme schema target = None then
        err "E0209" "link %s targets undeclared page-scheme %s"
          (Adm.Constraints.path_to_string p)
          target)
    (Adm.Schema.all_link_paths schema);
  (* W0210: page-schemes no navigation can reach *)
  let visited = reachable_schemes schema in
  List.iter
    (fun ps ->
      let n = Adm.Page_scheme.name ps in
      if not (Hashtbl.mem visited n) then
        warn "W0210" "page-scheme %s is unreachable from any entry point" n)
    (Adm.Schema.schemes schema);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* View-registry lint (E05xx)                                          *)
(* ------------------------------------------------------------------ *)

let nav_env schema (nav : View.navigation) = fst (infer schema nav.View.nav_expr)

(* Typed environment of an external relation as users see it: each
   declared attribute with the type its (first) default navigation
   produces for it; Text when nothing better is known. *)
let relation_env schema (rel : View.relation) : env =
  match rel.View.navigations with
  | [] -> List.map (fun a -> (a, Adm.Webtype.Text)) rel.View.rel_attrs
  | nav :: _ ->
    let env = nav_env schema nav in
    List.map
      (fun a ->
        let ty =
          match List.assoc_opt a nav.View.bindings with
          | None -> Adm.Webtype.Text
          | Some plan_attr ->
            Option.value (List.assoc_opt plan_attr env) ~default:Adm.Webtype.Text
        in
        (a, ty))
      rel.View.rel_attrs

let lint_registry schema (registry : View.registry) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let err code fmt =
    Fmt.kstr (fun m -> add (Diagnostic.v Diagnostic.Error code m)) fmt
  in
  List.iter
    (fun (rel : View.relation) ->
      List.iteri
        (fun i (nav : View.navigation) ->
          let env, nav_diags = infer schema nav.View.nav_expr in
          List.iter
            (fun (d : Diagnostic.t) ->
              if Diagnostic.is_error d then
                add
                  (Diagnostic.v ~path:d.Diagnostic.path Diagnostic.Error "E0501"
                     (Fmt.str "relation %s, navigation %d: %s" rel.View.rel_name
                        (i + 1) d.Diagnostic.message)))
            nav_diags;
          List.iter
            (fun (ext, plan_attr) ->
              if not (List.mem_assoc plan_attr env) then
                err "E0502"
                  "relation %s, navigation %d: binding %s → %s references an \
                   attribute the navigation does not produce"
                  rel.View.rel_name (i + 1) ext plan_attr)
            nav.View.bindings)
        rel.View.navigations;
      (* E0503: one external attribute, incompatible types across
         alternative navigations *)
      List.iter
        (fun a ->
          let tys =
            List.filter_map
              (fun (nav : View.navigation) ->
                match List.assoc_opt a nav.View.bindings with
                | None -> None
                | Some plan_attr -> List.assoc_opt plan_attr (nav_env schema nav))
              rel.View.navigations
          in
          match tys with
          | t0 :: rest ->
            if List.exists (fun t -> not (Adm.Webtype.compatible t0 t)) rest
            then
              err "E0503"
                "relation %s: attribute %s has conflicting types across \
                 navigations"
                rel.View.rel_name a
          | [] -> ())
        rel.View.rel_attrs)
    registry;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Query lint (E03xx / W03xx)                                          *)
(* ------------------------------------------------------------------ *)

let lint_query schema (registry : View.registry) (q : Conjunctive.t) :
    Diagnostic.t list =
  let diags = ref [] in
  let report severity code fmt =
    Fmt.kstr (fun m -> diags := Diagnostic.v severity code m :: !diags) fmt
  in
  let err code fmt = report Diagnostic.Error code fmt in
  let warn code fmt = report Diagnostic.Warning code fmt in
  (* E0302: duplicate FROM aliases *)
  let rec dup_aliases seen = function
    | [] -> ()
    | (s : Conjunctive.source) :: rest ->
      if List.mem s.Conjunctive.alias seen then
        err "E0302" "duplicate FROM alias %s" s.Conjunctive.alias;
      dup_aliases (s.Conjunctive.alias :: seen) rest
  in
  dup_aliases [] q.Conjunctive.from;
  (* E0301: unknown external relations *)
  List.iter
    (fun (s : Conjunctive.source) ->
      if View.find registry s.Conjunctive.rel = None then
        err "E0301" "unknown external relation %s" s.Conjunctive.rel)
    q.Conjunctive.from;
  let env_of_alias =
    List.map
      (fun (s : Conjunctive.source) ->
        ( s.Conjunctive.alias,
          Option.map (relation_env schema) (View.find registry s.Conjunctive.rel)
        ))
      q.Conjunctive.from
  in
  (* E0303 / E0304, returning the attribute's type when resolvable *)
  let attr_ty attr =
    let alias = Conjunctive.alias_of_attr attr in
    match List.assoc_opt alias env_of_alias with
    | None ->
      err "E0303" "attribute %s references unknown alias %s" attr alias;
      None
    | Some None -> None (* relation already reported as E0301 *)
    | Some (Some env) -> (
      let name =
        if String.length attr > String.length alias + 1 then
          Some
            (String.sub attr
               (String.length alias + 1)
               (String.length attr - String.length alias - 1))
        else None
      in
      match name with
      | None ->
        err "E0304" "attribute reference %s names no attribute" attr;
        None
      | Some a -> (
        match List.assoc_opt a env with
        | None ->
          err "E0304" "relation of alias %s has no attribute %s" alias a;
          None
        | Some ty -> Some ty))
  in
  List.iter (fun a -> ignore (attr_ty a)) q.Conjunctive.select;
  (* E0305: predicate type mismatches *)
  let op_ty = function
    | Pred.Attr a -> attr_ty a
    | Pred.Const v -> Adm.Webtype.of_value v
  in
  List.iter
    (fun (a : Pred.atom) ->
      match op_ty a.Pred.left, op_ty a.Pred.right with
      | Some t1, Some t2 when not (Adm.Webtype.compatible t1 t2) ->
        err "E0305" "type mismatch in condition %a: %a vs %a" Pred.pp_atom a
          Adm.Webtype.pp t1 Adm.Webtype.pp t2
      | (Some _ | None), _ -> ())
    q.Conjunctive.where;
  (* W0306: FROM relations not connected by any attribute condition *)
  (match q.Conjunctive.from with
  | [] | [ _ ] -> ()
  | sources ->
    let parent = Hashtbl.create 8 in
    let rec find x =
      match Hashtbl.find_opt parent x with
      | Some p when not (String.equal p x) ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
      | _ -> x
    in
    let union x y =
      let rx = find x and ry = find y in
      if not (String.equal rx ry) then Hashtbl.replace parent rx ry
    in
    List.iter
      (fun (s : Conjunctive.source) ->
        Hashtbl.replace parent s.Conjunctive.alias s.Conjunctive.alias)
      sources;
    List.iter
      (fun (a : Pred.atom) ->
        match a.Pred.left, a.Pred.right with
        | Pred.Attr l, Pred.Attr r ->
          let la = Conjunctive.alias_of_attr l
          and ra = Conjunctive.alias_of_attr r in
          if Hashtbl.mem parent la && Hashtbl.mem parent ra then union la ra
        | (Pred.Attr _ | Pred.Const _), _ -> ())
      q.Conjunctive.where;
    let roots =
      List.sort_uniq String.compare
        (List.map (fun (s : Conjunctive.source) -> find s.Conjunctive.alias) sources)
    in
    if List.length roots > 1 then
      warn "W0306"
        "FROM relations are not all connected by join conditions (Cartesian \
         product over %d groups)"
        (List.length roots));
  (* W0307: conditions that can never hold *)
  let consts = ref [] in
  List.iter
    (fun (a : Pred.atom) ->
      (match a.Pred.left, a.Pred.right with
      | Pred.Const _, Pred.Const _ ->
        if not (Pred.eval_atom a []) then
          warn "W0307" "condition %a is always false" Pred.pp_atom a
      | Pred.Attr l, Pred.Attr r
        when String.equal l r
             && (a.Pred.cmp = Pred.Neq || a.Pred.cmp = Pred.Lt
               || a.Pred.cmp = Pred.Gt) ->
        warn "W0307" "condition %a is always false" Pred.pp_atom a
      | (Pred.Attr _ | Pred.Const _), _ -> ());
      match a.Pred.left, a.Pred.cmp, a.Pred.right with
      | Pred.Attr l, Pred.Eq, Pred.Const v | Pred.Const v, Pred.Eq, Pred.Attr l
        -> (
        match List.assoc_opt l !consts with
        | Some v' when not (Adm.Value.equal v v') ->
          warn "W0307"
            "contradictory equalities on %s (= %s and = %s) are always false" l
            (Adm.Value.to_string v') (Adm.Value.to_string v)
        | Some _ -> ()
        | None -> consts := (l, v) :: !consts)
      | (Pred.Attr _ | Pred.Const _), _, _ -> ())
    q.Conjunctive.where;
  List.rev !diags

let lint_sql schema (registry : View.registry) (sql : string) :
    Diagnostic.t list =
  match Sql_parser.parse_unchecked registry sql with
  | q -> lint_query schema registry q
  | exception Sql_parser.Parse_error msg ->
    [ Diagnostic.error ~code:"E0308" "SQL parse error: %s" msg ]
