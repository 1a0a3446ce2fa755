(* External relations (Section 5): the relational view offered to
   users. Each external relation is defined by one or more default
   navigations — computable NALG expressions whose execution
   materializes its extent — plus bindings from external attribute
   names to the navigation's (qualified) attribute names.

   [expand] is Rule 1 [Default Navigation]: replace every external
   relation occurrence in a query by each of its default navigations,
   in all possible ways. *)

type navigation = {
  nav_expr : Nalg.expr;
  bindings : (string * string) list; (* external attribute -> plan attribute *)
}

type relation = {
  rel_name : string;
  rel_attrs : string list;
  rel_keys : string list;
  navigations : navigation list;
}

type registry = relation list

let relation ?(keys = []) ~name ~attrs ~navigations () =
  List.iter
    (fun nav ->
      List.iter
        (fun a ->
          if not (List.mem_assoc a nav.bindings) then
            invalid_arg
              (Fmt.str "View.relation %s: attribute %s has no binding" name a))
        attrs)
    navigations;
  List.iter
    (fun k ->
      if not (List.mem k attrs) then
        invalid_arg (Fmt.str "View.relation %s: key %s is not an attribute" name k))
    keys;
  { rel_name = name; rel_attrs = attrs; rel_keys = keys; navigations }

let navigation ?(bindings = []) expr = { nav_expr = expr; bindings }

let find registry name =
  List.find_opt (fun r -> String.equal r.rel_name name) registry

let find_exn registry name =
  match find registry name with
  | Some r -> r
  | None -> invalid_arg (Fmt.str "View: unknown external relation %S" name)

(* Replace one External node (by alias) with a replacement expression. *)
let replace_external alias replacement e =
  Nalg.map
    (function
      | Nalg.External { alias = a; _ } when String.equal a alias -> replacement
      | other -> other)
    e

(* Apply an alias renaming map to attribute names of the bindings. *)
let rename_binding renames (ext_attr, plan_attr) =
  let plan_attr =
    match String.index_opt plan_attr '.' with
    | None -> plan_attr
    | Some i ->
      let alias = String.sub plan_attr 0 i in
      let rest = String.sub plan_attr i (String.length plan_attr - i) in
      (match List.assoc_opt alias renames with
      | Some alias' -> alias' ^ rest
      | None -> plan_attr)
  in
  (ext_attr, plan_attr)

(* Uniquify the aliases of a navigation against [taken], returning the
   adjusted expression and bindings. *)
let freshen taken nav =
  let original = Nalg.aliases nav.nav_expr in
  let expr = Nalg.uniquify_aliases ~taken nav.nav_expr in
  let now = Nalg.aliases expr in
  (* [uniquify_aliases] preserves the fold order of aliases *)
  let renames = List.combine original now in
  (expr, List.map (rename_binding renames) nav.bindings)

(* Rule 1, generalized to access-path choice: replace every external
   relation occurrence either by one of its default navigations (the
   paper's rule 1) or by any of the alternative scan expressions
   [scans rel ~alias] offers — view-scan leaves left as [External]
   nodes for the physical layer to answer from the matview store. A
   scan keeps the occurrence's "<alias>.<attr>" naming, so residual
   selections, join keys and the final projection need no renaming;
   [done_] records aliases already resolved to a scan so the recursion
   does not reconsider them. *)
let expand_access (registry : registry) ~scans (query : Nalg.expr) :
    Nalg.expr list =
  let rec go done_ query =
    match
      List.find_opt
        (fun (_, a) -> not (List.mem a done_))
        (Nalg.externals query)
    with
    | None -> [ query ]
    | Some (name, alias) ->
      let rel = find_exn registry name in
      let via_navigations =
        List.concat_map
          (fun nav ->
            let taken = Nalg.aliases query in
            let nav_expr, bindings = freshen taken nav in
            let substituted = replace_external alias nav_expr query in
            let rename attr =
              let prefix = alias ^ "." in
              if
                String.length attr > String.length prefix
                && String.sub attr 0 (String.length prefix) = prefix
              then
                let ext_attr =
                  String.sub attr (String.length prefix)
                    (String.length attr - String.length prefix)
                in
                match List.assoc_opt ext_attr bindings with
                | Some plan_attr -> plan_attr
                | None -> attr
              else attr
            in
            go done_ (Nalg.rename_attrs rename substituted))
          rel.navigations
      in
      let via_scans =
        List.concat_map
          (fun replacement ->
            go (alias :: done_) (replace_external alias replacement query))
          (scans rel ~alias)
      in
      via_navigations @ via_scans
  in
  go [] query

(* Rule 1 proper: navigations only. *)
let expand (registry : registry) (query : Nalg.expr) : Nalg.expr list =
  expand_access registry ~scans:(fun _ ~alias:_ -> []) query

(* ------------------------------------------------------------------ *)
(* Default-navigation inference                                        *)
(* ------------------------------------------------------------------ *)

(* The paper (Section 5): "by inference over inclusion constraints,
   the system might be able to select default navigations among all
   possible navigations in the scheme". A navigation is a valid
   default for page-scheme P when it starts at an entry point and its
   final hop is a ⊇-maximal link path towards P (no other link path
   strictly contains it under the inclusion closure) — so it is
   guaranteed to reach the whole extent that any single path can.

   Returns the shortest such navigations, one per maximal final hop. *)

(* Extend [expr] (whose current occurrence is [alias] of [scheme])
   along one link path: unnest every nested-list prefix, then follow. *)
let extend_along (expr, alias) (steps : string list) ~target ~target_alias =
  let rec go expr prefix = function
    | [] -> invalid_arg "View.extend_along: empty link path"
    | [ link ] -> Nalg.follow ~alias:target_alias expr (prefix ^ "." ^ link) ~scheme:target
    | list_step :: rest ->
      let attr = prefix ^ "." ^ list_step in
      go (Nalg.unnest expr attr) attr rest
  in
  go expr alias steps

let infer_navigations (schema : Adm.Schema.t) ~scheme : Nalg.expr list =
  (* maximal link paths towards [scheme] *)
  let towards =
    List.filter (fun (_, target) -> String.equal target scheme)
      (Adm.Schema.all_link_paths schema)
  in
  let maximal =
    List.filter
      (fun (p, _) ->
        List.for_all
          (fun (q, _) ->
            Adm.Constraints.path_equal p q
            || not
                 (Adm.Schema.inclusion_holds schema ~sub:p ~sup:q
                 && not (Adm.Schema.inclusion_holds schema ~sub:q ~sup:p)))
          towards)
      towards
  in
  (* breadth-first search over the link graph from the entry points,
     avoiding scheme repetition inside one chain *)
  let results = ref [] in
  let queue = Queue.create () in
  List.iter
    (fun ps ->
      let name = Adm.Page_scheme.name ps in
      Queue.add (name, Nalg.entry name, name, [ name ]) queue)
    (Adm.Schema.entry_points schema);
  while not (Queue.is_empty queue) do
    let current, expr, alias, visited = Queue.pop queue in
    let ps = Adm.Schema.find_scheme_exn schema current in
    List.iter
      (fun (steps, target) ->
        let link_path = Adm.Constraints.path current steps in
        if String.equal target scheme then begin
          if List.exists (fun (p, _) -> Adm.Constraints.path_equal p link_path) maximal
          then
            let nav =
              extend_along (expr, alias) steps ~target ~target_alias:scheme
            in
            results := (link_path, nav) :: !results
        end
        else if not (List.mem target visited) then
          let nav = extend_along (expr, alias) steps ~target ~target_alias:target in
          Queue.add (target, nav, target, target :: visited) queue)
      (Adm.Page_scheme.link_paths ps)
  done;
  (* keep the shortest navigation per maximal final hop *)
  List.filter_map
    (fun (p, _) ->
      !results
      |> List.filter (fun (q, _) -> Adm.Constraints.path_equal p q)
      |> List.map snd
      |> List.sort (fun e1 e2 -> Int.compare (Nalg.size e1) (Nalg.size e2))
      |> function
      | [] -> None
      | nav :: _ -> Some nav)
    maximal
  |> List.sort_uniq (fun e1 e2 -> String.compare (Nalg.canonical e1) (Nalg.canonical e2))

(* An automatic relational view over a whole web scheme: one external
   relation per page-scheme carrying its mono-valued attributes, with
   inferred default navigations (entry points are their own trivial
   navigation). Gives any site a queryable view without hand-written
   definitions; nested attributes stay out of the relational view, as
   in the paper's external schemas. *)
let auto_registry (schema : Adm.Schema.t) : registry =
  List.filter_map
    (fun ps ->
      let name = Adm.Page_scheme.name ps in
      let navs =
        if Adm.Page_scheme.is_entry_point ps then [ Nalg.entry name ]
        else infer_navigations schema ~scheme:name
      in
      if navs = [] then None
      else
        let mono_attrs =
          List.filter_map
            (fun (d : Adm.Page_scheme.attr_decl) ->
              if Adm.Webtype.is_mono d.Adm.Page_scheme.ty then
                Some d.Adm.Page_scheme.name
              else None)
            (Adm.Page_scheme.attrs ps)
        in
        if mono_attrs = [] then None
        else
          let bindings = List.map (fun a -> (a, name ^ "." ^ a)) mono_attrs in
          Some
            (relation ~name ~attrs:mono_attrs
               ~navigations:(List.map (fun nav -> navigation ~bindings nav) navs)
               ()))
    (Adm.Schema.schemes schema)
