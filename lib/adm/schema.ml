(* A Web scheme (Section 3.3): page-schemes connected by links, entry
   points, link constraints and inclusion constraints. *)

type t = {
  name : string;
  schemes : Page_scheme.t list;
  link_constraints : Constraints.link_constraint list;
  inclusions : Constraints.inclusion list;
}

let make ~name ~schemes ~link_constraints ~inclusions =
  { name; schemes; link_constraints; inclusions }

let name s = s.name
let schemes s = s.schemes
let link_constraints s = s.link_constraints
let inclusions s = s.inclusions

let find_scheme s n =
  List.find_opt (fun ps -> String.equal (Page_scheme.name ps) n) s.schemes

let scheme_names s = List.map Page_scheme.name s.schemes

let find_scheme_exn s n =
  match find_scheme s n with
  | Some ps -> ps
  | None -> invalid_arg (Fmt.str "Schema: unknown page-scheme %S" n)

let entry_points s = List.filter Page_scheme.is_entry_point s.schemes

(* Link constraints attached to a given link attribute. *)
let constraints_on_link s (link : Constraints.path) =
  List.filter
    (fun (c : Constraints.link_constraint) -> Constraints.path_equal c.link link)
    s.link_constraints

(* The target page-scheme of a link path, if the path resolves to a
   link attribute. *)
let link_target s (link : Constraints.path) =
  match find_scheme s link.scheme with
  | None -> None
  | Some ps -> (
    match Page_scheme.resolve_path ps link.steps with
    | Some ty -> Webtype.link_target ty
    | None -> None)

(* Reflexive-transitive closure of the inclusion constraints: does
   sub ⊆ sup follow from the declared inclusions? *)
let inclusion_holds s ~(sub : Constraints.path) ~(sup : Constraints.path) =
  let rec search visited p =
    Constraints.path_equal p sup
    || List.exists
         (fun (c : Constraints.inclusion) ->
           Constraints.path_equal c.sub p
           && (not (List.exists (Constraints.path_equal c.sup) visited))
           && search (c.sup :: visited) c.sup)
         s.inclusions
  in
  search [ sub ] sub

(* All declared link paths of the whole scheme, with their targets. *)
let all_link_paths s =
  List.concat_map
    (fun ps ->
      List.map
        (fun (steps, target) ->
          (Constraints.path (Page_scheme.name ps) steps, target))
        (Page_scheme.link_paths ps))
    s.schemes

(* Well-formedness: every path in every constraint resolves, link
   constraints live on actual link attributes and bind mono-valued
   attributes, inclusions relate links with the same target. Returns
   the list of problems (empty = valid). *)
let validate s =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  let resolve (p : Constraints.path) =
    match find_scheme s p.scheme with
    | None ->
      err "unknown page-scheme %s in %s" p.scheme (Constraints.path_to_string p);
      None
    | Some ps -> (
      match Page_scheme.resolve_path ps p.steps with
      | Some ty -> Some ty
      | None ->
        err "path %s does not resolve" (Constraints.path_to_string p);
        None)
  in
  List.iter
    (fun (c : Constraints.link_constraint) ->
      (match resolve c.link with
      | Some (Webtype.Link target) ->
        if not (String.equal target c.target_scheme) then
          err "link %s targets %s, constraint names %s"
            (Constraints.path_to_string c.link)
            target c.target_scheme
      | Some _ -> err "%s is not a link attribute" (Constraints.path_to_string c.link)
      | None -> ());
      (match resolve c.source_attr with
      | Some ty when Webtype.is_mono ty -> ()
      | Some _ ->
        err "source attribute %s is multi-valued"
          (Constraints.path_to_string c.source_attr)
      | None -> ());
      match find_scheme s c.target_scheme with
      | None -> err "unknown target page-scheme %s" c.target_scheme
      | Some ps -> (
        match Page_scheme.resolve_path ps [ c.target_attr ] with
        | Some ty when Webtype.is_mono ty -> ()
        | Some _ -> err "target attribute %s.%s is multi-valued" c.target_scheme c.target_attr
        | None ->
          if not (String.equal c.target_attr Page_scheme.url_attr) then
            err "unknown target attribute %s.%s" c.target_scheme c.target_attr))
    s.link_constraints;
  List.iter
    (fun (c : Constraints.inclusion) ->
      match resolve c.sub, resolve c.sup with
      | Some (Webtype.Link t1), Some (Webtype.Link t2) ->
        if not (String.equal t1 t2) then
          err "inclusion %s relates links with different targets (%s vs %s)"
            (Fmt.str "%a" Constraints.pp_inclusion c)
            t1 t2
      | Some _, Some _ ->
        err "inclusion %s ⊆ %s must relate link attributes"
          (Constraints.path_to_string c.sub)
          (Constraints.path_to_string c.sup)
      | _ -> ())
    s.inclusions;
  List.rev !errors

(* Instance checking. [values_at_path] collects the (non-null) values
   reached by a dotted path inside a page relation whose attributes
   are the page-scheme's own (unqualified) names. *)
let values_at_path relation steps =
  let rec descend steps (tuple : Value.tuple) =
    match steps with
    | [] -> []
    | [ last ] -> (
      match Value.find tuple last with
      | Some v when not (Value.is_null v) -> [ v ]
      | _ -> [])
    | step :: rest -> (
      match Value.find tuple step with
      | Some (Value.Rows inner) -> List.concat_map (descend rest) inner
      | _ -> [])
  in
  List.concat_map (descend steps) (Relation.rows relation)

(* Check every declared constraint against a full instance: a lookup
   from page-scheme name to its page relation. Returns violations. *)
let validate_instance s lookup =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  let relation_of n =
    match lookup n with
    | Some r -> r
    | None -> Relation.empty [ Page_scheme.url_attr ]
  in
  (* Link constraints: for each source tuple holding link L with value
     u, the target page with URL u must carry B = value of A. *)
  List.iter
    (fun (c : Constraints.link_constraint) ->
      let source = relation_of c.link.scheme in
      let target = relation_of c.target_scheme in
      let target_by_url = Hashtbl.create 64 in
      List.iter
        (fun t ->
          match Value.find t Page_scheme.url_attr with
          | Some v -> Hashtbl.replace target_by_url (Value.to_string v) t
          | None -> ())
        (Relation.rows target);
      (* Pair each link value with the source-attribute value governing
         it. The two paths share the scheme; they may share a nested-
         list prefix, and the source attribute may be resolved at an
         outer level while the link descends further (e.g.
         SessionPage.Session governing SessionPage.CourseList.ToCourse). *)
      let rec collect_links steps tuple =
        match steps with
        | [] -> []
        | [ l ] -> (
          match Value.find tuple l with
          | Some (Value.Link u) -> [ u ]
          | _ -> [])
        | step :: rest -> (
          match Value.find tuple step with
          | Some (Value.Rows inner) -> List.concat_map (collect_links rest) inner
          | _ -> [])
      in
      let rec link_attr_pairs link_steps attr_steps tuple =
        match link_steps, attr_steps with
        | l :: lrest, a :: arest when String.equal l a && lrest <> [] -> (
          (* shared nested-list prefix: descend both paths together *)
          match Value.find tuple l with
          | Some (Value.Rows inner) ->
            List.concat_map (link_attr_pairs lrest arest) inner
          | _ -> [])
        | _, [ a ] -> (
          (* the attribute resolves here; collect all links below *)
          match Value.find tuple a with
          | Some av when not (Value.is_null av) ->
            List.map (fun u -> (u, av)) (collect_links link_steps tuple)
          | _ -> [])
        | _, _ -> []
      in
      List.iter
        (fun tuple ->
          List.iter
            (fun (u, av) ->
              match Hashtbl.find_opt target_by_url (Value.to_string (Value.Link u)) with
              | None ->
                err "link constraint %a: dangling link %s" Constraints.pp_link_constraint c
                  (Value.Atom.str u)
              | Some target_tuple -> (
                let bv =
                  if String.equal c.target_attr Page_scheme.url_attr then
                    Value.find target_tuple Page_scheme.url_attr
                  else Value.find target_tuple c.target_attr
                in
                match bv with
                | Some bv when Value.equal bv av -> ()
                | Some bv ->
                  err "link constraint %a violated at %s: %s ≠ %s"
                    Constraints.pp_link_constraint c (Value.Atom.str u)
                    (Value.to_string av) (Value.to_string bv)
                | None ->
                  err "link constraint %a: target %s misses attribute %s"
                    Constraints.pp_link_constraint c (Value.Atom.str u) c.target_attr))
            (link_attr_pairs c.link.steps c.source_attr.steps tuple))
        (Relation.rows source))
    s.link_constraints;
  (* Inclusion constraints: URL set of sub ⊆ URL set of sup. *)
  List.iter
    (fun (c : Constraints.inclusion) ->
      let urls (p : Constraints.path) =
        values_at_path (relation_of p.scheme) p.steps
        |> List.filter_map Value.as_link
      in
      let sup_set = Hashtbl.create 64 in
      List.iter (fun u -> Hashtbl.replace sup_set u ()) (urls c.sup);
      List.iter
        (fun u ->
          if not (Hashtbl.mem sup_set u) then
            err "inclusion %a violated: %s unreachable through superset path"
              Constraints.pp_inclusion c u)
        (urls c.sub))
    s.inclusions;
  List.rev !errors

let pp ppf s =
  Fmt.pf ppf "@[<v>Web scheme %s@,@,%a@,@,Link constraints:@,%a@,@,Inclusion constraints:@,%a@]"
    s.name
    (Fmt.list ~sep:(Fmt.any "@,@,") Page_scheme.pp)
    s.schemes
    (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "  %a" Constraints.pp_link_constraint c))
    s.link_constraints
    (Fmt.list ~sep:Fmt.cut (fun ppf c -> Fmt.pf ppf "  %a" Constraints.pp_inclusion c))
    s.inclusions
