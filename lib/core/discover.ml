(* Constraint discovery: the reverse-engineering role the paper
   assigns to WebSQL-style exploration ("to derive inclusion
   constraints for a site, one may think of using a tool like WebSQL
   in order to verify different paths leading to the same page-scheme
   and check inclusions between sets of links", Section 3.3, and the
   a-posteriori scheme description of Section 3.1).

   Given a crawled instance, [link_constraints] proposes every A = B
   predicate that holds across all instances of a link, and
   [inclusions] every containment between link paths towards the same
   page-scheme. [audit] compares the proposals with a schema's
   declared constraints. *)

type report = {
  discovered_links : Adm.Constraints.link_constraint list;
  discovered_inclusions : Adm.Constraints.inclusion list;
}

let url_key (v : Adm.Value.t) = Adm.Value.to_string v

(* All (link value, context) pairs for a link path: walk the path and,
   at each level, record the atomic attributes seen along this
   particular traversal with their full path from the scheme root.
   These are the candidate source attributes of a link constraint. *)
let link_occurrences (rel : Adm.Relation.t) (steps : string list) =
  let atomic_ctx prefix tuple =
    List.filter_map
      (fun (a, v) ->
        if Adm.Value.is_atomic v && not (Adm.Value.is_null v) then
          Some (prefix @ [ a ], v)
        else None)
      tuple
  in
  let rec walk prefix ctx steps tuple =
    let ctx = ctx @ atomic_ctx prefix tuple in
    match steps with
    | [] -> []
    | [ last ] -> (
      match Adm.Value.find tuple last with
      | Some (Adm.Value.Link u) -> [ (Adm.Value.Atom.str u, ctx) ]
      | _ -> [])
    | step :: rest -> (
      match Adm.Value.find tuple step with
      | Some (Adm.Value.Rows inner) ->
        List.concat_map (walk (prefix @ [ step ]) ctx rest) inner
      | _ -> [])
  in
  List.concat_map (fun t -> walk [] [] steps t) (Adm.Relation.rows rel)

(* Candidate link constraints for one link path: source attributes
   whose value always equals some mono-valued target attribute. *)
let constraints_for_link (instance : Websim.Crawler.instance)
    (link : Adm.Constraints.path) (target_scheme : string) =
  match Websim.Crawler.find_relation instance link.Adm.Constraints.scheme,
        Websim.Crawler.find_relation instance target_scheme
  with
  | Some source_rel, Some target_rel ->
    let occurrences = link_occurrences source_rel link.Adm.Constraints.steps in
    if occurrences = [] then []
    else begin
      let target_by_url = Hashtbl.create 64 in
      List.iter
        (fun t ->
          match Adm.Value.find t Adm.Page_scheme.url_attr with
          | Some v -> Hashtbl.replace target_by_url (url_key v) t
          | None -> ())
        (Adm.Relation.rows target_rel);
      (* candidate (source path, target attr) pairs from the first
         occurrence, then refuted by the rest *)
      let target_attrs target_tuple =
        List.filter_map
          (fun (a, v) ->
            if
              Adm.Value.is_atomic v
              && not (String.equal a Adm.Page_scheme.url_attr)
            then Some a
            else None)
          target_tuple
      in
      let candidates =
        match occurrences with
        | (u, ctx) :: _ -> (
          match Hashtbl.find_opt target_by_url (url_key (Adm.Value.link u)) with
          | None -> []
          | Some target_tuple ->
            List.concat_map
              (fun (src_path, src_v) ->
                List.filter_map
                  (fun b ->
                    match Adm.Value.find target_tuple b with
                    | Some bv when Adm.Value.equal bv src_v -> Some (src_path, b)
                    | _ -> None)
                  (target_attrs target_tuple))
              ctx)
        | [] -> []
      in
      let holds (src_path, b) =
        List.for_all
          (fun (u, ctx) ->
            match Hashtbl.find_opt target_by_url (url_key (Adm.Value.link u)) with
            | None -> true (* dangling link: no evidence either way *)
            | Some target_tuple -> (
              match List.assoc_opt src_path ctx, Adm.Value.find target_tuple b with
              | Some sv, Some bv -> Adm.Value.equal sv bv
              | _ -> false))
          occurrences
      in
      List.filter holds candidates
      |> List.map (fun (src_path, b) ->
             Adm.Constraints.link_constraint ~link
               ~source_attr:(Adm.Constraints.path link.Adm.Constraints.scheme src_path)
               ~target_scheme ~target_attr:b)
    end
  | _ -> []

(* URL set reached through a link path in the instance. *)
let urls_of_path (instance : Websim.Crawler.instance) (p : Adm.Constraints.path) =
  match Websim.Crawler.find_relation instance p.Adm.Constraints.scheme with
  | None -> []
  | Some rel ->
    Adm.Schema.values_at_path rel p.Adm.Constraints.steps
    |> List.filter_map Adm.Value.as_link
    |> List.sort_uniq String.compare

let link_constraints (schema : Adm.Schema.t) (instance : Websim.Crawler.instance) =
  List.concat_map
    (fun (link, target) -> constraints_for_link instance link target)
    (Adm.Schema.all_link_paths schema)

let inclusions (schema : Adm.Schema.t) (instance : Websim.Crawler.instance) =
  let paths = Adm.Schema.all_link_paths schema in
  List.concat_map
    (fun (p1, t1) ->
      List.filter_map
        (fun (p2, t2) ->
          if Adm.Constraints.path_equal p1 p2 || not (String.equal t1 t2) then None
          else
            let u1 = urls_of_path instance p1 in
            let u2 = urls_of_path instance p2 in
            if u1 <> [] && List.for_all (fun u -> List.mem u u2) u1 then
              Some (Adm.Constraints.inclusion ~sub:p1 ~sup:p2)
            else None)
        paths)
    paths

let discover schema instance =
  {
    discovered_links = link_constraints schema instance;
    discovered_inclusions = inclusions schema instance;
  }

(* Compare declared constraints with the discovered ones. Declared
   constraints absent from the discovery are suspicious (the instance
   refutes them or lacks evidence); discovered constraints absent from
   the declaration are candidate additions for the optimizer. *)
type audit = {
  confirmed_links : Adm.Constraints.link_constraint list;
  refuted_links : Adm.Constraints.link_constraint list;
  candidate_links : Adm.Constraints.link_constraint list;
  confirmed_inclusions : Adm.Constraints.inclusion list;
  refuted_inclusions : Adm.Constraints.inclusion list;
  candidate_inclusions : Adm.Constraints.inclusion list;
}

let link_eq (c1 : Adm.Constraints.link_constraint) (c2 : Adm.Constraints.link_constraint) =
  Adm.Constraints.path_equal c1.link c2.link
  && Adm.Constraints.path_equal c1.source_attr c2.source_attr
  && String.equal c1.target_scheme c2.target_scheme
  && String.equal c1.target_attr c2.target_attr

let inclusion_eq (c1 : Adm.Constraints.inclusion) (c2 : Adm.Constraints.inclusion) =
  Adm.Constraints.path_equal c1.sub c2.sub && Adm.Constraints.path_equal c1.sup c2.sup

let audit (schema : Adm.Schema.t) (instance : Websim.Crawler.instance) =
  let r = discover schema instance in
  let declared_links = Adm.Schema.link_constraints schema in
  let declared_incls = Adm.Schema.inclusions schema in
  let mem eq x xs = List.exists (eq x) xs in
  {
    confirmed_links = List.filter (fun c -> mem link_eq c r.discovered_links) declared_links;
    refuted_links =
      List.filter (fun c -> not (mem link_eq c r.discovered_links)) declared_links;
    candidate_links =
      List.filter (fun c -> not (mem link_eq c declared_links)) r.discovered_links;
    confirmed_inclusions =
      List.filter (fun c -> mem inclusion_eq c r.discovered_inclusions) declared_incls;
    refuted_inclusions =
      List.filter (fun c -> not (mem inclusion_eq c r.discovered_inclusions)) declared_incls;
    candidate_inclusions =
      List.filter (fun c -> not (mem inclusion_eq c declared_incls)) r.discovered_inclusions;
  }
