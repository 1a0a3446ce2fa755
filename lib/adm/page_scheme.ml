(* Page-schemes (Section 3.1): the description of a set of structurally
   similar pages. A page-scheme has a name, a list of typed attributes
   (some optional) and, when it is an entry point, a known URL whose
   instance contains a single page. The URL attribute is implicit and
   always present; it forms a key for the page-scheme. *)

type attr_decl = {
  name : string;
  ty : Webtype.t;
  optional : bool;
  nonempty : bool;
      (* list attributes only: the site declares every instance holds at
         least one element — the integrity constraint that licenses
         rule 3 (dropping an unneeded unnest cannot lose rows) *)
}

(* A binding-pattern parameter of a parameterized entry point: a form
   field or service-call input that must be *bound* before any page of
   the scheme can be fetched (the bound adornment of the
   Rajaraman-style binding pattern; the page's own attributes are the
   free positions). *)
type param = { p_name : string; p_ty : Webtype.t }

type t = {
  name : string;
  attrs : attr_decl list;
  entry_url : string option; (* Some url iff this page-scheme is an entry point *)
  params : param list;
      (* non-empty iff the scheme is a parameterized entry (form /
         service endpoint): [entry_url] is then the form's base URL and
         instances live at templated URLs [base?p1=v1&...] *)
}

let url_attr = "URL"

let attr ?(optional = false) ?(nonempty = false) name ty =
  { name; ty; optional; nonempty }

let param name ty = { p_name = name; p_ty = ty }

let make ?entry_url ?(params = []) name (attrs : attr_decl list) =
  List.iter
    (fun ({ name = a; _ } : attr_decl) ->
      if String.equal a url_attr then
        invalid_arg "Page_scheme.make: URL is implicit and reserved")
    attrs;
  (match params with
  | [] -> ()
  | _ :: _ ->
    if entry_url = None then
      invalid_arg
        "Page_scheme.make: parameterized scheme needs a base entry_url";
    List.iter
      (fun { p_name; p_ty } ->
        if String.equal p_name url_attr then
          invalid_arg "Page_scheme.make: URL cannot be a parameter";
        match p_ty with
        | Webtype.Text | Webtype.Int -> ()
        | Webtype.Image | Webtype.Link _ | Webtype.List _ ->
          invalid_arg
            (Fmt.str "Page_scheme.make: parameter %s must be Text or Int"
               p_name))
      params;
    let names = List.map (fun p -> p.p_name) params in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then invalid_arg "Page_scheme.make: duplicate parameter name");
  { name; attrs; entry_url; params }

let name ps = ps.name
let attrs ps = ps.attrs
let entry_url ps = ps.entry_url
let params ps = ps.params
let is_parameterized ps = ps.params <> []

(* A crawlable entry point has a known URL *and* no required inputs: a
   parameterized scheme cannot seed a crawl — nothing can be fetched
   until every parameter is bound. *)
let is_entry_point ps = Option.is_some ps.entry_url && ps.params = []

let find_param ps a =
  List.find_opt (fun (p : param) -> String.equal p.p_name a) ps.params

(* Query-string encoding shared by the site generator (publishing) and
   the executor (fetching): both sides must produce byte-identical URLs
   for the same bound values. RFC 3986 unreserved characters pass
   through; everything else is percent-encoded. *)
let encode_component s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
        Buffer.add_char buf c
      | _ -> Buffer.add_string buf (Fmt.str "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

(* The templated URL of the page reached by binding every parameter:
   [base?p1=v1&p2=v2] with parameters in declaration order, so the URL
   is a deterministic function of the bound values. [None] when the
   scheme is not parameterized or some parameter is missing from
   [bindings]. *)
let bound_url ps (bindings : (string * string) list) =
  match ps.entry_url, ps.params with
  | None, _ | _, [] -> None
  | Some base, params ->
    let rec build acc = function
      | [] -> Some (List.rev acc)
      | p :: tl -> (
        match List.assoc_opt p.p_name bindings with
        | None -> None
        | Some v ->
          build ((encode_component p.p_name ^ "=" ^ encode_component v) :: acc) tl)
    in
    Option.map
      (fun parts -> base ^ "?" ^ String.concat "&" parts)
      (build [] params)

let find_attr ps a =
  List.find_opt (fun (d : attr_decl) -> String.equal d.name a) ps.attrs

(* Resolve a dotted path (excluding the page-scheme name) to its web
   type, traversing nested lists. *)
let resolve_path ps path =
  let fields = List.map (fun (d : attr_decl) -> (d.name, d.ty)) ps.attrs in
  Webtype.resolve_in_fields fields path

(* All link attributes of the page-scheme, each with the dotted path
   from the root of the page and the target page-scheme name. *)
let link_paths ps =
  let rec walk prefix fields =
    List.concat_map
      (fun (a, ty) ->
        let path = prefix @ [ a ] in
        match (ty : Webtype.t) with
        | Webtype.Link target -> [ (path, target) ]
        | Webtype.List inner -> walk path inner
        | Webtype.Text | Webtype.Int | Webtype.Image -> [])
      fields
  in
  walk [] (List.map (fun (d : attr_decl) -> (d.name, d.ty)) ps.attrs)

let is_optional_path ps path =
  (* Only top-level optionality is tracked; nested attributes inherit
     their list's presence. *)
  match path with
  | [ a ] -> (
    match find_attr ps a with Some d -> d.optional | None -> false)
  | _ -> false

let is_nonempty_path ps path =
  (* Like optionality, only top-level list attributes carry the
     declaration. Absent declaration = the list may be empty. *)
  match path with
  | [ a ] -> (
    match find_attr ps a with Some d -> d.nonempty | None -> false)
  | _ -> false

(* Validate one page tuple against the scheme: implicit URL present,
   every non-optional attribute bound to a value of the right type. *)
let validate_tuple ps (tuple : Value.tuple) =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  (match Value.find tuple url_attr with
  | Some (Value.Link _) | Some (Value.Text _) -> ()
  | Some v -> err "URL has type %s" (Value.type_name v)
  | None -> err "missing URL");
  List.iter
    (fun { name = a; ty; optional; _ } ->
      match Value.find tuple a with
      | None -> if not optional then err "missing attribute %s" a
      | Some Value.Null -> if not optional then err "null non-optional attribute %s" a
      | Some v ->
        if not (Webtype.accepts ty v) then
          err "attribute %s: expected %s, got %s" a (Webtype.to_string ty)
            (Value.type_name v))
    ps.attrs;
  List.iter
    (fun (a, _) ->
      if (not (String.equal a url_attr)) && find_attr ps a = None then
        err "unknown attribute %s" a)
    tuple;
  List.rev !errors

(* Binding adornment in the Rajaraman notation: one letter per
   position, [b]ound for parameters, [f]ree for attributes — e.g. a
   dept-search form with one parameter and two outputs prints "bff". *)
let adornment ps =
  String.concat ""
    (List.map (fun (_ : param) -> "b") ps.params
    @ List.map (fun (_ : attr_decl) -> "f") ps.attrs)

let pp ppf ps =
  let pp_attr ppf { name = a; ty; optional; nonempty } =
    Fmt.pf ppf "%s%s%s : %a" a
      (if optional then "?" else "")
      (if nonempty then "+" else "")
      Webtype.pp ty
  in
  let pp_param ppf { p_name; p_ty } =
    Fmt.pf ppf "%s : %a" p_name Webtype.pp p_ty
  in
  Fmt.pf ppf "@[<v 2>%s%a(URL%a)%a@]" ps.name
    (fun ppf -> function
      | [] -> ()
      | params ->
        Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ", ") pp_param) params)
    ps.params
    (Fmt.list ~sep:Fmt.nop (fun ppf a -> Fmt.pf ppf ",@ %a" pp_attr a))
    ps.attrs
    (Fmt.option (fun ppf u ->
         if ps.params = [] then Fmt.pf ppf "@ entry point: %s" u
         else Fmt.pf ppf "@ form endpoint: %s?..." u))
    ps.entry_url
