(* Wrappers turn HTML pages into ADM nested tuples and back.

   The paper assumes "suitable wrappers are applied to pages in order
   to access attribute values". Ours are convention-based and driven
   entirely by the page-scheme:

   - a mono-valued attribute A appears as an element with class "a-A";
     link attributes are anchors:   <a class="a-ToDept" href="…">…</a>
   - a multi-valued attribute L is  <ul class="l-L"> whose <li>
     children are the nested tuples, recursively.

   Extraction is scope-aware: while extracting the attributes of one
   nesting level it never descends into a nested list ("l-…" element),
   so attribute names can be reused at different levels. Pages may
   contain arbitrary extra markup (navigation, headers); the wrapper
   ignores anything unclassified. It reads the body once, through the
   events of [Html.scan], and builds neither a token list nor a DOM. *)

let attr_class name = "a-" ^ name
let list_class name = "l-" ^ name

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

exception Wrap_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Wrap_error m)) fmt

(* A page-scheme compiled into nesting levels: one field per attribute,
   its class ("a-A" or "l-L") split into prefix and name so a class
   attribute is matched in place. A list field carries its inner level. *)
type field = { name : string; ty : Adm.Webtype.t; prefix : char; inner : level }
and level = field array

let rec compile fields : level =
  Array.of_list
    (List.map
       (fun (name, (ty : Adm.Webtype.t)) ->
         match ty with
         | Adm.Webtype.List inner -> { name; ty; prefix = 'l'; inner = compile inner }
         | Adm.Webtype.Text | Adm.Webtype.Int | Adm.Webtype.Image | Adm.Webtype.Link _ ->
           { name; ty; prefix = 'a'; inner = [||] })
       fields)

(* A draft is a tuple being filled by the scan: one slot per field,
   holding what the scan found for it so far. *)
type slot =
  | Unmatched
  | Href of string option  (** a link field's element and its href *)
  | Captured of Buffer.t  (** a text field's element: its text so far *)
  | Items of items  (** a list field's element *)

and items = { level : level; mutable rev_drafts : draft list }
and draft = { fields : level; slots : slot array }

let new_draft fields = { fields; slots = Array.make (Array.length fields) Unmatched }

(* Where an element's children are searched: [Scope ds] for the fields
   of the drafts [ds] ([Scope []]: nowhere); [Lists ls] under an element
   of class "l-…", whose direct [li] children each open one draft in
   every list [ls] it matched. *)
type scope = Scope of draft list | Lists of items list

(* The class-attribute tests below read [cv] in place, from the token
   starting at [i] on. Tokens are separated by single spaces, as
   [Html.classes] splits them; [after_space] moves to the next token,
   or to -1 after the last. *)
let after_space cv i = match String.index_from_opt cv i ' ' with Some j -> j + 1 | None -> -1

let rec same_name cv i name j =
  j >= String.length name || (cv.[i + j] = name.[j] && same_name cv i name (j + 1))

(* Whether [cv] holds the token "<prefix>-<name>". *)
let rec has_class cv prefix name i =
  let stop = i + String.length name + 2 in
  i >= 0
  && stop <= String.length cv
  && ((cv.[i] = prefix && cv.[i + 1] = '-' && same_name cv (i + 2) name 0
       && (stop = String.length cv || cv.[stop] = ' '))
     || has_class cv prefix name (after_space cv i))

(* Whether [cv] holds a list class: a token "l-…" of three or more
   characters. *)
let rec is_list_class cv i =
  i >= 0
  && i + 2 < String.length cv
  && ((cv.[i] = 'l' && cv.[i + 1] = '-' && cv.[i + 2] <> ' ')
     || is_list_class cv (after_space cv i))

(* Fill the unmatched slots of the drafts in scope whose field the
   element with class [cv] matches; the first match in pre-order wins.
   Returns the scope of the element's children ([parent] is [Scope
   drafts]). *)
let visit ~depth ~captures parent drafts attrs cv =
  let lists = ref [] in
  List.iter
    (fun d ->
      for k = 0 to Array.length d.fields - 1 do
        let f = d.fields.(k) in
        match d.slots.(k) with
        | Unmatched when has_class cv f.prefix f.name 0 ->
          d.slots.(k) <-
            (match f.ty with
            | Adm.Webtype.List _ ->
              let it = { level = f.inner; rev_drafts = [] } in
              lists := it :: !lists;
              Items it
            | Adm.Webtype.Link _ -> Href (List.assoc_opt "href" attrs)
            | Adm.Webtype.Text | Adm.Webtype.Int | Adm.Webtype.Image ->
              let buf = Buffer.create 16 in
              captures := (depth, buf) :: !captures;
              Captured buf)
        | _ -> ()
      done)
    drafts;
  if is_list_class cv 0 then Lists (List.rev !lists) else parent

let rec append_text captures s pos len =
  match captures with
  | [] -> ()
  | (_, buf) :: rest ->
    Html.unescape_into buf s pos len;
    append_text rest s pos len

(* The value of a field once the scan is over; raises the field's
   [Wrap_error], so errors come out in field order. *)
let rec value f = function
  | Unmatched -> Adm.Value.Null
  | Href (Some href) -> Adm.Value.link href
  | Href None -> fail "attribute %s: link without href" f.name
  | Captured buf -> (
    let text = String.trim (Buffer.contents buf) in
    match f.ty with
    | Adm.Webtype.Int -> (
      match int_of_string_opt text with
      | Some i -> Adm.Value.Int i
      | None -> fail "attribute %s: expected int, got %S" f.name text)
    | Adm.Webtype.Text | Adm.Webtype.Image | Adm.Webtype.Link _ | Adm.Webtype.List _ ->
      Adm.Value.text text)
  | Items it -> Adm.Value.Rows (List.map build (List.rev it.rev_drafts))

and build d : Adm.Value.tuple =
  Array.to_list (Array.mapi (fun k f -> (f.name, value f d.slots.(k))) d.fields)

(* Extract a full page tuple (including the implicit URL attribute)
   for a page-scheme, in one scan of the body: no token list, no DOM.
   Within a nesting level each field takes its first match in
   pre-order; an element of class "l-…" closes the level's scope, and
   each direct [li] child of a matched list opens an inner tuple. Text
   is captured only inside a matched text or int field. A
   [Html.Parse_error] anywhere in the body wins over every
   [Wrap_error], which are resolved in field order after the scan. *)
let extract (ps : Adm.Page_scheme.t) ~url html_body : Adm.Value.tuple =
  let page =
    new_draft
      (compile
         (List.map
            (fun (d : Adm.Page_scheme.attr_decl) -> (d.Adm.Page_scheme.name, d.Adm.Page_scheme.ty))
            (Adm.Page_scheme.attrs ps)))
  in
  let scopes = ref [ Scope [ page ] ] in
  let depth = ref 0 in
  let captures = ref [] in
  let enter name attrs =
    incr depth;
    let scope =
      match !scopes with
      | Scope [] :: _ | [] -> Scope []
      | (Scope drafts as parent) :: _ -> (
        match List.assoc_opt "class" attrs with
        | None -> parent
        | Some cv -> visit ~depth:!depth ~captures parent drafts attrs cv)
      | Lists lists :: _ ->
        if String.equal name "li" then
          Scope
            (List.map
               (fun it ->
                 let d = new_draft it.level in
                 it.rev_drafts <- d :: it.rev_drafts;
                 d)
               lists)
        else Scope []
    in
    scopes := scope :: !scopes
  in
  let rec leave () =
    match !captures with
    | (d, _) :: rest when d = !depth ->
      captures := rest;
      leave ()
    | _ ->
      decr depth;
      scopes := List.tl !scopes
  in
  let text s pos len = append_text !captures s pos len in
  Html.scan { Html.enter; leave; text; comment = (fun _ _ _ -> ()) } html_body;
  let tuple = build page in
  List.iter
    (fun (d : Adm.Page_scheme.attr_decl) ->
      if not d.Adm.Page_scheme.optional then
        match Adm.Value.find tuple d.Adm.Page_scheme.name with
        | Some v when not (Adm.Value.is_null v) -> ()
        | _ ->
          fail "page %s (%s): missing non-optional attribute %s" url
            (Adm.Page_scheme.name ps) d.Adm.Page_scheme.name)
    (Adm.Page_scheme.attrs ps);
  (Adm.Page_scheme.url_attr, Adm.Value.link url) :: tuple

(* ------------------------------------------------------------------ *)
(* Rendering (the inverse, used by the site generators)                *)
(* ------------------------------------------------------------------ *)

let render_mono name (v : Adm.Value.t) : Html.node =
  match v with
  | Adm.Value.Link href ->
    let href = Adm.Value.Atom.str href in
    Html.Element ("a", [ ("class", attr_class name); ("href", href) ], [ Html.Text href ])
  | Adm.Value.Text s ->
    Html.Element ("span", [ ("class", attr_class name) ], [ Html.Text (Adm.Value.Atom.str s) ])
  | Adm.Value.Int i ->
    Html.Element ("span", [ ("class", attr_class name) ], [ Html.Text (string_of_int i) ])
  | Adm.Value.Bool b ->
    Html.Element ("span", [ ("class", attr_class name) ], [ Html.Text (Bool.to_string b) ])
  | Adm.Value.Null | Adm.Value.Rows _ -> Html.Text ""

let rec render_tuple (tuple : Adm.Value.tuple) : Html.node list =
  List.concat_map
    (fun (name, v) ->
      match (v : Adm.Value.t) with
      | Adm.Value.Null -> []
      | Adm.Value.Rows rows ->
        [
          Html.Element
            ( "ul",
              [ ("class", list_class name) ],
              List.map (fun t -> Html.Element ("li", [], render_tuple t)) rows );
        ]
      | Adm.Value.Bool _ | Adm.Value.Int _ | Adm.Value.Text _ | Adm.Value.Link _ ->
        [ render_mono name v ])
    tuple

(* Render a page tuple (URL attribute excluded) as a page body, with
   realistic chrome around the data so extraction has to work for it. *)
let render ?(title = "") (tuple : Adm.Value.tuple) : string =
  let data = render_tuple (Adm.Value.remove tuple Adm.Page_scheme.url_attr) in
  let body =
    [
      Html.Element ("div", [ ("class", "nav") ], [ Html.Element ("a", [ ("href", "/index.html") ], [ Html.Text "Home" ]) ]);
      Html.Element ("h1", [], [ Html.Text title ]);
      Html.Element ("div", [ ("class", "content") ], data);
      Html.Element ("div", [ ("class", "footer") ], [ Html.Text "Generated by sitegen" ]);
    ]
  in
  Html.doc_to_string ~title body
