(* Differential tests for the wrapper. [Websim.Wrapper.extract] reads a
   body in one scan, without a token list or a DOM; [Dom] below is the
   extractor it replaced (parse the tree, then one scoped search per
   field) and is the oracle: the same tuples, field order and Nulls
   included, or the same exception and message, on every page of the
   generated sites and on corrupted bodies. *)

open Adm

module Dom = struct
  exception Wrap_error = Websim.Wrapper.Wrap_error

  let fail fmt = Fmt.kstr (fun m -> raise (Wrap_error m)) fmt

  let is_list_element node =
    List.exists (fun c -> String.length c > 2 && String.sub c 0 2 = "l-") (Html.classes node)

  (* Depth-first search that does not descend below nested lists. *)
  let rec scoped_find pred nodes =
    List.concat_map
      (fun node ->
        if pred node then [ node ]
        else if is_list_element node then []
        else scoped_find pred (Html.children node))
      nodes

  let find_first cls nodes =
    match scoped_find (Html.has_class cls) nodes with [] -> None | node :: _ -> Some node

  let extract_mono name (ty : Webtype.t) nodes : Value.t option =
    match find_first (Websim.Wrapper.attr_class name) nodes with
    | None -> None
    | Some node -> (
      match ty with
      | Webtype.Link _ -> (
        match Html.attr "href" node with
        | Some href -> Some (Value.link href)
        | None -> fail "attribute %s: link without href" name)
      | Webtype.Int -> (
        let text = String.trim (Html.inner_text node) in
        match int_of_string_opt text with
        | Some i -> Some (Value.Int i)
        | None -> fail "attribute %s: expected int, got %S" name text)
      | Webtype.Text | Webtype.Image -> Some (Value.text (String.trim (Html.inner_text node)))
      | Webtype.List _ -> fail "attribute %s: mono extraction of a list type" name)

  let rec extract_fields fields nodes : Value.tuple =
    List.map
      (fun (name, (ty : Webtype.t)) ->
        match ty with
        | Webtype.List inner -> (
          match find_first (Websim.Wrapper.list_class name) nodes with
          | None -> (name, Value.Null)
          | Some ul ->
            let items = List.filter (fun c -> Html.tag c = Some "li") (Html.children ul) in
            (name, Value.Rows (List.map (fun li -> extract_fields inner (Html.children li)) items)))
        | Webtype.Text | Webtype.Int | Webtype.Image | Webtype.Link _ -> (
          match extract_mono name ty nodes with Some v -> (name, v) | None -> (name, Value.Null)))
      fields

  let extract (ps : Page_scheme.t) ~url body : Value.tuple =
    let doc = Html.parse body in
    let decls = Page_scheme.attrs ps in
    let tuple =
      extract_fields (List.map (fun (d : Page_scheme.attr_decl) -> (d.name, d.ty)) decls) doc
    in
    List.iter
      (fun (d : Page_scheme.attr_decl) ->
        if not d.optional then
          match Value.find tuple d.name with
          | Some v when not (Value.is_null v) -> ()
          | _ ->
            fail "page %s (%s): missing non-optional attribute %s" url (Page_scheme.name ps)
              d.name)
      decls;
    (Page_scheme.url_attr, Value.link url) :: tuple
end

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

(* Anything but these two exceptions escapes and fails the test. *)
type outcome = Tuple of Value.tuple | Raised of string * string

let run extract ps ~url body =
  match extract ps ~url body with
  | t -> Tuple t
  | exception Websim.Wrapper.Wrap_error m -> Raised ("Wrap_error", m)
  | exception Html.Parse_error m -> Raised ("Parse_error", m)

let same a b =
  match (a, b) with
  | Tuple t1, Tuple t2 -> Value.equal_tuple t1 t2
  | Raised (c1, m1), Raised (c2, m2) -> String.equal c1 c2 && String.equal m1 m2
  | Tuple _, Raised _ | Raised _, Tuple _ -> false

let show = function
  | Tuple t -> Fmt.str "%a" Value.pp_tuple t
  | Raised (c, m) -> Fmt.str "%s %S" c m

let agree ps ~url body =
  let got = run Websim.Wrapper.extract ps ~url body in
  let want = run Dom.extract ps ~url body in
  if same got want then None
  else
    Some
      (Fmt.str "%s as %s: streaming %s, oracle %s" url (Page_scheme.name ps) (show got) (show want))

(* Every page of a site against every page-scheme of its schema: each
   page meets its own scheme and the errors of all the others. Returns
   the number of pages some scheme wraps. *)
let check_site name schema site =
  let schemes = Schema.schemes schema in
  let wrapped = ref 0 in
  List.iter
    (fun url ->
      match Websim.Site.find site url with
      | None -> ()
      | Some page ->
        let body = page.Websim.Site.body in
        let wraps ps =
          match agree ps ~url body with
          | Some diff -> Alcotest.failf "%s: %s" name diff
          | None -> (
            match run Websim.Wrapper.extract ps ~url body with Tuple _ -> true | Raised _ -> false)
        in
        if List.fold_left (fun any ps -> wraps ps || any) false schemes then incr wrapped)
    (Websim.Site.urls site);
  !wrapped

let test_sites () =
  List.iter
    (fun kind ->
      let s = Sitegen.Sites.load kind in
      Alcotest.(check int)
        (Sitegen.Sites.name kind ^ ": every page wraps")
        (Websim.Site.page_count s.Sitegen.Sites.site)
        (check_site (Sitegen.Sites.name kind) s.schema s.site))
    [ Sitegen.Sites.University; Bibliography; Catalog; Formsite ]

(* The join-plan university: 20 depts, 400 profs, 800 courses, 4 sessions. *)
let join_plan_config =
  {
    Sitegen.University.default_config with
    n_depts = 20;
    n_profs = 400;
    n_courses = 800;
    n_sessions = 4;
  }

let test_join_plan_university () =
  let u = Sitegen.University.build ~config:join_plan_config () in
  let site = Sitegen.University.site u in
  Alcotest.(check int) "1,228 pages" 1228 (Websim.Site.page_count site);
  Alcotest.(check int) "every page wraps" 1228 (check_site "join-plan" Sitegen.University.schema site)

let test_mutated_university () =
  let u = Sitegen.University.build () in
  let module U = Sitegen.University in
  let dept = (List.hd (U.depts u)).U.d_name in
  ignore (U.hire_professor u ~dept_name:dept);
  ignore (U.hire_professor u ~dept_name:dept);
  List.iteri
    (fun i (c : U.course) ->
      if i mod 3 = 0 then ignore (U.drop_course u ~c_name:c.c_name)
      else if i mod 3 = 1 then ignore (U.revise_course u ~c_name:c.c_name))
    (List.filteri (fun i _ -> i < 12) (U.courses u));
  List.iteri
    (fun i (p : U.prof) -> if i mod 2 = 0 then ignore (U.promote_professor u ~p_name:p.p_name))
    (List.filteri (fun i _ -> i < 6) (U.profs u));
  Alcotest.(check int)
    "every page wraps" (Websim.Site.page_count (U.site u))
    (check_site "mutated university" U.schema (U.site u))

(* ------------------------------------------------------------------ *)
(* Hand-written pages                                                  *)
(* ------------------------------------------------------------------ *)

let toy_scheme =
  Page_scheme.make "Toy"
    [
      Page_scheme.attr "Name" Webtype.Text;
      Page_scheme.attr "Count" Webtype.Int;
      Page_scheme.attr "Next" (Webtype.Link "Toy");
      Page_scheme.attr ~optional:true "Note" Webtype.Text;
      Page_scheme.attr "Items" (Webtype.List [ ("Label", Webtype.Text); ("To", Webtype.Link "Toy") ]);
    ]

let good_items =
  "<ul class=\"l-Items\"><li><span class=\"a-Label\">x</span><a class=\"a-To\" \
   href=\"/1\">1</a></li></ul>"

let page ?(name = "<span class=\"a-Name\">n</span>") ?(count = "<span class=\"a-Count\">3</span>")
    ?(next = "<a class=\"a-Next\" href=\"/n\">n</a>") ?(items = good_items) () =
  "<html><body>" ^ name ^ count ^ next ^ items ^ "</body></html>"

(* Malformed bodies, each with the exception and message both
   extractors must raise. *)
let malformed =
  [
    ( "missing required",
      page ~name:"" (),
      "Wrap_error",
      "page /t (Toy): missing non-optional attribute Name" );
    ("bad int", page ~count:"<span class=\"a-Count\">three</span>" (), "Wrap_error",
     "attribute Count: expected int, got \"three\"");
    ("link without href", page ~next:"<a class=\"a-Next\">n</a>" (), "Wrap_error",
     "attribute Next: link without href");
    ( "nested link without href",
      page ~items:"<ul class=\"l-Items\"><li><a class=\"a-To\">1</a></li></ul>" (),
      "Wrap_error",
      "attribute To: link without href" );
    (* errors come out in field order, a malformed field before a missing one *)
    ( "first error in field order",
      page ~name:"" ~count:"<span class=\"a-Count\">x</span>" ~next:"<a class=\"a-Next\">n</a>" (),
      "Wrap_error",
      "attribute Count: expected int, got \"x\"" );
    (* a parse error anywhere in the body wins over every wrapper error *)
    ("parse error after a wrapper error", page ~name:"" () ^ "<!-- unterminated", "Parse_error",
     "unterminated comment");
    ("unterminated attribute", page () ^ "<span class=\"a-Count>3</span>", "Parse_error",
     "unterminated attribute value");
    ("unterminated tag", page () ^ "<div class=x", "Parse_error", "unterminated tag");
    ("bad close tag", page ~name:"<span class=\"a-Name\">n</span x>" (), "Parse_error",
     "bad close tag </span");
    ("unterminated doctype", page () ^ "<!DOCTYPE html", "Parse_error", "unterminated doctype");
    ("bad attribute name", page ~name:"<span =\"a-Name\">n</span>" (), "Parse_error",
     "bad attribute name");
  ]

let test_malformed () =
  List.iter
    (fun (label, body, cls, msg) ->
      let want = Raised (cls, msg) in
      let got = run Websim.Wrapper.extract toy_scheme ~url:"/t" body in
      Alcotest.(check string) (label ^ ": streaming") (show want) (show got);
      Alcotest.(check string) (label ^ ": oracle") (show want)
        (show (run Dom.extract toy_scheme ~url:"/t" body)))
    malformed

let test_tricky_pages () =
  (* scoping, first match, text inside nested markup, entities,
     attributes in any case and order, stray and missing closes *)
  let bodies =
    [
      page ();
      page ~name:"<span class=\"a-Name\"><b>A</b> &amp; <i>B</i><!-- c --></span>" ();
      page ~name:"<div class=\"x a-Name  y\">first</div><span class=\"a-Name\">second</span>" ();
      page ~name:"<SPAN CLASS=\"a-Name\">up</SPAN>" ();
      page ~name:"<span class=\"a-Name\"><span class=\"a-Count\">7</span> name</span>" ~count:"" ();
      page ~items:"<ul class=\"l-Items\"><li><span class=\"a-Label\">a</span><a class=\"a-To\" href=\"/1\">1</a><li><span class=\"a-Label\">b</span><a href=\"/2\" class=\"a-To\">2</a></ul>" ();
      page ~items:"<ul class=\"l-Items\">junk<div><li>not an item</li></div><li></li></ul><ul class=\"l-Items\"><li>second list</li></ul>" ();
      page ~items:"<ol class=\"l-Items a-Name\"><li><span class=\"a-Label\">in</span></li></ol>" ~name:"" ();
      page ~items:"<div class=\"l-Other\"><span class=\"a-Label\">hidden</span></div>" ();
      page ~name:"</ul></li><span class=\"a-Name\">n</span></span>" ();
      page ~count:"<span class=\"a-Count\"> 4 </span>" () ^ "<div><p>";
      page ~name:"<span class=\"a-Name\">&#65;&#-1;&bogus;&lt</span>" ();
      page ~name:"<span class=a-Name>unquoted</span>" ();
      page ~next:"<a class=\"a-Next\" href=\"/x?a=1&amp;b=2\" href=\"/y\">n</a>" ();
      page ~name:"<span class=\"a-Name\" class=\"a-Count\">dup</span>" ();
      page ~name:"<span class=\"a-Name\">a<br/>b<img src=\"i.png\">c</span>" ();
      page ~name:"<span class=\"a-Name\">a < b</span>" ();
    ]
  in
  List.iteri
    (fun i body ->
      match agree toy_scheme ~url:(Printf.sprintf "/p%d" i) body with
      | Some diff -> Alcotest.fail diff
      | None -> ())
    bodies

(* </li> is optional: a list written without it extracts every item. *)
let test_unclosed_li () =
  let body =
    page
      ~items:
        "<ul class=\"l-Items\"><li><span class=\"a-Label\">one</span><a class=\"a-To\" \
         href=\"/1\">1</a><li><span class=\"a-Label\">two</span><a class=\"a-To\" \
         href=\"/2\">2</a><li><span class=\"a-Label\">three</span><a class=\"a-To\" \
         href=\"/3\">3</a></ul>"
      ()
  in
  let t = Websim.Wrapper.extract toy_scheme ~url:"/t" body in
  match Value.find t "Items" with
  | Some (Value.Rows rows) ->
    Alcotest.(check (list string))
      "every item" [ "one"; "two"; "three" ]
      (List.map (fun r -> Option.value ~default:"?" (Option.bind (Value.find r "Label") Value.as_text)) rows)
  | _ -> Alcotest.fail "items lost"

(* ------------------------------------------------------------------ *)
(* Robustness: corrupted real pages                                    *)
(* ------------------------------------------------------------------ *)

(* Real (page-scheme, url, body) triples: every page of the four
   default sites, with the scheme that wraps it. *)
let corpus =
  lazy
    (Array.of_list
       (List.concat_map
          (fun kind ->
            let s = Sitegen.Sites.load kind in
            List.concat_map
              (fun url ->
                match Websim.Site.find s.Sitegen.Sites.site url with
                | None -> []
                | Some page ->
                  List.filter_map
                    (fun ps ->
                      match Websim.Wrapper.extract ps ~url page.Websim.Site.body with
                      | _ -> Some (ps, url, page.Websim.Site.body)
                      | exception Websim.Wrapper.Wrap_error _ -> None)
                    (Schema.schemes s.schema))
              (Websim.Site.urls s.site))
          [ Sitegen.Sites.University; Bibliography; Catalog; Formsite ]))

(* Tag spans [(start, stop)] of a body: each '<' to its next '>'. *)
let tags body =
  let rec go i acc =
    match String.index_from_opt body i '<' with
    | None -> List.rev acc
    | Some s -> (
      match String.index_from_opt body s '>' with
      | None -> List.rev acc
      | Some e -> go (e + 1) ((s, e + 1) :: acc))
  in
  go 0 []

let splice body pos ins = String.sub body 0 pos ^ ins ^ String.sub body pos (String.length body - pos)

let uppercase_tag_names body =
  let b = Bytes.of_string body in
  List.iter
    (fun (s, e) ->
      let rec up i =
        if i < e then
          match Bytes.get b i with
          | ('a' .. 'z' | '/' | '!') as c ->
            Bytes.set b i (Char.uppercase_ascii c);
            up (i + 1)
          | _ -> ()
      in
      up (s + 1))
    (tags body);
  Bytes.to_string b

type corruption =
  | Cut of int
  | Drop_tag of int
  | Dup_tag of int
  | Stray_close of int * string
  | Open_comment of int
  | Open_attribute of int
  | Uppercase
  | Entity of int * string

let pp_corruption ppf = function
  | Cut n -> Fmt.pf ppf "cut at %d" n
  | Drop_tag n -> Fmt.pf ppf "drop tag %d" n
  | Dup_tag n -> Fmt.pf ppf "duplicate tag %d" n
  | Stray_close (n, t) -> Fmt.pf ppf "stray %s at %d" t n
  | Open_comment n -> Fmt.pf ppf "open comment at %d" n
  | Open_attribute n -> Fmt.pf ppf "unterminated attribute in tag %d" n
  | Uppercase -> Fmt.pf ppf "uppercase tag names"
  | Entity (n, e) -> Fmt.pf ppf "entity %s at %d" e n

(* Positions are drawn as raw integers and taken modulo the body or
   tag count when applied. *)
let apply body c =
  let n = String.length body in
  let at k = if n = 0 then 0 else abs k mod (n + 1) in
  let tag k f =
    match tags body with [] -> body | ts -> f (List.nth ts (abs k mod List.length ts))
  in
  match c with
  | Cut k -> String.sub body 0 (at k)
  | Drop_tag k -> tag k (fun (s, e) -> String.sub body 0 s ^ String.sub body e (n - e))
  | Dup_tag k -> tag k (fun (s, e) -> splice body e (String.sub body s (e - s)))
  | Stray_close (k, t) -> splice body (at k) t
  | Open_comment k -> splice body (at k) "<!-- "
  | Open_attribute k ->
    tag k (fun (s, e) ->
        match String.index_from_opt body s '"' with
        | Some q when q < e -> (
          match String.index_from_opt body (q + 1) '"' with
          | Some q' when q' < e -> String.sub body 0 q' ^ String.sub body (q' + 1) (n - q' - 1)
          | _ -> body)
        | _ -> body)
  | Uppercase -> uppercase_tag_names body
  | Entity (k, e) -> splice body (at k) e

let corruption_gen =
  let open QCheck.Gen in
  let pos = int_bound 100_000 in
  frequency
    [
      (2, map (fun k -> Cut k) pos);
      (2, map (fun k -> Drop_tag k) pos);
      (2, map (fun k -> Dup_tag k) pos);
      (2, map2 (fun k t -> Stray_close (k, t)) pos (oneofl [ "</ul>"; "</li>"; "</span>" ]));
      (1, map (fun k -> Open_comment k) pos);
      (1, map (fun k -> Open_attribute k) pos);
      (1, return Uppercase);
      ( 2,
        map2
          (fun k e -> Entity (k, e))
          pos
          (oneofl [ "&amp;"; "&lt;"; "&#65;"; "&#-3;"; "&#x41;"; "&bogus;"; "&"; "&nbsp;"; "&quot;x" ]) );
    ]

let case_gen = QCheck.Gen.(pair nat (list_size (int_range 1 3) corruption_gen))

let case_print (i, cs) =
  let corpus = Lazy.force corpus in
  let _, url, _ = corpus.(i mod Array.length corpus) in
  Fmt.str "%s, %a" url Fmt.(list ~sep:comma pp_corruption) cs

let robust seed =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "corrupted pages: streaming agrees with the DOM oracle (seed %d)" seed)
    (QCheck.make ~print:case_print case_gen)
    (fun (i, cs) ->
      let corpus = Lazy.force corpus in
      let ps, url, body = corpus.(i mod Array.length corpus) in
      let body = List.fold_left apply body cs in
      match agree ps ~url body with None -> true | Some diff -> QCheck.Test.fail_report diff)

let suite =
  ( "wrapper",
    [
      Alcotest.test_case "every page of the four sites" `Quick test_sites;
      Alcotest.test_case "join-plan university (1,228 pages)" `Quick test_join_plan_university;
      Alcotest.test_case "university after mutations" `Quick test_mutated_university;
      Alcotest.test_case "malformed fixtures raise alike" `Quick test_malformed;
      Alcotest.test_case "tricky pages" `Quick test_tricky_pages;
      Alcotest.test_case "list without </li> extracts every item" `Quick test_unclosed_li;
    ]
    @ List.map
        (fun seed -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) (robust seed))
        [ 7; 21; 42 ] )
