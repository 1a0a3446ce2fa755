(* Tests for the HTML toolkit. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let test_escape_roundtrip () =
  let s = "a < b & c > \"d\"" in
  check string_t "unescape of escape" s (Html.unescape (Html.escape s))

let test_entities () =
  check string_t "known entities" "< > & \" '"
    (Html.unescape "&lt; &gt; &amp; &quot; &apos;");
  check string_t "numeric entity" "A" (Html.unescape "&#65;");
  check string_t "unknown entity kept" "&zzz;" (Html.unescape "&zzz;")

let test_tokenize_basic () =
  match Html.tokenize "<p class=\"x\">hi</p>" with
  | [ Html.Tok_open ("p", [ ("class", "x") ], false); Html.Tok_text "hi"; Html.Tok_close "p" ]
    -> ()
  | toks -> Alcotest.failf "unexpected tokens (%d)" (List.length toks)

let test_tokenize_unquoted_attr () =
  match Html.tokenize "<a href=/x.html>go</a>" with
  | [ Html.Tok_open ("a", [ ("href", "/x.html") ], false); _; _ ] -> ()
  | _ -> Alcotest.fail "unquoted attribute not handled"

let test_tokenize_comment_doctype () =
  match Html.tokenize "<!DOCTYPE html><!-- note -->x" with
  | [ Html.Tok_doctype _; Html.Tok_comment " note "; Html.Tok_text "x" ] -> ()
  | _ -> Alcotest.fail "comment/doctype mishandled"

let test_parse_nesting () =
  let doc = Html.parse "<div><ul><li>a</li><li>b</li></ul></div>" in
  check int_t "list items" 2 (List.length (Html.by_tag "li" doc))

let test_parse_void_elements () =
  let doc = Html.parse "<p>a<br>b<img src=\"x.png\">c</p>" in
  check int_t "one paragraph" 1 (List.length (Html.by_tag "p" doc));
  check int_t "one br" 1 (List.length (Html.by_tag "br" doc));
  check string_t "text preserved" "abc"
    (String.concat "" (List.map Html.inner_text (Html.by_tag "p" doc)))

let test_parse_implicit_close () =
  (* unclosed <li>: browsers close it implicitly at end of input *)
  let doc = Html.parse "<ul><li>a<li>b</ul>" in
  check bool_t "parses without exception" true (List.length doc > 0);
  let text = String.concat "" (List.map Html.inner_text doc) in
  check string_t "text survives" "ab" text

let test_parse_li_closes_li () =
  (* </li> is optional: an li start tag closes the open li of its list *)
  let li text = Html.Element ("li", [], [ Html.Text text ]) in
  check bool_t "siblings, not nested" true
    (Html.parse "<ul class=\"l-L\"><li>1<li>2</ul>"
    = [ Html.Element ("ul", [ ("class", "l-L") ], [ li "1"; li "2" ]) ]);
  (* only up to the nearest enclosing list: an inner list's items stay inside *)
  check bool_t "nested lists" true
    (Html.parse "<ul><li>a<ul><li>b<li>c</ul><li>d</ul>"
    = [
        Html.Element
          ( "ul",
            [],
            [
              Html.Element ("li", [], [ Html.Text "a"; Html.Element ("ul", [], [ li "b"; li "c" ]) ]);
              li "d";
            ] );
      ]);
  (* open elements inside the li close with it *)
  check bool_t "closes through a div" true
    (Html.parse "<ol><li><div>x<li>y</ol>"
    = [ Html.Element ("ol", [], [ Html.Element ("li", [], [ Html.Element ("div", [], [ Html.Text "x" ]) ]); li "y" ]) ])

let test_tokenize_uppercase () =
  match Html.tokenize "<DIV Class=\"A&amp;B\">x</Div>" with
  | [ Html.Tok_open ("div", [ ("class", "A&B") ], false); Html.Tok_text "x"; Html.Tok_close "div" ] -> ()
  | _ -> Alcotest.fail "names not lowercased or value not unescaped"

let test_negative_entity () =
  (* a negative character reference is not an entity; it stays literal *)
  check string_t "kept" "&#-5;" (Html.unescape "&#-5;")

(* The scanner's events are balanced and walk the tree parse builds,
   whatever the recovery rules had to do. *)
let test_scan_balanced () =
  let body = "</p><div><ul><li>a<li>b</span></div><br><img src=x/>c<p>d" in
  let depth = ref 0 and enters = ref 0 and texts = Buffer.create 8 in
  Html.scan
    {
      Html.enter = (fun _ _ -> incr depth; incr enters);
      leave = (fun () -> decr depth);
      text = (fun s pos len -> Buffer.add_string texts (String.sub s pos len));
      comment = (fun _ _ _ -> ());
    }
    body;
  check int_t "balanced" 0 !depth;
  let doc = Html.parse body in
  check int_t "one enter per element" (List.length (Html.find_all (fun n -> Html.tag n <> None) doc)) !enters;
  check string_t "text in order" (String.concat "" (List.map Html.inner_text doc)) (Buffer.contents texts)

let test_parse_stray_close () =
  let doc = Html.parse "</div><p>ok</p>" in
  check int_t "stray close ignored" 1 (List.length (Html.by_tag "p" doc))

let test_roundtrip_print_parse () =
  let doc = Html.parse "<div class=\"c\"><span>x &amp; y</span></div>" in
  let printed = Html.to_string doc in
  let doc2 = Html.parse printed in
  check string_t "stable print" printed (Html.to_string doc2)

let test_queries () =
  let doc =
    Html.parse
      "<div class=\"a b\"><p class=\"a\">one</p><p>two</p><a href=\"/x\">l</a></div>"
  in
  check int_t "by_class a" 2 (List.length (Html.by_class "a" doc));
  check int_t "by_tag_class" 1 (List.length (Html.by_tag_class "p" "a" doc));
  (match Html.find_first (Html.has_class "b") doc with
  | Some node -> check bool_t "classes" true (Html.classes node = [ "a"; "b" ])
  | None -> Alcotest.fail "find_first failed");
  match Html.by_tag "a" doc with
  | [ a ] -> check (Alcotest.option string_t) "href" (Some "/x") (Html.attr "href" a)
  | _ -> Alcotest.fail "anchor not found"

let test_inner_text_deep () =
  let doc = Html.parse "<div>a<span>b<i>c</i></span>d</div>" in
  check string_t "deep text" "abcd"
    (String.concat "" (List.map Html.inner_text doc))

let test_doc_to_string () =
  let s = Html.doc_to_string ~title:"T" [ Html.Text "body" ] in
  check bool_t "has doctype" true (String.length s > 15 && String.sub s 0 15 = "<!DOCTYPE html>");
  let doc = Html.parse s in
  check int_t "title parsed" 1 (List.length (Html.by_tag "title" doc))

let test_node_count () =
  let doc = Html.parse "<div><p>a</p><p>b</p></div>" in
  (* div + 2 p + 2 text *)
  check int_t "node count" 5 (Html.node_count doc)

(* Properties: printing then parsing a generated tree is stable. *)

(* Trees HTML can express: an [li] start tag closes an open [li] up to
   the nearest [ul]/[ol], so no [li] sits inside another [li] without a
   list between them. *)
let tree_gen =
  let open QCheck.Gen in
  let text = map (fun s -> Html.Text s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  sized_size (int_bound 3) @@ fun size ->
  fix (fun self (n, li_ok) ->
      if n = 0 then text
      else
        frequency
          [
            (2, text);
            ( 3,
              oneofl ([ "div"; "span"; "p"; "ul" ] @ if li_ok then [ "li" ] else [])
              >>= fun name ->
              let li_ok = match name with "ul" -> true | "li" -> false | _ -> li_ok in
              map
                (fun children -> Html.Element (name, [], children))
                (list_size (int_bound 4) (self (n - 1, li_ok))) );
          ])
    (size, true)

let tree_arb = QCheck.make ~print:(fun n -> Html.to_string [ n ]) tree_gen

let prop_print_parse_stable =
  QCheck.Test.make ~name:"print ∘ parse stable on generated trees" ~count:200 tree_arb
    (fun node ->
      let printed = Html.to_string [ node ] in
      String.equal printed (Html.to_string (Html.parse printed)))

let prop_inner_text_preserved =
  QCheck.Test.make ~name:"inner text survives print/parse" ~count:200 tree_arb
    (fun node ->
      let printed = Html.to_string [ node ] in
      String.equal (Html.inner_text node)
        (String.concat "" (List.map Html.inner_text (Html.parse printed))))

let suite =
  ( "html",
    [
      Alcotest.test_case "escape roundtrip" `Quick test_escape_roundtrip;
      Alcotest.test_case "entities" `Quick test_entities;
      Alcotest.test_case "tokenize basic" `Quick test_tokenize_basic;
      Alcotest.test_case "tokenize unquoted attr" `Quick test_tokenize_unquoted_attr;
      Alcotest.test_case "tokenize comment/doctype" `Quick test_tokenize_comment_doctype;
      Alcotest.test_case "parse nesting" `Quick test_parse_nesting;
      Alcotest.test_case "parse void elements" `Quick test_parse_void_elements;
      Alcotest.test_case "parse implicit close" `Quick test_parse_implicit_close;
      Alcotest.test_case "parse stray close" `Quick test_parse_stray_close;
      Alcotest.test_case "parse li closes open li" `Quick test_parse_li_closes_li;
      Alcotest.test_case "tokenize uppercase names" `Quick test_tokenize_uppercase;
      Alcotest.test_case "negative entity literal" `Quick test_negative_entity;
      Alcotest.test_case "scan events balanced" `Quick test_scan_balanced;
      Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip_print_parse;
      Alcotest.test_case "queries" `Quick test_queries;
      Alcotest.test_case "inner text deep" `Quick test_inner_text_deep;
      Alcotest.test_case "doc_to_string" `Quick test_doc_to_string;
      Alcotest.test_case "node count" `Quick test_node_count;
      QCheck_alcotest.to_alcotest prop_print_parse_stable;
      QCheck_alcotest.to_alcotest prop_inner_text_preserved;
    ] )
