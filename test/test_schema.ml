(* Tests for web types, page-schemes, constraints and schemas. *)

open Adm

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let uni = (Sitegen.Sites.load University).schema

let test_webtype_accepts () =
  check bool_t "text ok" true (Webtype.accepts Webtype.Text (Value.text "x"));
  check bool_t "null ok everywhere" true (Webtype.accepts Webtype.Int Value.Null);
  check bool_t "int rejects text" false (Webtype.accepts Webtype.Int (Value.text "x"));
  check bool_t "link ok" true (Webtype.accepts (Webtype.Link "P") (Value.link "/x"));
  let listy = Webtype.List [ ("A", Webtype.Text) ] in
  check bool_t "list ok" true
    (Webtype.accepts listy (Value.Rows [ [ ("A", Value.text "v") ] ]));
  check bool_t "list rejects extra attr" false
    (Webtype.accepts listy (Value.Rows [ [ ("A", Value.text "v"); ("B", Value.Int 1) ] ]))

let test_webtype_resolve () =
  let fields =
    [ ("X", Webtype.Text); ("L", Webtype.List [ ("Y", Webtype.Link "P") ]) ]
  in
  check bool_t "top resolve" true (Webtype.resolve_in_fields fields [ "X" ] = Some Webtype.Text);
  check bool_t "nested resolve" true
    (Webtype.resolve_in_fields fields [ "L"; "Y" ] = Some (Webtype.Link "P"));
  check bool_t "missing" true (Webtype.resolve_in_fields fields [ "Z" ] = None);
  check bool_t "through atom fails" true (Webtype.resolve_in_fields fields [ "X"; "Y" ] = None)

let test_page_scheme_basics () =
  let ps = Schema.find_scheme_exn uni "ProfPage" in
  check string_t "name" "ProfPage" (Page_scheme.name ps);
  check bool_t "not entry" false (Page_scheme.is_entry_point ps);
  check bool_t "resolve Rank" true (Page_scheme.resolve_path ps [ "Rank" ] = Some Webtype.Text);
  check bool_t "resolve nested link" true
    (Page_scheme.resolve_path ps [ "CourseList"; "ToCourse" ] = Some (Webtype.Link "CoursePage"));
  let links = Page_scheme.link_paths ps in
  check int_t "two link paths" 2 (List.length links);
  check bool_t "link targets" true
    (List.mem ([ "ToDept" ], "DeptPage") links
    && List.mem ([ "CourseList"; "ToCourse" ], "CoursePage") links)

let test_page_scheme_url_reserved () =
  Alcotest.check_raises "URL reserved"
    (Invalid_argument "Page_scheme.make: URL is implicit and reserved")
    (fun () -> ignore (Page_scheme.make "P" [ Page_scheme.attr "URL" Webtype.Text ]))

let test_validate_tuple () =
  let ps = Schema.find_scheme_exn uni "DeptPage" in
  let good =
    [
      ("URL", Value.link "/d.html");
      ("DName", Value.text "CS");
      ("Address", Value.text "1 Road");
      ("ProfList", Value.Rows []);
    ]
  in
  check int_t "valid tuple" 0 (List.length (Page_scheme.validate_tuple ps good));
  let missing = Value.remove good "Address" in
  check bool_t "missing attr caught" true (Page_scheme.validate_tuple ps missing <> []);
  let bad_type = Value.set good "DName" (Value.Rows []) in
  check bool_t "bad type caught" true (Page_scheme.validate_tuple ps bad_type <> []);
  let unknown = Value.set good "Zed" (Value.text "x") in
  check bool_t "unknown attr caught" true (Page_scheme.validate_tuple ps unknown <> [])

let test_paths () =
  let p = Constraints.path_of_string "ProfPage.CourseList.ToCourse" in
  check string_t "scheme" "ProfPage" p.Constraints.scheme;
  check Alcotest.(list string_t) "steps" [ "CourseList"; "ToCourse" ] p.Constraints.steps;
  check string_t "roundtrip" "ProfPage.CourseList.ToCourse" (Constraints.path_to_string p);
  Alcotest.check_raises "no steps"
    (Invalid_argument "Constraints.path_of_string: \"ProfPage\"") (fun () ->
      ignore (Constraints.path_of_string "ProfPage"))

let test_schema_validates () =
  check Alcotest.(list string_t) "university scheme well-formed" []
    (Schema.validate uni);
  check Alcotest.(list string_t) "bibliography scheme well-formed" []
    (Schema.validate (Sitegen.Sites.load Bibliography).schema)

let test_entry_points () =
  let names = List.map Page_scheme.name (Schema.entry_points uni) in
  check int_t "four entry points" 4 (List.length names);
  check bool_t "home is entry" true (List.mem "HomePage" names)

let test_inclusion_closure () =
  let p = Constraints.path in
  check bool_t "declared inclusion" true
    (Schema.inclusion_holds uni
       ~sub:(p "DeptPage" [ "ProfList"; "ToProf" ])
       ~sup:(p "ProfListPage" [ "ProfList"; "ToProf" ]));
  check bool_t "reflexive" true
    (Schema.inclusion_holds uni
       ~sub:(p "CoursePage" [ "ToProf" ])
       ~sup:(p "CoursePage" [ "ToProf" ]));
  check bool_t "not derivable" false
    (Schema.inclusion_holds uni
       ~sub:(p "ProfListPage" [ "ProfList"; "ToProf" ])
       ~sup:(p "DeptPage" [ "ProfList"; "ToProf" ]))

let test_inclusion_transitive () =
  (* build a small schema with A ⊆ B, B ⊆ C *)
  let p = Constraints.path in
  let ps name entry =
    Page_scheme.make ?entry_url:entry name
      [ Page_scheme.attr "L" (Webtype.Link "T") ]
  in
  let target = Page_scheme.make "T" [ Page_scheme.attr "X" Webtype.Text ] in
  let s =
    Schema.make ~name:"chain"
      ~schemes:[ ps "A" (Some "/a"); ps "B" (Some "/b"); ps "C" (Some "/c"); target ]
      ~link_constraints:[]
      ~inclusions:
        [
          Constraints.inclusion ~sub:(p "A" [ "L" ]) ~sup:(p "B" [ "L" ]);
          Constraints.inclusion ~sub:(p "B" [ "L" ]) ~sup:(p "C" [ "L" ]);
        ]
  in
  check bool_t "transitive" true
    (Schema.inclusion_holds s ~sub:(p "A" [ "L" ]) ~sup:(p "C" [ "L" ]));
  check bool_t "not symmetric" false
    (Schema.inclusion_holds s ~sub:(p "C" [ "L" ]) ~sup:(p "A" [ "L" ]))

let test_schema_validate_catches () =
  let bad =
    Schema.make ~name:"bad"
      ~schemes:[ Page_scheme.make "P" [ Page_scheme.attr "A" Webtype.Text ] ]
      ~link_constraints:
        [
          Constraints.link_constraint
            ~link:(Constraints.path "P" [ "A" ])
            ~source_attr:(Constraints.path "P" [ "A" ])
            ~target_scheme:"Q" ~target_attr:"B";
        ]
      ~inclusions:[]
  in
  check bool_t "bad constraint caught" true (Schema.validate bad <> [])

let test_constraints_on_link () =
  let link = Constraints.path "SessionPage" [ "CourseList"; "ToCourse" ] in
  let cs = Schema.constraints_on_link uni link in
  check int_t "two constraints on the link" 2 (List.length cs);
  check bool_t "targets CoursePage" true
    (List.for_all
       (fun (c : Constraints.link_constraint) -> String.equal c.target_scheme "CoursePage")
       cs)

let test_link_target () =
  check (Alcotest.option string_t) "link target" (Some "CoursePage")
    (Schema.link_target uni (Constraints.path "ProfPage" [ "CourseList"; "ToCourse" ]));
  check (Alcotest.option string_t) "non-link" None
    (Schema.link_target uni (Constraints.path "ProfPage" [ "Rank" ]))

let test_instance_validation_negative () =
  (* a dangling link and a violated link constraint are both caught *)
  let p = Constraints.path in
  let src =
    Page_scheme.make ~entry_url:"/s" "S"
      [ Page_scheme.attr "A" Webtype.Text; Page_scheme.attr "L" (Webtype.Link "T") ]
  in
  let tgt = Page_scheme.make "T" [ Page_scheme.attr "B" Webtype.Text ] in
  let s =
    Schema.make ~name:"mini" ~schemes:[ src; tgt ]
      ~link_constraints:
        [
          Constraints.link_constraint ~link:(p "S" [ "L" ]) ~source_attr:(p "S" [ "A" ])
            ~target_scheme:"T" ~target_attr:"B";
        ]
      ~inclusions:[]
  in
  let s_rel =
    Relation.make [ "URL"; "A"; "L" ]
      [ [ ("URL", Value.link "/s"); ("A", Value.text "x"); ("L", Value.link "/t") ] ]
  in
  let t_rel_bad =
    Relation.make [ "URL"; "B" ]
      [ [ ("URL", Value.link "/t"); ("B", Value.text "y") ] ]
  in
  let lookup tbl name = List.assoc_opt name tbl in
  check bool_t "violation caught" true
    (Schema.validate_instance s (lookup [ ("S", s_rel); ("T", t_rel_bad) ]) <> []);
  let t_rel_good =
    Relation.make [ "URL"; "B" ]
      [ [ ("URL", Value.link "/t"); ("B", Value.text "x") ] ]
  in
  check Alcotest.(list string_t) "good instance passes" []
    (Schema.validate_instance s (lookup [ ("S", s_rel); ("T", t_rel_good) ]))

let suite =
  ( "schema",
    [
      Alcotest.test_case "webtype accepts" `Quick test_webtype_accepts;
      Alcotest.test_case "webtype resolve" `Quick test_webtype_resolve;
      Alcotest.test_case "page-scheme basics" `Quick test_page_scheme_basics;
      Alcotest.test_case "URL reserved" `Quick test_page_scheme_url_reserved;
      Alcotest.test_case "validate tuple" `Quick test_validate_tuple;
      Alcotest.test_case "constraint paths" `Quick test_paths;
      Alcotest.test_case "schemas well-formed" `Quick test_schema_validates;
      Alcotest.test_case "entry points" `Quick test_entry_points;
      Alcotest.test_case "inclusion closure" `Quick test_inclusion_closure;
      Alcotest.test_case "inclusion transitive" `Quick test_inclusion_transitive;
      Alcotest.test_case "schema validate catches" `Quick test_schema_validate_catches;
      Alcotest.test_case "constraints on link" `Quick test_constraints_on_link;
      Alcotest.test_case "link target" `Quick test_link_target;
      Alcotest.test_case "instance validation" `Quick test_instance_validation_negative;
    ] )
