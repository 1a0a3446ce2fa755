(* Unit and property tests for Adm.Relation. *)

open Adm

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let v_t s = Value.text s
let v_i i = Value.Int i

let people =
  Relation.make [ "Name"; "Age"; "City" ]
    [
      [ ("Name", v_t "ada"); ("Age", v_i 36); ("City", v_t "london") ];
      [ ("Name", v_t "alan"); ("Age", v_i 41); ("City", v_t "london") ];
      [ ("Name", v_t "grace"); ("Age", v_i 85); ("City", v_t "arlington") ];
    ]

let cities =
  Relation.make [ "CName"; "Country" ]
    [
      [ ("CName", v_t "london"); ("Country", v_t "uk") ];
      [ ("CName", v_t "arlington"); ("Country", v_t "usa") ];
      [ ("CName", v_t "paris"); ("Country", v_t "france") ];
    ]

let nested =
  Relation.make [ "Dept"; "Profs" ]
    [
      [
        ("Dept", v_t "cs");
        ( "Profs",
          Value.Rows [ [ ("P", v_t "ada") ]; [ ("P", v_t "alan") ] ] );
      ];
      [ ("Dept", v_t "math"); ("Profs", Value.Rows [ [ ("P", v_t "grace") ] ]) ];
      [ ("Dept", v_t "empty"); ("Profs", Value.Rows []) ];
    ]

let test_make_pads () =
  let r = Relation.make [ "A"; "B" ] [ [ ("A", v_i 1) ] ] in
  match Relation.rows r with
  | [ t ] -> check bool_t "padded with Null" true (Value.find t "B" = Some Value.Null)
  | _ -> Alcotest.fail "expected one row"

let test_project () =
  let r = Relation.project [ "City" ] people in
  check int_t "distinct cities" 2 (Relation.cardinality r);
  check Alcotest.(list string) "header" [ "City" ] (Relation.attrs r);
  let r2 = Relation.project ~distinct_rows:false [ "City" ] people in
  check int_t "non-distinct keeps dups" 3 (Relation.cardinality r2)

let test_project_unknown () =
  Alcotest.check_raises "unknown attr"
    (Invalid_argument "Relation: unknown attribute \"Zed\" (have: Name, Age, City)")
    (fun () -> ignore (Relation.project [ "Zed" ] people))

let test_select () =
  let city = Option.get (Relation.offset_opt people "City") in
  let r = Relation.filter_rows (fun row -> Value.equal row.(city) (v_t "london")) people in
  check int_t "two londoners" 2 (Relation.cardinality r)

let test_equi_join () =
  let r = Relation.equi_join [ ("City", "CName") ] people cities in
  check int_t "joined rows" 3 (Relation.cardinality r);
  check bool_t "country attached" true
    (List.for_all (fun t -> Value.find t "Country" <> None) (Relation.rows r));
  check Alcotest.(list string) "header concat"
    [ "Name"; "Age"; "City"; "CName"; "Country" ]
    (Relation.attrs r)

let test_join_null_keys () =
  let with_null =
    Relation.make [ "Name"; "City" ] [ [ ("Name", v_t "x"); ("City", Value.Null) ] ]
  in
  let r = Relation.equi_join [ ("City", "CName") ] with_null cities in
  check int_t "null key never matches" 0 (Relation.cardinality r)

(* Regression: join keys are structural, not string-rendered — values
   of different types must never meet, even when they print alike. *)
let test_join_no_type_confusion () =
  let l =
    Relation.make [ "A" ]
      [ [ ("A", v_i 1) ]; [ ("A", v_t "1") ]; [ ("A", Value.link "1") ];
        [ ("A", Value.Bool true) ] ]
  in
  let join v =
    Relation.cardinality
      (Relation.equi_join [ ("A", "B") ] l (Relation.make [ "B" ] [ [ ("B", v) ] ]))
  in
  check int_t "Int 1 matches only Int 1" 1 (join (v_i 1));
  check int_t "Text \"1\" matches only Text \"1\"" 1 (join (v_t "1"));
  check int_t "Link \"1\" matches only Link \"1\"" 1 (join (Value.link "1"));
  check int_t "Text \"true\" matches nothing" 0 (join (v_t "true"))

let test_positional_access () =
  let r = Relation.of_arrays [ "A"; "B" ] [ [| v_i 1; v_t "x" |]; [| v_i 2; v_t "y" |] ] in
  check (Alcotest.option int_t) "offset" (Some 1) (Relation.offset_opt r "B");
  check (Alcotest.option int_t) "no offset" None (Relation.offset_opt r "Z");
  let f = Relation.filter_rows (fun row -> row.(0) = v_i 2) r in
  check int_t "filter_rows" 1 (Relation.cardinality f);
  check bool_t "rows round-trip" true
    (Relation.equal r (Relation.make [ "A"; "B" ] (Relation.rows r)));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Relation.of_arrays: row has 1 slots, header has 2")
    (fun () -> ignore (Relation.of_arrays [ "A"; "B" ] [ [| v_i 1 |] ]))

let test_join_ambiguous () =
  Alcotest.check_raises "ambiguous attribute"
    (Invalid_argument "Relation.equi_join: ambiguous attribute \"Name\"")
    (fun () -> ignore (Relation.equi_join [ ("Age", "Age") ]
                         people
                         (Relation.make [ "Name"; "Age" ] [])))

let test_unnest () =
  let r = Relation.unnest "Profs" nested in
  check int_t "unnested rows" 3 (Relation.cardinality r);
  check bool_t "inner attr qualified" true (Relation.has_attr r "Profs.P");
  check bool_t "list attr gone" false (Relation.has_attr r "Profs");
  (* empty lists drop their parent, as in the standard unnest *)
  check bool_t "empty dept gone" true
    (List.for_all
       (fun t -> Value.find t "Dept" <> Some (v_t "empty"))
       (Relation.rows r))

let test_unnest_non_list () =
  Alcotest.check_raises "unnest of atom"
    (Invalid_argument "Relation.unnest: attribute \"Name\" is text, not nested rows")
    (fun () -> ignore (Relation.unnest "Name" people))

let test_rename_prefix () =
  let p = Relation.prefix_attrs "P" people in
  check Alcotest.(list string) "prefixed" [ "P.Name"; "P.Age"; "P.City" ]
    (Relation.attrs p)

let test_distinct_count_column () =
  check int_t "distinct cities" 2 (Relation.cardinality (Relation.project [ "City" ] people));
  check int_t "column length" 3 (List.length (Relation.column "Age" people))

let test_unnest_expect_keeps_header () =
  let empty = Relation.make [ "Dept"; "Profs" ] [] in
  let r = Relation.unnest ~expect:[ "Profs.P" ] "Profs" empty in
  check bool_t "expected attr in header" true (Relation.has_attr r "Profs.P")

let test_equal_modulo_order () =
  let r1 = Relation.make [ "A" ] [ [ ("A", v_i 1) ]; [ ("A", v_i 2) ] ] in
  let r2 = Relation.make [ "A" ] [ [ ("A", v_i 2) ]; [ ("A", v_i 1) ] ] in
  check bool_t "order-insensitive equal" true (Relation.equal r1 r2)

(* Streaming interface: the row sequences the cursor executor is
   built on must round-trip losslessly through a relation. *)

let test_seq_roundtrip () =
  let back = Relation.of_seq (Relation.attrs people) (Relation.to_seq people) in
  check bool_t "of_seq ∘ to_seq = id" true (Relation.equal people back)

let test_of_seq_empty_keeps_header () =
  let r = Relation.of_seq [ "A"; "B" ] Seq.empty in
  check int_t "no rows" 0 (Relation.cardinality r);
  check bool_t "header kept" true (Relation.has_attr r "B")

(* Properties. *)

let small_rel_gen =
  QCheck.Gen.(
    let row = map (fun (a, b) -> [ ("A", Value.Int a); ("B", Value.Int b) ])
        (pair (int_bound 5) (int_bound 5)) in
    map (Relation.make [ "A"; "B" ]) (list_size (int_bound 15) row))

let small_rel_arb = QCheck.make ~print:(Fmt.str "%a" Relation.pp) small_rel_gen

let prop_distinct_idempotent =
  QCheck.Test.make ~name:"distinct is idempotent" ~count:200 small_rel_arb (fun r ->
      let d = Relation.distinct r in
      Relation.cardinality (Relation.distinct d) = Relation.cardinality d)

let prop_project_shrinks =
  QCheck.Test.make ~name:"projection never grows" ~count:200 small_rel_arb (fun r ->
      Relation.cardinality (Relation.project [ "A" ] r) <= max 1 (Relation.cardinality r))

let prop_join_self_key =
  QCheck.Test.make ~name:"self equi-join on key superset of distinct" ~count:200
    small_rel_arb (fun r ->
      let d = Relation.distinct r in
      let j =
        Relation.equi_join [ ("A", "R.A"); ("B", "R.B") ] d (Relation.prefix_attrs "R" d)
      in
      Relation.cardinality j = Relation.cardinality d)

let prop_select_monotone =
  QCheck.Test.make ~name:"selection never grows" ~count:200 small_rel_arb (fun r ->
      Relation.cardinality (Relation.filter_rows (fun row -> Value.equal row.(0) (Value.Int 1)) r)
      <= Relation.cardinality r)

let suite =
  ( "relation",
    [
      Alcotest.test_case "make pads" `Quick test_make_pads;
      Alcotest.test_case "project" `Quick test_project;
      Alcotest.test_case "project unknown" `Quick test_project_unknown;
      Alcotest.test_case "select" `Quick test_select;
      Alcotest.test_case "equi join" `Quick test_equi_join;
      Alcotest.test_case "join null keys" `Quick test_join_null_keys;
      Alcotest.test_case "join no type confusion" `Quick test_join_no_type_confusion;
      Alcotest.test_case "positional access" `Quick test_positional_access;
      Alcotest.test_case "join ambiguous" `Quick test_join_ambiguous;
      Alcotest.test_case "unnest" `Quick test_unnest;
      Alcotest.test_case "unnest non-list" `Quick test_unnest_non_list;
      Alcotest.test_case "rename/prefix" `Quick test_rename_prefix;
      Alcotest.test_case "distinct count/column" `Quick test_distinct_count_column;
      Alcotest.test_case "unnest expect" `Quick test_unnest_expect_keeps_header;
      Alcotest.test_case "equal modulo order" `Quick test_equal_modulo_order;
      Alcotest.test_case "seq roundtrip" `Quick test_seq_roundtrip;
      Alcotest.test_case "of_seq empty header" `Quick test_of_seq_empty_keeps_header;
      QCheck_alcotest.to_alcotest prop_distinct_idempotent;
      QCheck_alcotest.to_alcotest prop_project_shrinks;
      QCheck_alcotest.to_alcotest prop_join_self_key;
      QCheck_alcotest.to_alcotest prop_select_monotone;
    ] )
