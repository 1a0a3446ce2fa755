(* Additional front-end coverage: every comparison operator end to
   end, AS aliases, numeric literals, whitespace laxity, operator
   precedence of the raw parser, and the rule-6 operator-preservation
   regression (a >= pushed across a link constraint must stay >=). *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let catalog_records = Sitegen.Catalog.build ()
let catalog = Sitegen.Sites.of_catalog catalog_records
let registry = catalog.registry
let instance = lazy (Sitegen.Sites.crawl catalog)

let run sql =
  let source = Eval.instance_source (Lazy.force instance) in
  let _, result =
    Planner.run catalog.schema (Sitegen.Sites.stats catalog) registry source sql
  in
  result

let ground_truth pred =
  List.length (List.filter pred (Sitegen.Catalog.products catalog_records))

let test_every_comparison_operator () =
  let price op (p : Sitegen.Catalog.product) = op p.Sitegen.Catalog.price 100 in
  let cases =
    [
      ("=", price ( = ));
      ("<>", price ( <> ));
      ("<", price ( < ));
      ("<=", price ( <= ));
      (">", price ( > ));
      (">=", price ( >= ));
    ]
  in
  List.iter
    (fun (op, pred) ->
      let sql = Fmt.str "SELECT p.PName FROM Product p WHERE p.Price %s 100" op in
      check int_t (Fmt.str "operator %s" op) (ground_truth pred)
        (Adm.Relation.cardinality (run sql)))
    cases

let test_as_alias () =
  let q = Sql_parser.parse registry "SELECT x.PName FROM Product AS x" in
  check int_t "one source" 1 (List.length q.Conjunctive.from);
  check bool_t "alias applied" true
    (match q.Conjunctive.from with
    | [ s ] -> String.equal s.Conjunctive.alias "x"
    | _ -> false)

let test_whitespace_and_case () =
  let r =
    run "select   p.PName\n FROM\tProduct p WHERE p.Brand = 'Acme'"
  in
  check bool_t "keywords case-insensitive, whitespace free" true
    (Adm.Relation.cardinality r > 0)

let test_bang_equals () =
  let r1 = run "SELECT p.PName FROM Product p WHERE p.Brand != 'Acme'" in
  let r2 = run "SELECT p.PName FROM Product p WHERE p.Brand <> 'Acme'" in
  check int_t "!= is <>" (Adm.Relation.cardinality r2) (Adm.Relation.cardinality r1)

let test_rule6_preserves_comparison () =
  (* regression: a range predicate on a replicated attribute crossing
     a link constraint must keep its operator. BrandName is replicated
     from BrandPage; use a lexicographic >= on it *)
  let r = run "SELECT p.PName FROM Product p WHERE p.Brand >= 'Hooli'" in
  let expected =
    ground_truth (fun p -> String.compare p.Sitegen.Catalog.brand "Hooli" >= 0)
  in
  check int_t "range across link constraint" expected (Adm.Relation.cardinality r)

let test_empty_result_queries () =
  check int_t "impossible equality" 0
    (Adm.Relation.cardinality (run "SELECT p.PName FROM Product p WHERE p.Brand = 'NoSuch'"));
  check int_t "contradiction" 0
    (Adm.Relation.cardinality
       (run "SELECT p.PName FROM Product p WHERE p.Brand = 'Acme' AND p.Brand = 'Globex'"))

let test_cross_relation_condition () =
  (* a join between Product and Brand through the name *)
  let r =
    run
      "SELECT p.PName, b.BrandName FROM Product p, Brand b \
       WHERE p.Brand = b.BrandName AND b.BrandName = 'Stark'"
  in
  check int_t "join matches ground truth"
    (ground_truth (fun p -> String.equal p.Sitegen.Catalog.brand "Stark"))
    (Adm.Relation.cardinality r)

let test_parse_raw_shapes () =
  let raw = Sql_parser.parse_raw "SELECT a.X, Y FROM R, S s WHERE a.X < 3 AND Y = 'z'" in
  check int_t "two columns" 2
    (match raw.Sql_parser.raw_select with Some cs -> List.length cs | None -> -1);
  check bool_t "from aliases" true
    (raw.Sql_parser.raw_from = [ ("R", "R"); ("S", "s") ]);
  check int_t "two conditions" 2 (List.length raw.Sql_parser.raw_where)

let suite =
  ( "sql-extra",
    [
      Alcotest.test_case "every comparison operator" `Quick test_every_comparison_operator;
      Alcotest.test_case "AS alias" `Quick test_as_alias;
      Alcotest.test_case "whitespace and case" `Quick test_whitespace_and_case;
      Alcotest.test_case "!= synonym" `Quick test_bang_equals;
      Alcotest.test_case "rule 6 preserves comparison" `Quick test_rule6_preserves_comparison;
      Alcotest.test_case "empty results" `Quick test_empty_result_queries;
      Alcotest.test_case "cross-relation condition" `Quick test_cross_relation_condition;
      Alcotest.test_case "parse_raw shapes" `Quick test_parse_raw_shapes;
    ] )
