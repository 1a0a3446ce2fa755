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

(* ------------------------------------------------------------------ *)
(* The front end never raises                                          *)
(* ------------------------------------------------------------------ *)

(* One input through the lint-then-plan path of the CLI's query and
   plan commands: a plan, or coded diagnostics — the lint gate's
   errors, or E0309 for a plan space the gate did not foresee empty. *)
let front_end (site : Sitegen.Sites.t) sql =
  let ds = Sitegen.Sites.lint_query site sql in
  if Diagnostic.has_errors ds then Error ds
  else
    match
      Planner.plan_sql ?bindings:(Sitegen.Sites.bindings site) site.schema
        (Sitegen.Sites.stats site) site.registry sql
    with
    | o -> Ok o
    | exception Invalid_argument msg ->
      Error [ Diagnostic.error ~code:"E0309" "planning failed: %s" msg ]

(* A query as tokens: quoted strings, words (qualified names such as
   [p.PName] are one word), comparison operators and single
   punctuation characters. *)
let tokens sql =
  let n = String.length sql in
  let word c =
    c = '_' || c = '@' || c = '.'
    || (c >= '0' && c <= '9')
    || (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
  in
  let op c = c = '<' || c = '>' || c = '=' || c = '!' in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let c = sql.[i] in
      let span p =
        let rec stop j = if j < n && p sql.[j] then stop (j + 1) else j in
        stop (i + 1)
      in
      if c = ' ' then go (i + 1) acc
      else
        let j =
          if c = '\'' then
            match String.index_from_opt sql (i + 1) '\'' with Some j -> j + 1 | None -> n
          else if word c then span word
          else if op c then span op
          else i + 1
        in
        go j (String.sub sql i (j - i) :: acc)
  in
  go 0 []

(* Tokens the lexer, the parser and the lint gate meet in and out of
   place. *)
let vocabulary =
  [
    "SELECT"; "FROM"; "WHERE"; "AND"; "AS"; "select"; ","; "."; "*"; "("; ")"; "=";
    "!="; "<>"; "<"; "<="; ">"; ">="; "=="; ";"; "#"; "\""; "'"; "'x"; "''";
    "'Computer Science'"; "'Fall'"; "0"; "42"; "-1"; "3.5"; "99999999999999999999";
    "4611686018427387904"; "Professor"; "Course"; "ProfDept"; "CourseInstructor";
    "Product"; "Dept"; "Nope"; "p"; "c"; "d"; "ci"; "x"; "p.PName"; "p.Email"; "PName";
    "Rank"; "DName"; "CName"; "Session"; "Price"; "Brand"; "p.Nope"; "q.PName"; "URL";
    "LIMIT"; "_"; "@"; "\xc3\xa9";
  ]

(* Tokens that can stand where a constant or a column stands, so a
   mutated query often still parses and reaches the planner. *)
let operands =
  [
    "'x'"; "''"; "'Computer Science'"; "'Graduate'"; "0"; "42"; "99999999999999999999";
    "p.PName"; "p.Email"; "p.Rank"; "p.Nope"; "c.CName"; "c.Session"; "d.DName";
    "ci.PName"; "pd.DName"; "p.Price"; "p.Brand"; "x.PName";
  ]

type input = Tokens of string list | Truncated of int * int | Mutated of int * mutation

and mutation =
  | Delete of int
  | Replace of int * string
  | Insert of int * string
  | Swap of int
  | Operand of int * string
      (** the [k]-th constant or qualified column replaced *)

let pins = Array.of_list Pins.cases

let pin i =
  let _, site, sql = pins.(i mod Array.length pins) in
  (site, sql)

let is_operand t =
  String.length t > 0 && (t.[0] = '\'' || String.contains t '.' || (t.[0] >= '0' && t.[0] <= '9'))

let mutate toks = function
  | Operand (k, t) ->
    let spots = List.length (List.filter is_operand toks) in
    let k = k mod max 1 spots in
    let seen = ref (-1) in
    List.map
      (fun x ->
        if is_operand x then begin
          incr seen;
          if !seen = k then t else x
        end
        else x)
      toks
  | Delete k -> List.filteri (fun i _ -> i <> k mod max 1 (List.length toks)) toks
  | Replace (k, t) ->
    let k = k mod max 1 (List.length toks) in
    List.mapi (fun i x -> if i = k then t else x) toks
  | Insert (k, t) ->
    let k = k mod (List.length toks + 1) in
    List.filteri (fun i _ -> i < k) toks @ (t :: List.filteri (fun i _ -> i >= k) toks)
  | Swap k ->
    let a = Array.of_list toks in
    let n = Array.length a in
    if n >= 2 then begin
      let k = k mod (n - 1) in
      let t = a.(k) in
      a.(k) <- a.(k + 1);
      a.(k + 1) <- t
    end;
    Array.to_list a

(* The site and query text of an input. *)
let realize = function
  | Tokens ts -> (Pins.uni_site, String.concat " " ts)
  | Truncated (i, k) ->
    let site, sql = pin i in
    (site, String.sub sql 0 (k mod (String.length sql + 1)))
  | Mutated (i, m) ->
    let site, sql = pin i in
    (site, String.concat " " (mutate (tokens sql) m))

let input_gen =
  let open QCheck.Gen in
  let token = oneofl vocabulary in
  frequency
    [
      (2, map (fun ts -> Tokens ts) (list_size (int_bound 12) token));
      (1, map2 (fun i k -> Truncated (i, k)) nat nat);
      ( 3,
        map2
          (fun i m -> Mutated (i, m))
          nat
          (oneof
             [
               map (fun k -> Delete k) nat;
               map2 (fun k t -> Replace (k, t)) nat token;
               map2 (fun k t -> Insert (k, t)) nat token;
               map (fun k -> Swap k) nat;
               map2 (fun k t -> Operand (k, t)) nat (oneofl operands);
             ]) );
    ]

let never_raises seed =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "front end: a plan or a coded diagnostic, never an exception (seed %d)" seed)
    (QCheck.make ~print:(fun i -> snd (realize i)) input_gen)
    (fun input ->
      let site, sql = realize input in
      match front_end (Lazy.force site) sql with
      | Ok _ -> true
      | Error ds -> ds <> []
      | exception e -> QCheck.Test.fail_reportf "%s raised %s" sql (Printexc.to_string e))

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
    ]
    @ List.map
        (fun seed ->
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) (never_raises seed))
        [ 7; 21; 42 ] )
