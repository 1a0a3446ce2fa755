(* Oracle tests for the columnar relation kernel: naive reference
   implementations over association-list tuples (the seed engine's
   semantics) must agree with the positional engine, up to row order,
   on randomized relations. The value pool is deliberately tiny and
   full of look-alikes (Int 1, Text "1", Link "1", Bool true,
   Text "true", Null) so set-semantics operators are stressed on both
   collisions and type confusion. The executor's [Hash_join] and
   [Project] run through [Exec.run] against the same oracles. *)

open Adm

let check = Alcotest.check
let bool_t = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

let mem_tuple t rows = List.exists (Value.equal_tuple t) rows

let oracle_distinct rows =
  List.fold_left (fun acc t -> if mem_tuple t acc then acc else t :: acc) [] rows
  |> List.rev

(* Nested-loop join on [keys = [(a1, a2); ...]]; Null keys never
   match; right attributes not present on the left are appended. *)
let oracle_join keys left_attrs r1 r2 =
  let key_matches t1 t2 =
    List.for_all
      (fun (a1, a2) ->
        let v1 = Value.find_exn t1 a1 and v2 = Value.find_exn t2 a2 in
        (not (Value.is_null v1)) && (not (Value.is_null v2)) && Value.equal v1 v2)
      keys
  in
  List.concat_map
    (fun t1 ->
      List.filter_map
        (fun t2 ->
          if key_matches t1 t2 then
            Some
              (t1
              @ List.filter (fun (a, _) -> not (List.mem a left_attrs)) t2)
          else None)
        r2)
    r1

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let confusable_values =
  [
    Value.Null; Value.Int 0; Value.Int 1; Value.text "0"; Value.text "1";
    Value.link "1"; Value.Bool true; Value.text "true"; Value.text "";
  ]

let value_gen = QCheck.Gen.oneofl confusable_values

let tuple_gen attrs =
  QCheck.Gen.(
    map
      (fun vs -> List.map2 (fun a v -> (a, v)) attrs vs)
      (flatten_l (List.map (fun _ -> value_gen) attrs)))

let rows_gen ?(max = 20) attrs = QCheck.Gen.(list_size (int_bound max) (tuple_gen attrs))

let rel_arb attrs =
  QCheck.make
    ~print:(fun rows -> Fmt.str "%a" Relation.pp (Relation.make attrs rows))
    (rows_gen attrs)

(* Compare an engine relation with oracle tuples, up to row order.
   Oracle tuples are already in header order by construction. *)
let same_rows rel expected =
  let sort = List.sort Value.compare_tuple in
  List.equal Value.equal_tuple (sort (Relation.rows rel)) (sort expected)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let abc = [ "A"; "B"; "C" ]

let prop_distinct =
  QCheck.Test.make ~name:"distinct agrees with oracle" ~count:300 (rel_arb abc)
    (fun rows ->
      same_rows (Relation.distinct (Relation.make abc rows)) (oracle_distinct rows))

let left_attrs = [ "K"; "A" ]
let right_attrs = [ "K2"; "B" ]

let prop_join =
  QCheck.Test.make ~name:"equi_join agrees with oracle" ~count:300
    (QCheck.pair (rel_arb left_attrs) (rel_arb right_attrs))
    (fun (r1, r2) ->
      same_rows
        (Relation.equi_join [ ("K", "K2") ] (Relation.make left_attrs r1)
           (Relation.make right_attrs r2))
        (oracle_join [ ("K", "K2") ] left_attrs r1 r2))

let prop_project =
  QCheck.Test.make ~name:"project agrees with oracle" ~count:300 (rel_arb abc)
    (fun rows ->
      same_rows
        (Relation.project [ "B"; "A" ] (Relation.make abc rows))
        (oracle_distinct
           (List.map
              (fun t -> [ ("B", Value.find_exn t "B"); ("A", Value.find_exn t "A") ])
              rows)))

(* ------------------------------------------------------------------ *)
(* The executor over in-memory views                                   *)
(* ------------------------------------------------------------------ *)

(* Two views, "L" over [K; A] and "R" over [K2; B], scanned under
   aliases "l" and "r", each stored in declaration order. *)
let views_of r1 r2 : Webviews.Exec.views =
  (* stored columns [cols] of tuples qualified by [alias] *)
  let answer alias cols rows =
    {
      Webviews.Exec.va_attrs = cols;
      va_rows =
        Array.of_list
          (List.map
             (fun t -> Array.of_list (List.map (fun c -> List.assoc (alias ^ "." ^ c) t) cols))
             rows);
      va_heads = 0;
      va_gets = 0;
      va_pages = 0;
    }
  in
  {
    Webviews.Exec.view_attrs =
      (function "L" -> Some [ "K"; "A" ] | "R" -> Some [ "K2"; "B" ] | _ -> None);
    answer =
      (fun ~view ->
        match view with
        | "L" -> Some (answer "l" [ "K"; "A" ] r1)
        | "R" -> Some (answer "r" [ "K2"; "B" ] r2)
        | _ -> None);
  }

let exec_run r1 r2 (root : Webviews.Physplan.op) n_ops =
  let source =
    {
      Webviews.Exec.fetch = (fun ~scheme:_ ~url:_ -> None);
      prefetch = (fun ~scheme:_ _ -> ());
      window = 8;
      views = Some (views_of r1 r2);
    }
  in
  let schema = Schema.make ~name:"views-only" ~schemes:[] ~link_constraints:[] ~inclusions:[] in
  Webviews.Exec.run schema source { Webviews.Physplan.root; n_ops; window = 8 }

let scan id view alias ext_attrs =
  {
    Webviews.Physplan.id;
    node = Webviews.Physplan.View_scan { view; alias; ext_attrs; filter = [] };
  }

(* The join of "l" and "r" on [keys] (left attribute first), with "l"
   as the left input or, [swapped], as the right: a hash join builds
   its right input, so the two orders build different sides. *)
let exec_join keys ~swapped r1 r2 =
  let l id = scan id "L" "l" [ "K"; "A" ] and r id = scan id "R" "r" [ "K2"; "B" ] in
  let node =
    if swapped then
      Webviews.Physplan.Hash_join
        { keys = List.map (fun (a, b) -> (b, a)) keys; left = r 0; right = l 1 }
    else Webviews.Physplan.Hash_join { keys; left = l 0; right = r 1 }
  in
  exec_run r1 r2 { Webviews.Physplan.id = 2; node } 3

(* [same_rows] with each tuple's attributes in name order, so the
   header order of the operands does not matter. *)
let same_rows_by_name rel expected =
  let by_name = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  let sort rows = List.sort Value.compare_tuple (List.map by_name rows) in
  List.equal Value.equal_tuple (sort (Relation.rows rel)) (sort expected)

let qualified_arb alias attrs =
  QCheck.map
    (List.map (List.map (fun (a, v) -> (alias ^ "." ^ a, v))))
    (rel_arb attrs)

let exec_join_prop name keys =
  QCheck.Test.make ~name ~count:300
    (QCheck.pair (qualified_arb "l" left_attrs) (qualified_arb "r" right_attrs))
    (fun (r1, r2) ->
      let expected = oracle_join keys [ "l.K"; "l.A" ] r1 r2 in
      same_rows_by_name (exec_join keys ~swapped:false r1 r2) expected
      && same_rows_by_name (exec_join keys ~swapped:true r1 r2) expected)

let prop_exec_join_one =
  exec_join_prop "exec one-key hash_join agrees with oracle" [ ("l.K", "r.K2") ]

let prop_exec_join_two =
  exec_join_prop "exec two-key hash_join agrees with oracle"
    [ ("l.K", "r.K2"); ("l.A", "r.B") ]

(* Project keeps each distinct projected row at its first appearance:
   the oracle's order too, so the rows must match in order. *)
let prop_exec_project =
  QCheck.Test.make ~name:"exec project agrees with oracle" ~count:300
    (qualified_arb "l" left_attrs)
    (fun rows ->
      let rel =
        exec_run rows []
          {
            Webviews.Physplan.id = 1;
            node = Webviews.Physplan.Project { attrs = [ "l.A"; "l.K" ]; input = scan 0 "L" "l" [ "K"; "A" ] };
          }
          2
      in
      List.equal Value.equal_tuple (Relation.rows rel)
        (oracle_distinct
           (List.map
              (fun t -> [ ("l.A", Value.find_exn t "l.A"); ("l.K", Value.find_exn t "l.K") ])
              rows)))

(* A scan passes the stored rows on as they are, so an answer whose
   columns are not in the declared order is refused, not reordered. *)
let test_scan_order () =
  match exec_run [] [] (scan 0 "L" "l" [ "A"; "K" ]) 1 with
  | _ -> Alcotest.fail "a scan accepted columns out of declaration order"
  | exception Invalid_argument _ -> ()

let suite =
  ( "kernel-oracle",
    [
      QCheck_alcotest.to_alcotest prop_distinct;
      QCheck_alcotest.to_alcotest prop_join;
      QCheck_alcotest.to_alcotest prop_project;
      QCheck_alcotest.to_alcotest prop_exec_join_one;
      QCheck_alcotest.to_alcotest prop_exec_join_two;
      QCheck_alcotest.to_alcotest prop_exec_project;
      Alcotest.test_case "exec view scan refuses columns out of order" `Quick test_scan_order;
    ] )
