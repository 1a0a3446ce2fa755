(* Oracle tests for the columnar relation kernel: naive reference
   implementations over association-list tuples (the seed engine's
   semantics) must agree with the positional engine, up to row order,
   on randomized relations. The value pool is deliberately tiny and
   full of look-alikes (Int 1, Text "1", Link "1", Bool true,
   Text "true", Null) so set-semantics operators are stressed on both
   collisions and type confusion. *)

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

let suite =
  ( "kernel-oracle",
    [
      QCheck_alcotest.to_alcotest prop_distinct;
      QCheck_alcotest.to_alcotest prop_join;
      QCheck_alcotest.to_alcotest prop_project;
    ] )
