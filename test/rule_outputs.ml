(* Per-rule output pins. For each pinned query of [Pins], every
   plan the join rules' whole-plan closure visits, and every plan the
   planner's selection and projection phases visit (from one root
   group per class of its join groups, each plan sunk into its
   groups' cheapest members), over one memo, is fed to each rewrite
   rule on its own, and to selection sinking and pruning. Per rule, the
   outputs of every plan — in order, each with the number of its nodes
   not physically shared with the plan it rewrote — are digested;
   rule_outputs.expected holds one line per (query, rule): the output
   count, the unshared-node count and the MD5. A refactoring of the
   rules must leave every line unchanged: dune diffs the output
   against rule_outputs.expected, and `dune promote` accepts a
   deliberate change. *)

open Webviews

(* The plans the phases visit for a query, each once, in visiting
   order. *)
let visited memo registry sql =
  let joins = Pins.join_phase memo registry sql in
  let selections, _, projections =
    Pins.later_phases memo (Pins.representatives memo registry sql)
  in
  let seen = Memo.visit memo in
  List.filter (Memo.first_visit seen) (joins @ selections @ projections)

let rules =
  [
    ("rule2", Rewrite.rule2);
    ("rule4", Rewrite.rule4);
    ("commute", Rewrite.join_commute);
    ("rotate", Rewrite.join_rotate);
    ("rule8", Rewrite.rule8);
    ("rule9", Rewrite.rule9);
    ("rule6", Rewrite.rule6);
    ("rule7_replace", Rewrite.rule7_replace);
    ("sink_selections", fun m n -> [ Rewrite.sink_selections m n ]);
    ("prune", fun m n -> [ Rewrite.prune m n ]);
  ]

(* The nodes of [e] not physically shared with a subexpression of
   [parent]: counted top-down, stopping at shared subtrees. *)
let unshared parent e =
  let subs = Nalg.fold (fun acc s -> s :: acc) [] parent in
  let rec go e =
    if List.exists (( == ) e) subs then 0
    else List.fold_left (fun acc k -> acc + go k) 1 (Nalg.children e)
  in
  go e

let query_block (name, site, sql) =
  let schema, registry, stats = Pins.parts site in
  let memo = Memo.create schema stats in
  let plans = visited memo registry sql in
  let lines =
    List.map
      (fun (rule, apply) ->
        let b = Buffer.create 4096 in
        let outputs = ref 0 and fresh = ref 0 in
        List.iteri
          (fun i n ->
            List.iter
              (fun e ->
                let u = unshared (Memo.expr n) e in
                incr outputs;
                fresh := !fresh + u;
                Printf.bprintf b "%d %d %s\n" i u (Nalg.to_string e))
              (apply memo n))
          plans;
        Printf.sprintf "%s outputs %d unshared %d md5 %s" rule !outputs !fresh
          (Digest.to_hex (Digest.string (Buffer.contents b))))
      rules
  in
  String.concat "\n"
    ((Printf.sprintf "query %s plans %d" name (List.length plans)) :: lines)
  ^ "\n"

let () = List.iter (fun case -> print_string (query_block case)) Pins.cases
