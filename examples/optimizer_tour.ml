(* A guided tour of the rewrite rules on the paper's Example 7.1:
   watch the query move from external relations to a navigation plan,
   step by step (rules 1, 4, 8, 9 and 6).

   Run with:  dune exec examples/optimizer_tour.exe *)

open Webviews

let show title e =
  Fmt.pr "@.--- %s ---@.%a@." title Nalg.pp_plan e

let () =
  let uni = Sitegen.Sites.load University in
  let schema = uni.schema and registry = uni.registry in
  let stats = Sitegen.Sites.stats uni in

  (* The query of Example 7.1: name and description of courses taught
     by full professors in the Fall session. *)
  let q =
    Sql_parser.parse registry
      "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
       WHERE p.PName = ci.PName AND ci.CName = c.CName \
       AND c.Session = 'Fall' AND p.Rank = 'Full'"
  in
  let base = Conjunctive.to_algebra q in
  show "input: relational algebra over external relations" base;

  (* Rule 1: replace each external relation by a default navigation.
     CourseInstructor has two navigations, so there are two
     expansions; take the one through professor pages. *)
  let expansions = View.expand registry base in
  Fmt.pr "@.rule 1 produces %d expansions@." (List.length expansions);
  let expansion = List.hd expansions in
  show "after rule 1 (default navigations)" expansion;

  (* Rule 4: Professor and CourseInstructor share the navigation
     ProfListPage ◦ ProfList → ProfPage — the join collapses. *)
  let merged =
    match Rewrite.rule4 schema expansion with
    | e :: _ -> e
    | [] -> expansion
  in
  show "after rule 4 (repeated navigation eliminated)" merged;

  (* Rule 8: pointer join — intersect the two CourseList pointer sets
     before navigating to the course pages (the paper's plan (1c)). *)
  let pointer_join =
    match Rewrite.rule8 schema merged with
    | e :: _ -> e
    | [] -> merged
  in
  show "after rule 8 (pointer join)" pointer_join;

  (* Rule 6 + sinking: selections travel across link constraints and
     down the navigation (the paper's plan (1d)). *)
  let with_selections =
    List.fold_left
      (fun e _ -> match Rewrite.rule6 schema e with e' :: _ -> e' | [] -> e)
      pointer_join [ 1; 2 ]
    |> Rewrite.sink_selections schema
    |> Rewrite.prune schema
  in
  show "after rule 6 + selection sinking + pruning (plan 1d)" with_selections;

  (* Rule 9 would instead chase the links (the paper's plan (2c)). *)
  (match Rewrite.rule9 schema merged with
  | chase :: _ ->
    let chase =
      Rewrite.sink_selections schema (Rewrite.prune schema chase)
    in
    show "the rule-9 alternative (pointer chase, plan 2d)" chase;
    Fmt.pr "@.cost comparison (Section 6.2 cost function):@.";
    Fmt.pr "  pointer join : %.1f page accesses@." (Cost.cost schema stats with_selections);
    Fmt.pr "  pointer chase: %.1f page accesses@." (Cost.cost schema stats chase)
  | [] -> Fmt.pr "rule 9 did not apply@.");

  (* And the full Algorithm 1, which explores all of the above. *)
  let outcome = Planner.enumerate schema stats registry q in
  Fmt.pr "@.Algorithm 1 enumerated %d candidates; winner (cost %.1f):@.%a@."
    (List.length outcome.Planner.candidates)
    outcome.Planner.best.Planner.cost Nalg.pp_plan outcome.Planner.best.Planner.expr
