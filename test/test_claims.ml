(* The paper's claims as assertions over its literal plans
   ([Sitegen.University.fig3_*], [fig4_*]). The experiments' output is
   pinned as text; these cases fail when a claim flips, so a `dune
   promote` of that text cannot accept a flipped claim. *)

open Webviews
module U = Sitegen.University

(* The cost the model predicts for [plan] and the pages it downloads on
   [site]. *)
let measure (site : Sitegen.Sites.t) plan =
  let http = Websim.Http.connect site.site in
  ignore (Eval.eval site.schema (Eval.live_source site.schema http) plan);
  (Cost.cost site.schema (Sitegen.Sites.stats site) plan, (Websim.Http.stats http).Websim.Http.gets)

let university config = Sitegen.Sites.of_university (U.build ~config ())

(* Example 7.1 (Figure 3): C(1d) <= C(2d), in measured pages, at every
   full-professor fraction of EXP-2's sweep. *)
let test_ex71_join_never_loses () =
  List.iter
    (fun frac ->
      let site = university { U.default_config with full_fraction = frac } in
      let _, join = measure site (U.fig3_pointer_join ()) in
      let _, chase = measure site (U.fig3_pointer_chase ()) in
      Alcotest.(check bool)
        (Fmt.str "fraction %.2f: (1d) %d pages <= (2d) %d pages" frac join chase)
        true (join <= chase))
    [ 0.1; 1.0 /. 3.0; 0.66; 1.0 ]

(* Example 7.2 (Figure 4) on the paper's 50 courses, 20 professors and
   3 departments: the chase costs less than the join, predicted and
   measured, and the join costs well over 50. *)
let test_ex72_chase_wins () =
  let site = university U.default_config in
  let join_cost, join = measure site (U.fig4_pointer_join ()) in
  let chase_cost, chase = measure site (U.fig4_pointer_chase ()) in
  Alcotest.(check bool)
    (Fmt.str "predicted: chase %.1f < join %.1f" chase_cost join_cost)
    true (chase_cost < join_cost);
  Alcotest.(check bool) (Fmt.str "measured: chase %d < join %d pages" chase join) true (chase < join);
  Alcotest.(check bool)
    (Fmt.str "join over 50 (predicted %.1f, measured %d)" join_cost join)
    true
    (join_cost > 50.0 && join > 50)

(* EXP-7: over EXP-7's department counts, the literal chase reads fewer
   pages than the literal join from 2 departments on, and the two tie
   at one department (72 pages each). *)
let test_exp7_crossover () =
  List.iter
    (fun n_depts ->
      let site = university { U.default_config with n_depts } in
      let _, join = measure site (U.fig4_pointer_join ()) in
      let _, chase = measure site (U.fig4_pointer_chase ()) in
      if n_depts = 1 then
        Alcotest.(check (pair int int)) "one department: a tie" (72, 72) (join, chase)
      else
        Alcotest.(check bool)
          (Fmt.str "%d departments: chase %d < join %d pages" n_depts chase join)
          true (chase < join))
    [ 1; 2; 3; 6; 10 ]

let suite =
  ( "claims",
    [
      Alcotest.test_case "ex7.1: (1d) never reads more pages than (2d)" `Quick
        test_ex71_join_never_loses;
      Alcotest.test_case "ex7.2: the chase wins, the join costs over 50" `Quick
        test_ex72_chase_wins;
      Alcotest.test_case "exp7: the chase wins from 2 departments, ties at 1" `Quick
        test_exp7_crossover;
    ] )
