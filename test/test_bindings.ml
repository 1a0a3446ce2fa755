(* Binding-pattern access (PR 10): form-only sites, the equivalent-
   rewriting search over path views, and its integration with the
   planner and executor. Pins:

   - the typecheck gate: a parameterized entry point is not a plain
     entry (E0111), a call must bind every parameter from the
     enclosing plan (E0111), and a well-formed chain typechecks;
   - the end-to-end path: on the form-only site the headline query has
     no navigation plan, the search discovers a composition of calls,
     the planner costs and picks it, and execution returns rows
     byte-identical to ground truth at a fraction of the oracle's
     GETs;
   - the analyzer surface: {!Bindings.lint} reports E0111 exactly when
     no composition exists, and that diagnostic drives the exit code
     to 2 (the accounting `webviews analyze --format=json` relies on);
   - the QCheck property (seeds 7/21/42): every emitted rewriting is
     executable as-is — calls in an order where each argument is bound
     upstream — and row-equivalent to the generator's ground truth. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let formsite = Sitegen.Sites.of_formsite (Sitegen.Formsite.build ())
let schema = formsite.schema
let registry = formsite.registry
let binding_config = Option.get formsite.binding_config
let hook = Option.get (Sitegen.Sites.bindings formsite)

let conj sql = Sql_parser.parse registry sql

(* A fresh form-only site: its generator (ground truth), declared
   statistics, a connection and a live source over it. *)
let build_and_source () =
  let fs = Sitegen.Formsite.build () in
  let site = Sitegen.Sites.of_formsite fs in
  let http = Websim.Http.connect site.site in
  (fs, Sitegen.Sites.stats site, http, Eval.live_source schema http)

(* --- typechecking binding patterns --------------------------------- *)

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let test_parameterized_entry_rejected () =
  let _, ds = Typecheck.infer schema (Nalg.entry "DeptPage") in
  check bool_t "E0111 on naked parameterized entry" true
    (List.mem "E0111" (codes (Diagnostic.errors ds)))

let test_unbound_call_arg_rejected () =
  (* prof := C.Nowhere references an attribute the plan does not bind *)
  let e =
    Nalg.call ~alias:"P" "ProfPage"
      ~args:[ ("prof", Nalg.Arg_attr "C.Nowhere") ]
      ~src:(Nalg.call ~alias:"C" "CoursePage" ~args:[ ("course", Nalg.Arg_const "cs101") ])
  in
  let _, ds = Typecheck.infer schema e in
  check bool_t "E0111 on unbound call argument" true
    (List.mem "E0111" (codes (Diagnostic.errors ds)))

let test_missing_param_rejected () =
  let e = Nalg.call ~alias:"D" "DeptPage" ~args:[] in
  let _, ds = Typecheck.infer schema e in
  check bool_t "E0111 when a parameter is left unbound" true
    (List.mem "E0111" (codes (Diagnostic.errors ds)))

let test_well_formed_chain_typechecks () =
  let e =
    Nalg.call ~alias:"C" "CoursePage"
      ~args:[ ("course", Nalg.Arg_attr "D.Courses.CName") ]
      ~src:
        (Nalg.unnest
           (Nalg.call ~alias:"D" "DeptPage" ~args:[ ("dept", Nalg.Arg_const "cs") ])
           "D.Courses")
  in
  let _, ds = Typecheck.infer schema e in
  check bool_t "chain has no errors" false (Diagnostic.has_errors ds)

(* --- the search ----------------------------------------------------- *)

let test_search_finds_composition () =
  let q = conj (Sitegen.Formsite.staff_query "cs") in
  let r = Bindings.search binding_config schema q in
  check bool_t "at least one rewriting" true (r.Bindings.rewritings <> []);
  check bool_t "not truncated" false r.Bindings.truncated

let test_search_needs_a_constant () =
  (* no equality constant: nothing seeds the binding states *)
  let q = conj "SELECT P.PName FROM Professor P" in
  let r = Bindings.search binding_config schema q in
  check bool_t "no rewriting without a seed constant" true
    (r.Bindings.rewritings = [])

let test_decoys_never_emitted () =
  let cfg =
    Bindings.add_views binding_config
      (Bindings.decoys ~hooks:[ "dept"; "course" ] ~seed:3 ~n:100 ())
  in
  let q = conj (Sitegen.Formsite.staff_query "cs") in
  let r = Bindings.search cfg schema q in
  check bool_t "rewritings survive decoys" true (r.Bindings.rewritings <> []);
  List.iter
    (fun e ->
      let mentions_decoy =
        Nalg.fold
          (fun acc n ->
            acc
            ||
            match n with
            | Nalg.Call { c_scheme; _ } ->
              String.length c_scheme >= 5 && String.sub c_scheme 0 5 = "Decoy"
            | _ -> false)
          false e
      in
      check bool_t "no decoy call in an emitted rewriting" false mentions_decoy)
    r.Bindings.rewritings

(* --- end to end through planner and executor ------------------------ *)

let test_no_navigation_plan () =
  let _, stats, _, source = build_and_source () in
  check bool_t "without the hook the planner has no plan" true
    (match
       Planner.run schema stats registry source (Sitegen.Formsite.staff_query "cs")
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_staff_query_end_to_end () =
  let fs, stats, http, source = build_and_source () in
  let before = Websim.Http.snapshot http in
  let outcome, rel =
    Planner.run ~bindings:hook schema stats registry source
      (Sitegen.Formsite.staff_query "cs")
  in
  let d = Websim.Http.diff ~before ~after:(Websim.Http.snapshot http) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "renamed header" [ [ "P.PName"; "P.Office" ] ]
    [ Adm.Relation.attrs (Planner.rename_output outcome rel) ];
  let got =
    Adm.Relation.rows_arrays rel
    |> List.map (fun row ->
           match Array.to_list row with
           | [ a; b ] ->
             ( Option.value ~default:"?" (Adm.Value.as_text a),
               Option.value ~default:"?" (Adm.Value.as_text b) )
           | _ -> ("?", "?"))
    |> List.sort compare
  in
  let expected =
    List.sort compare (Sitegen.Formsite.expected_staff fs ~dept:"cs")
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "rows byte-identical to ground truth" expected got;
  check bool_t "answered with fewer GETs than the oracle" true
    (d.Websim.Http.gets < Sitegen.Formsite.oracle_gets fs);
  check bool_t "the chosen plan is a call chain" true
    (Nalg.fold
       (fun acc n -> acc || match n with Nalg.Call _ -> true | _ -> false)
       false outcome.Planner.best.Planner.expr)

(* Every rewriting of every form-site workload template, streamed and
   through the legacy oracle: the same relation, and on the perfect
   network the same GET/HEAD/byte counters (the form site is the only
   one whose plans call forms). *)
let test_streaming_matches_legacy () =
  let site = Sitegen.Sites.of_formsite (Sitegen.Formsite.build ()) in
  let stats = Sitegen.Sites.stats site in
  List.iter
    (fun sql ->
      let r = Bindings.search binding_config schema (conj sql) in
      check bool_t (sql ^ ": has rewritings") true (r.Bindings.rewritings <> []);
      List.iter
        (fun e -> Test_exec.check_page_identity sql site.site schema stats e)
        r.Bindings.rewritings)
    Server.Workload.formsite_templates

(* --- lint and exit-code accounting ---------------------------------- *)

let test_lint_reports_e0111 () =
  (* ask for a phone by office: no path view takes an office as input,
     so no composition exists *)
  let q = conj "SELECT P.Phone FROM Professor P WHERE P.Office = 'Bldg A, room 100'" in
  let ds = Bindings.lint binding_config schema q in
  check (Alcotest.list Alcotest.string) "exactly E0111" [ "E0111" ]
    (codes (Diagnostic.errors ds));
  (* the accounting `webviews analyze` relies on: errors drive the
     process exit code to 2, strict or not *)
  check int_t "exit code 2" 2 (Diagnostic.exit_code ~strict:false ds);
  check int_t "exit code 2 (strict)" 2 (Diagnostic.exit_code ~strict:true ds)

let test_lint_quiet_when_answerable () =
  let q = conj (Sitegen.Formsite.staff_query "cs") in
  check (Alcotest.list Alcotest.string) "no diagnostics" []
    (codes (Bindings.lint binding_config schema q));
  check int_t "exit code 0" 0
    (Diagnostic.exit_code ~strict:true
       (Bindings.lint binding_config schema q))

(* --- the property: emitted rewritings execute and agree ------------- *)

let rewritings_sound =
  QCheck.Test.make ~count:30
    ~name:"every emitted rewriting executes and matches ground truth (seeds 7/21/42)"
    QCheck.(
      pair (Gen.oneofl [ 7; 21; 42 ] |> make) (pair (int_range 0 5) (int_range 0 3)))
    (fun (seed, (site_extra, dept_idx)) ->
      let site_seed = seed + site_extra in
      let config =
        { Sitegen.Formsite.default_config with seed = 100 + site_seed }
      in
      let fs = Sitegen.Formsite.build ~config () in
      let dept = List.nth (Sitegen.Formsite.depts fs) dept_idx in
      let q = conj (Sitegen.Formsite.staff_query dept) in
      let r = Bindings.search binding_config schema q in
      let source =
        Eval.live_source schema
          (Websim.Http.connect (Sitegen.Sites.of_formsite fs).site)
      in
      let expected =
        List.sort compare (Sitegen.Formsite.expected_staff fs ~dept)
      in
      r.Bindings.rewritings <> []
      && List.for_all
           (fun e ->
             (* executable in emitted order: evaluation itself raises
                Not_computable when an argument is unbound upstream *)
             match Eval.eval schema source e with
             | rel ->
               let got =
                 Adm.Relation.rows_arrays rel
                 |> List.map (fun row ->
                        match Array.to_list row with
                        | [ a; b ] ->
                          ( Option.value ~default:"?" (Adm.Value.as_text a),
                            Option.value ~default:"?" (Adm.Value.as_text b) )
                        | _ -> ("?", "?"))
                 |> List.sort compare
               in
               got = expected
             | exception Eval.Not_computable _ -> false)
           r.Bindings.rewritings)

let props = [ QCheck_alcotest.to_alcotest rewritings_sound ]

let suite =
  ( "bindings",
    [
      Alcotest.test_case "parameterized entry rejected" `Quick
        test_parameterized_entry_rejected;
      Alcotest.test_case "unbound call arg rejected" `Quick
        test_unbound_call_arg_rejected;
      Alcotest.test_case "missing param rejected" `Quick test_missing_param_rejected;
      Alcotest.test_case "well-formed chain typechecks" `Quick
        test_well_formed_chain_typechecks;
      Alcotest.test_case "search finds a composition" `Quick
        test_search_finds_composition;
      Alcotest.test_case "search needs a seed constant" `Quick
        test_search_needs_a_constant;
      Alcotest.test_case "decoys never emitted" `Quick test_decoys_never_emitted;
      Alcotest.test_case "no navigation-only plan" `Quick test_no_navigation_plan;
      Alcotest.test_case "staff query end to end" `Quick test_staff_query_end_to_end;
      Alcotest.test_case "streaming matches legacy on rewritings" `Quick
        test_streaming_matches_legacy;
      Alcotest.test_case "lint reports E0111, exit code 2" `Quick
        test_lint_reports_e0111;
      Alcotest.test_case "lint quiet when answerable" `Quick
        test_lint_quiet_when_answerable;
    ]
    @ props )
