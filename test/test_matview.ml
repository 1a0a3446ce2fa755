(* Tests for materialized views (Section 8): Function 2 (URLCheck),
   Algorithm 3 (query evaluation with lazy maintenance), the
   CheckMissing queue and the off-line sweep. *)

open Webviews

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Fresh site + materialized view per test (tests mutate the site). *)
let setup () =
  let uni = Sitegen.University.build () in
  let site = Sitegen.Sites.of_university uni in
  (uni, site, Matview.materialize site.schema (Websim.Http.connect site.site))

let cs_profs_plan (site : Sitegen.Sites.t) =
  (* Email is not replicated on the department page, so the plan must
     actually navigate to the professor pages (with PName alone,
     rule 7 would answer from DeptPage.ProfList and follow nothing) *)
  let outcome =
    Planner.plan_sql site.schema (Sitegen.Sites.stats site) site.registry
      "SELECT p.PName, p.Email FROM Professor p, ProfDept d WHERE p.PName = d.PName \
       AND d.DName = 'Computer Science'"
  in
  outcome.Planner.best.Planner.expr

let test_materialize_stores_all () =
  let _, site, mv = setup () in
  check int_t "all pages stored"
    (Websim.Site.page_count site.site)
    (Matview.total_pages mv);
  check int_t "professors table" 20 (Matview.stored_pages mv "ProfPage")

let test_fresh_query_uses_light_connections_only () =
  let _, site, mv = setup () in
  let plan = cs_profs_plan site in
  let report = Matview.query_counted mv plan in
  check bool_t "rows returned" true (Adm.Relation.cardinality report.Matview.result > 0);
  check int_t "no downloads on a fresh view" 0 report.Matview.downloads;
  check bool_t "light connections used" true (report.Matview.light_connections > 0)

let test_query_detects_update () =
  let uni, site, mv = setup () in
  let plan = cs_profs_plan site in
  let before = Matview.query_counted mv plan in
  (* hire into CS: DeptPage and the new ProfPage change *)
  let _p = Sitegen.University.hire_professor uni ~dept_name:"Computer Science" in
  let after = Matview.query_counted mv plan in
  check int_t "one more professor"
    (Adm.Relation.cardinality before.Matview.result + 1)
    (Adm.Relation.cardinality after.Matview.result);
  check int_t "exactly the changed pages downloaded" 2 after.Matview.downloads

let test_update_not_on_path_is_invisible () =
  let uni, site, mv = setup () in
  let plan = cs_profs_plan site in
  (* revising a course touches no page the plan visits *)
  let c = List.hd (Sitegen.University.courses uni) in
  check bool_t "revision applied" true
    (Sitegen.University.revise_course uni ~c_name:c.Sitegen.University.c_name);
  let report = Matview.query_counted mv plan in
  check int_t "no downloads for unrelated update" 0 report.Matview.downloads

let test_unchanged_page_not_downloaded () =
  let _, site, mv = setup () in
  let plan = cs_profs_plan site in
  let _ = Matview.query_counted mv plan in
  (* second run: still only light connections *)
  let again = Matview.query_counted mv plan in
  check int_t "no downloads on repeat" 0 again.Matview.downloads

let test_status_checked_within_query () =
  let _, site, mv = setup () in
  let plan = cs_profs_plan site in
  let report = Matview.query_counted mv plan in
  (* within one query, each URL is checked at most once even though
     the evaluator touches the entry point for each navigation *)
  check bool_t "light connections bounded by distinct URLs" true
    (report.Matview.light_connections <= Matview.total_pages mv)

let test_deleted_page_detected () =
  let uni, site, mv = setup () in
  (* build a plan touching all professors *)
  let outcome =
    Planner.plan_sql site.schema (Sitegen.Sites.stats site) site.registry
      "SELECT p.PName, p.Rank FROM Professor p"
  in
  let plan = outcome.Planner.best.Planner.expr in
  let before = Matview.query_counted mv plan in
  (* the site manager deletes a professor page without fixing links *)
  let victim = List.hd (Sitegen.University.profs uni) in
  Websim.Site.tick site.site;
  Websim.Site.delete site.site (Sitegen.University.prof_url victim.Sitegen.University.p_name);
  let after = Matview.query_counted mv plan in
  check int_t "one fewer professor"
    (Adm.Relation.cardinality before.Matview.result - 1)
    (Adm.Relation.cardinality after.Matview.result);
  check bool_t "missing queued for off-line check" true
    (Matview.check_missing_backlog mv > 0);
  let purged = Matview.offline_sweep mv in
  check bool_t "sweep purges the dead page" true (purged >= 1);
  check int_t "backlog drained" 0 (Matview.check_missing_backlog mv)

let test_new_link_downloads_new_page () =
  let uni, site, mv = setup () in
  let plan = cs_profs_plan site in
  let _ = Matview.query_counted mv plan in
  let p = Sitegen.University.hire_professor uni ~dept_name:"Computer Science" in
  let after = Matview.query_counted mv plan in
  (* the new professor's page was never materialized; the changed
     DeptPage marks the link as new and the page is fetched *)
  check bool_t "new page now stored" true
    (Matview.stored_tuple mv ~scheme:"ProfPage"
       ~url:(Sitegen.University.prof_url p.Sitegen.University.p_name)
    <> None);
  check bool_t "answer includes the hire" true
    (List.exists
       (fun t ->
         match Adm.Value.find t "ProfPage.PName" with
         | Some (Adm.Value.Text n) -> String.equal (Adm.Value.Atom.str n) p.Sitegen.University.p_name
         | _ -> false)
       (Adm.Relation.rows after.Matview.result))

let test_lazy_anomaly_and_full_refresh () =
  (* the paper's consistency caveat: a page updated on one path is not
     refreshed via other paths until they are navigated; full_refresh
     restores global consistency *)
  let uni, site, mv = setup () in
  let plan = cs_profs_plan site in
  let _ = Matview.query_counted mv plan in
  let _p = Sitegen.University.hire_professor uni ~dept_name:"Mathematics" in
  (* CS query does not navigate Mathematics: view still stale there *)
  check int_t "math dept page stale" 20 (Matview.stored_pages mv "ProfPage");
  Matview.full_refresh mv;
  check int_t "refresh catches up" 21 (Matview.stored_pages mv "ProfPage")

let test_matview_agrees_with_virtual () =
  let _, site, mv = setup () in
  let plan = cs_profs_plan site in
  let virt = Eval.eval site.schema (Eval.live_source site.schema (Websim.Http.connect site.site)) plan in
  let mat = Matview.query mv plan in
  check bool_t "same answer as the virtual view" true
    (Adm.Relation.equal (Adm.Relation.sort_rows virt) (Adm.Relation.sort_rows mat))

let test_counters_reset () =
  let _, site, mv = setup () in
  let plan = cs_profs_plan site in
  let r1 = Matview.query_counted mv plan in
  let r2 = Matview.query_counted mv plan in
  check int_t "counters are per query" r1.Matview.light_connections
    r2.Matview.light_connections

let suite =
  ( "matview",
    [
      Alcotest.test_case "materialize stores all" `Quick test_materialize_stores_all;
      Alcotest.test_case "fresh query = light connections" `Quick
        test_fresh_query_uses_light_connections_only;
      Alcotest.test_case "update detected" `Quick test_query_detects_update;
      Alcotest.test_case "unrelated update invisible" `Quick test_update_not_on_path_is_invisible;
      Alcotest.test_case "unchanged not downloaded" `Quick test_unchanged_page_not_downloaded;
      Alcotest.test_case "status checked within query" `Quick test_status_checked_within_query;
      Alcotest.test_case "deleted page detected + sweep" `Quick test_deleted_page_detected;
      Alcotest.test_case "new link downloads page" `Quick test_new_link_downloads_new_page;
      Alcotest.test_case "lazy anomaly + full refresh" `Quick test_lazy_anomaly_and_full_refresh;
      Alcotest.test_case "matview = virtual answers" `Quick test_matview_agrees_with_virtual;
      Alcotest.test_case "counters reset" `Quick test_counters_reset;
    ] )
