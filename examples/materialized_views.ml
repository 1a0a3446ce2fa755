(* Materialized views over an autonomous web site (Section 8): the
   site changes without telling us; queries stay correct and cheap by
   checking pages with light connections and re-downloading only what
   actually changed.

   Run with:  dune exec examples/materialized_views.exe *)

open Webviews

let report label (r : Matview.query_report) =
  Fmt.pr "%-38s %3d rows, %3d light connections, %2d downloads, %3d local hits@."
    label
    (Adm.Relation.cardinality r.Matview.result)
    r.Matview.light_connections r.Matview.downloads r.Matview.local_hits

let () =
  let uni = Sitegen.University.build () in
  let { Sitegen.Sites.schema; registry; site; _ } as bundle = Sitegen.Sites.of_university uni in
  let stats = Sitegen.Sites.stats bundle in

  (* Materialize the whole ADM representation of the site locally. *)
  let mv = Matview.materialize schema (Websim.Http.connect site) in
  Fmt.pr "Materialized %d pages as nested tuples with access dates.@.@."
    (Matview.total_pages mv);

  let outcome =
    Planner.plan_sql schema stats registry
      "SELECT p.PName, p.Rank FROM Professor p, ProfDept d \
       WHERE p.PName = d.PName AND d.DName = 'Computer Science'"
  in
  let plan = outcome.Planner.best.Planner.expr in
  Fmt.pr "Query plan (Algorithm 1, also used for the materialized view):@.%a@.@."
    Nalg.pp_plan plan;

  (* 1. Fresh view: only light connections, no downloads. *)
  report "fresh view" (Matview.query_counted mv plan);

  (* 2. The site manager hires a professor into Computer Science:
     the department page changes and a new professor page appears. *)
  let p = Sitegen.University.hire_professor uni ~dept_name:"Computer Science" in
  Fmt.pr "@.site change: hired %S into Computer Science@." p.Sitegen.University.p_name;
  report "after hire (lazy maintenance)" (Matview.query_counted mv plan);

  (* 3. Re-run: the view has caught up, back to light connections. *)
  report "re-run" (Matview.query_counted mv plan);

  (* 4. A promotion only touches one professor page. *)
  let victim = List.hd (Sitegen.University.profs uni) in
  ignore
    (Sitegen.University.promote_professor uni
       ~p_name:victim.Sitegen.University.p_name);
  Fmt.pr "@.site change: promoted %S@." victim.Sitegen.University.p_name;
  report "after promotion" (Matview.query_counted mv plan);

  (* 5. Deletions are deferred to CheckMissing and handled off-line. *)
  let all_profs =
    Planner.plan_sql schema stats registry "SELECT p.PName FROM Professor p"
  in
  let plan_all = all_profs.Planner.best.Planner.expr in
  let gone = List.nth (Sitegen.University.profs uni) 3 in
  Websim.Site.tick site;
  Websim.Site.delete site (Sitegen.University.prof_url gone.Sitegen.University.p_name);
  Fmt.pr "@.site change: page of %S deleted without notice@."
    gone.Sitegen.University.p_name;
  report "all-professors query" (Matview.query_counted mv plan_all);
  let backlog = Matview.check_missing_backlog mv in
  let purged = Matview.offline_sweep mv in
  Fmt.pr "CheckMissing backlog: %d URL(s); off-line sweep purged %d page(s)@."
    backlog purged
