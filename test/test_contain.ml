(* Soundness of the semantic analyzer (Contain): minimization
   preserves results and page accesses on all three sites (seeds
   7/21/42), containment is reflexive and transitive on the planner's
   candidate plans, and the static verdicts (unsat, fold, subsumption)
   fire exactly where they should. *)

open Webviews

let uni = Sitegen.Sites.load University
let schema = uni.schema
let registry = uni.registry
let instance = lazy (Sitegen.Sites.crawl uni)
let stats = uni.stats

let parse sql = Sql_parser.parse registry sql
let algebra sql = Conjunctive.to_algebra (parse sql)

let rows_of rel =
  Adm.Relation.rows rel
  |> List.map (fun t -> List.map (fun (_, v) -> Adm.Value.to_string v) t)
  |> List.sort compare

(* A live source that records every URL the executor reads, so two
   plans can be compared on their distinct-GET sets, not just counts. *)
let logged_source site_schema http =
  let seen = Hashtbl.create 64 in
  let base = Eval.live_source site_schema http in
  let src =
    {
      base with
      Eval.fetch =
        (fun ~scheme ~url ->
          Hashtbl.replace seen url ();
          base.Eval.fetch ~scheme ~url);
    }
  in
  (src, fun () -> Hashtbl.fold (fun u () acc -> u :: acc) seen [] |> List.sort compare)

(* --- static verdict units ------------------------------------------ *)

let test_unsat_pred () =
  let open Pred in
  let i n = Const (Adm.Value.int n) in
  let x = Attr "x" in
  let t = Alcotest.(check bool) in
  t "x=3 and x=5" true (Contain.unsat_pred [ atom x Eq (i 3); atom x Eq (i 5) ]);
  t "x<2 and x>7" true (Contain.unsat_pred [ atom x Lt (i 2); atom x Gt (i 7) ]);
  t "x<x" true (Contain.unsat_pred [ atom x Lt x ]);
  t "x>=2, x<=2, x<>2" true
    (Contain.unsat_pred [ atom x Ge (i 2); atom x Le (i 2); atom x Neq (i 2) ]);
  t "x=3 and x<5 is satisfiable" false
    (Contain.unsat_pred [ atom x Eq (i 3); atom x Lt (i 5) ]);
  t "y=3 via y=x, x=5" true
    (Contain.unsat_pred
       [ atom (Attr "y") Eq (i 3); atom (Attr "y") Eq x; atom x Eq (i 5) ]);
  t "empty conjunction" false (Contain.unsat_pred [])

let test_unsat_expr () =
  let e =
    algebra
      "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full' AND p.Rank = \
       'Assistant'"
  in
  Alcotest.(check bool) "contradictory bindings" true (Contain.unsat_expr e);
  Alcotest.(check bool)
    "satisfiable query" false
    (Contain.unsat_expr (algebra "SELECT p.PName FROM Professor p"))

(* --- containment units --------------------------------------------- *)

let q_all = "SELECT p.PName FROM Professor p"
let q_full = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"

let q_full_cs =
  "SELECT p.PName FROM Professor p, ProfDept d WHERE p.PName = d.PName AND \
   p.Rank = 'Full' AND d.DName = 'Computer Science'"

let test_contains_refinement () =
  let t = Alcotest.(check bool) in
  t "restricted in general" true (Contain.contains (algebra q_full) (algebra q_all));
  t "general not proven in restricted" false
    (Contain.contains (algebra q_all) (algebra q_full));
  t "joined restriction in general" true
    (Contain.contains (algebra q_full_cs) (algebra q_all));
  t "transitive chain end-to-end" true
    (Contain.contains (algebra q_full_cs) (algebra q_full)
    && Contain.contains (algebra q_full) (algebra q_all)
    && Contain.contains (algebra q_full_cs) (algebra q_all))

let test_equiv_permutation () =
  let a =
    algebra
      "SELECT p.PName FROM Professor p, ProfDept d WHERE p.PName = d.PName AND \
       p.Rank = 'Full'"
  in
  let b =
    algebra
      "SELECT q.PName FROM ProfDept e, Professor q WHERE q.Rank = 'Full' AND \
       e.PName = q.PName"
  in
  Alcotest.(check bool) "permuted query equivalent" true (Contain.equiv a b);
  Alcotest.(check bool)
    "permuted query same plan key" true
    (String.equal (Contain.plan_key a) (Contain.plan_key b))

(* Regression: a closed bound touching the excluded constant still
   admits it — x >= c must not prove x <> c, and x >= c is not
   equivalent to x > c; only a strict bound separates. *)
let test_closed_bound_is_not_exclusion () =
  let q cmp =
    algebra (Fmt.str "SELECT p.PName FROM Professor p WHERE p.Rank %s 'Full'" cmp)
  in
  let t = Alcotest.(check bool) in
  t "x>=c does not prove x<>c" false (Contain.contains (q ">=") (q "<>"));
  t "x<=c does not prove x<>c" false (Contain.contains (q "<=") (q "<>"));
  t "x>=c not equivalent to x>c" false (Contain.equiv (q ">=") (q ">"));
  t "x<=c not equivalent to x<c" false (Contain.equiv (q "<=") (q "<"));
  t "x>c does prove x<>c" true (Contain.contains (q ">") (q "<>"));
  t "x<c does prove x<>c" true (Contain.contains (q "<") (q "<>"))

(* Regression: 21 same-signature occurrences — 21! overflows a naive
   factorial product and used to wrap below the permutation cap,
   sending plan_key into an n! enumeration; the saturating count must
   fall back to the structural key (and return promptly). *)
let test_plan_key_many_way_self_join () =
  let sql =
    Fmt.str "SELECT p0.PName FROM %s"
      (String.concat ", "
         (List.init 21 (fun i -> Fmt.str "Professor p%d" i)))
  in
  let key = Contain.plan_key (algebra sql) in
  Alcotest.(check bool)
    "structural fallback past the cap" true
    (String.length key >= 2 && String.equal (String.sub key 0 2) "S:")

(* --- minimization and analyze units -------------------------------- *)

let fold_sql =
  "SELECT p.PName, p.Rank FROM Professor p, Professor q WHERE p.PName = \
   q.PName AND q.Rank = 'Full'"

let test_minimize_folds () =
  let q', ds = Contain.minimize_query registry (parse fold_sql) in
  Alcotest.(check int) "one source left" 1 (List.length q'.Conjunctive.from);
  Alcotest.(check bool)
    "W0602 reported" true
    (List.exists (fun d -> d.Diagnostic.code = "W0602") ds);
  let _, ds' = Contain.analyze_query registry (parse fold_sql) in
  Alcotest.(check bool)
    "W0604 reported by analyze" true
    (List.exists (fun d -> d.Diagnostic.code = "W0604") ds')

let test_minimize_keeps_distinct_occurrences () =
  (* equated on a non-key attribute: folding would be unsound *)
  let sql =
    "SELECT p.PName, q.PName FROM Professor p, Professor q WHERE p.Rank = \
     q.Rank AND q.Rank = 'Full'"
  in
  let q', ds = Contain.minimize_query registry (parse sql) in
  Alcotest.(check int) "both sources kept" 2 (List.length q'.Conjunctive.from);
  Alcotest.(check bool)
    "no W0602" false
    (List.exists (fun d -> d.Diagnostic.code = "W0602") ds)

let test_unsat_diagnostic () =
  let _, ds =
    Contain.minimize_query registry
      (parse
         "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full' AND p.Rank = \
          'Assistant'")
  in
  Alcotest.(check bool)
    "E0601 reported" true
    (List.exists (fun d -> d.Diagnostic.code = "E0601") ds)

(* --- view subsumption (filter tree) -------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_registry_lint () =
  let ds = Viewmatch.registry_lint (Viewmatch.make registry) in
  Alcotest.(check (list string))
    "university registry has no subsumed views" []
    (List.map (fun d -> d.Diagnostic.code) ds);
  let prof = View.find_exn registry "Professor" in
  let dup = { prof with View.rel_name = "Professor2" } in
  let ds' = Viewmatch.registry_lint (Viewmatch.make (registry @ [ dup ])) in
  Alcotest.(check bool)
    "duplicated view flagged W0603" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "W0603"
         && contains_sub ~sub:"Professor2" d.Diagnostic.message)
       ds')

(* Regression: the same join written as Nalg.Join keys in one view and
   as a Select equality atom over a cross join in another must land in
   the same filter-tree bucket (join keys feed the predicate
   signature), so the semantic check sees the pair and the lint flags
   the duplicate. *)
let test_filter_tree_join_keys_vs_select_atoms () =
  let prof_nav =
    Nalg.follow
      (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
      "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"
  in
  let dept_nav =
    Nalg.follow
      (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList")
      "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage"
  in
  let bindings =
    [
      ("PName", "ProfPage.PName");
      ("DName", "ProfPage.DName");
      ("Address", "DeptPage.Address");
    ]
  in
  let mk name nav_expr =
    View.relation ~name ~attrs:[ "PName"; "DName"; "Address" ]
      ~navigations:[ View.navigation ~bindings nav_expr ] ()
  in
  let join_view =
    mk "ProfDeptJoin"
      (Nalg.join [ ("ProfPage.DName", "DeptPage.DName") ] prof_nav dept_nav)
  in
  let select_view =
    mk "ProfDeptSel"
      (Nalg.select
         [ Pred.eq_attrs "ProfPage.DName" "DeptPage.DName" ]
         (Nalg.join [] prof_nav dept_nav))
  in
  let t = Viewmatch.make [ join_view; select_view ] in
  Alcotest.(check bool)
    "select-atom view sees the join-key candidate" true
    (List.exists
       (fun (r : View.relation) -> String.equal r.View.rel_name "ProfDeptJoin")
       (Viewmatch.candidates t select_view));
  Alcotest.(check bool)
    "equivalent pair flagged W0603" true
    (List.exists
       (fun d -> d.Diagnostic.code = "W0603")
       (Viewmatch.registry_lint t))

(* --- QCheck: random university queries ----------------------------- *)

(* Random connected queries over the university view, extended with
   duplicate-FROM-occurrence shapes that exercise key folding. *)
let query_gen =
  let open QCheck.Gen in
  let dup st =
    let rel, key, sel_attr, vals =
      List.nth
        [
          ("Professor", "PName", "Rank", [ "Full"; "Associate"; "Assistant" ]);
          ("Course", "CName", "Session", [ "Fall"; "Winter"; "Spring" ]);
        ]
        (int_bound 1 st)
    in
    let v = List.nth vals (int_bound (List.length vals - 1) st) in
    let triple = int_bound 3 st = 0 in
    if triple then
      Fmt.str
        "SELECT p.%s FROM %s p, %s q, %s r WHERE p.%s = q.%s AND q.%s = r.%s \
         AND q.%s = '%s'"
        key rel rel rel key key key key sel_attr v
    else
      Fmt.str "SELECT p.%s, p.%s FROM %s p, %s q WHERE p.%s = q.%s AND q.%s = '%s'"
        key sel_attr rel rel key key sel_attr v
  in
  let join st =
    (* (base query, how to attach an optional extra selection) *)
    let shapes =
      [
        ("SELECT p.PName FROM Professor p", " WHERE p.Rank = 'Full'");
        ( "SELECT p.PName, d.DName FROM Professor p, ProfDept d WHERE p.PName \
           = d.PName",
          " AND p.Rank = 'Full'" );
        ( "SELECT c.CName, i.PName FROM Course c, CourseInstructor i WHERE \
           c.CName = i.CName",
          " AND c.Session = 'Fall'" );
        ( "SELECT p.PName, d.DName FROM Professor p, ProfDept d, Dept e WHERE \
           p.PName = d.PName AND d.DName = e.DName",
          " AND p.Rank = 'Full'" );
      ]
    in
    let base, extra = List.nth shapes (int_bound (List.length shapes - 1) st) in
    if bool st then base ^ extra else base
  in
  fun st -> if int_bound 2 st = 0 then join st else dup st

let query_arb = QCheck.make ~print:Fun.id query_gen

let plan_pair sql =
  let q = parse sql in
  let st = Lazy.force stats in
  let raw = Planner.enumerate ~minimize:false schema st registry q in
  let minimized = Planner.enumerate schema st registry q in
  (raw, minimized)

let prop_minimize_preserves_rows =
  QCheck.Test.make ~name:"minimized query computes identical rows" ~count:40
    query_arb (fun sql ->
      let raw, minimized = plan_pair sql in
      let source = Eval.instance_source (Lazy.force instance) in
      let run (o : Planner.outcome) =
        rows_of
          (Planner.rename_output o (Eval.eval schema source o.Planner.best.Planner.expr))
      in
      run raw = run minimized)

(* Folding a duplicate occurrence lets the planner push its selection
   onto the one remaining navigation, so the minimized plan may
   legitimately read FEWER pages; it must never read a page the raw
   plan did not, and with nothing folded the sets must be identical. *)
let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let folded (minimized : Planner.outcome) =
  List.exists
    (fun d -> d.Diagnostic.code = "W0602")
    minimized.Planner.diagnostics

let prop_minimize_preserves_gets =
  QCheck.Test.make ~name:"minimized query reads no extra distinct pages"
    ~count:12 query_arb (fun sql ->
      let raw, minimized = plan_pair sql in
      let run (o : Planner.outcome) =
        let http = Websim.Http.connect uni.site in
        let src, urls = logged_source schema http in
        let rel =
          Planner.rename_output o (Eval.eval schema src o.Planner.best.Planner.expr)
        in
        (rows_of rel, urls ())
      in
      let rows_raw, gets_raw = run raw in
      let rows_min, gets_min = run minimized in
      rows_raw = rows_min
      && subset gets_min gets_raw
      && (folded minimized || gets_min = gets_raw))

let prop_contains_reflexive =
  QCheck.Test.make ~name:"containment is reflexive on candidate plans" ~count:30
    query_arb (fun sql ->
      let _, minimized = plan_pair sql in
      List.for_all
        (fun (p : Planner.plan) ->
          match Contain.of_expr p.Planner.expr with
          | None -> true (* outside the fragment: no claim *)
          | Some _ -> Contain.contains p.Planner.expr p.Planner.expr)
        minimized.Planner.candidates)

let prop_contains_transitive =
  QCheck.Test.make ~name:"containment is transitive on candidate plans"
    ~count:20 query_arb (fun sql ->
      let _, minimized = plan_pair sql in
      let plans =
        List.filteri (fun i _ -> i < 5) minimized.Planner.candidates
        |> List.map (fun (p : Planner.plan) -> p.Planner.expr)
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.for_all
                (fun c ->
                  (not (Contain.contains a b && Contain.contains b c))
                  || Contain.contains a c)
                plans)
            plans)
        plans)

let prop_restriction_contained =
  QCheck.Test.make ~name:"adding a selection yields a contained query" ~count:30
    query_arb (fun sql ->
      let q = parse sql in
      match q.Conjunctive.from with
      | { Conjunctive.alias; rel } :: _ ->
        let attr =
          match rel with
          | "Professor" -> Some "Rank"
          | "Course" -> Some "Session"
          | _ -> None
        in
        (match attr with
        | None -> true
        | Some a ->
          let restricted =
            {
              q with
              Conjunctive.where =
                Pred.eq_const (alias ^ "." ^ a) (Adm.Value.text "Full")
                :: q.Conjunctive.where;
            }
          in
          Contain.contains
            (Conjunctive.to_algebra restricted)
            (Conjunctive.to_algebra q))
      | [] -> true)

(* --- seeded three-site equivalence --------------------------------- *)

let seeds = [ 7; 21; 42 ]

let check_site name ~build ~queries seed =
  let ({ schema = site_schema; registry = view; site; _ } as bundle : Sitegen.Sites.t) =
    build seed
  in
  let st = Sitegen.Sites.stats bundle in
  List.iter
    (fun sql ->
      let q = Sql_parser.parse view sql in
      let raw = Planner.enumerate ~minimize:false site_schema st view q in
      let minimized = Planner.enumerate site_schema st view q in
      let run (o : Planner.outcome) =
        let http = Websim.Http.connect site in
        let src, urls = logged_source site_schema http in
        let rel =
          Planner.rename_output o
            (Eval.eval site_schema src o.Planner.best.Planner.expr)
        in
        (rows_of rel, urls ())
      in
      let rows_raw, gets_raw = run raw in
      let rows_min, gets_min = run minimized in
      Alcotest.(check (list (list string)))
        (Fmt.str "%s seed %d rows: %s" name seed sql)
        rows_raw rows_min;
      let fold_fired =
        List.exists
          (fun d -> d.Diagnostic.code = "W0602")
          minimized.Planner.diagnostics
      in
      if fold_fired then
        Alcotest.(check bool)
          (Fmt.str "%s seed %d GET subset: %s" name seed sql)
          true
          (List.for_all (fun u -> List.mem u gets_raw) gets_min)
      else
        Alcotest.(check (list string))
          (Fmt.str "%s seed %d GET set: %s" name seed sql)
          gets_raw gets_min)
    queries

let test_seeded_university () =
  List.iter
    (check_site "university"
       ~build:(fun seed ->
         Sitegen.Sites.load ~size:{ Sitegen.Sites.default_size with seed } University)
       ~queries:
         [
           fold_sql;
           "SELECT p.PName, d.DName FROM Professor p, ProfDept d WHERE p.PName \
            = d.PName AND d.DName = 'Computer Science'";
           "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'";
         ])
    seeds

let test_seeded_catalog () =
  List.iter
    (check_site "catalog"
       ~build:(fun seed ->
         Sitegen.Sites.of_catalog
           (Sitegen.Catalog.build ~config:{ Sitegen.Catalog.default_config with seed } ()))
       ~queries:
         [
           "SELECT p.PName, p.Price FROM Product p, Product q WHERE p.PName = \
            q.PName AND q.Price > 250";
           "SELECT p.PName, c.CatName FROM Product p, Category c WHERE \
            p.Category = c.CatName";
         ])
    seeds

let test_seeded_bibliography () =
  List.iter
    (check_site "bibliography"
       ~build:(fun seed ->
         Sitegen.Sites.of_bibliography
           (Sitegen.Bibliography.build
              ~config:{ Sitegen.Bibliography.default_config with seed }
              ()))
       ~queries:
         [
           "SELECT e.CName, e.Year FROM EditionPage e";
           "SELECT a.AName FROM AuthorPage a, AuthorPage b WHERE a.AName = \
            b.AName";
         ])
    seeds

(* --- plan_key against the full-enumeration reference --------------- *)

(* The reference key: the tableau serialized under every renumbering
   that permutes same-signature occurrences, lexicographic minimum,
   with the structural fallback past 720 renumberings — the key before
   groups were refined. [Contain.plan_key] must induce exactly the
   same partition of plans. *)
let reference_key (e : Nalg.expr) =
  let value_str v = Adm.Value.type_name v ^ ":" ^ Adm.Value.to_string v in
  let bound_str = function
    | None -> "_"
    | Some (v, s) -> (if s then "!" else "=") ^ value_str v
  in
  let occ_sig (t : Contain.tableau) i =
    let o = t.Contain.occs.(i) in
    let kind =
      match o.Contain.kind with
      | Contain.Entry_occ -> "E"
      | Contain.External_occ -> "X"
      | Contain.Follow_occ -> "F"
    in
    let steps =
      match o.Contain.kind with
      | Contain.Follow_occ -> (
        match List.find_opt (fun (_, _, d) -> d = i) t.Contain.navs with
        | Some (_, steps, _) -> String.concat "." steps
        | None -> "")
      | _ -> ""
    in
    kind ^ "/" ^ o.Contain.name ^ "/" ^ steps
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y <> x) l)))
        l
  in
  let serialize_under (t : Contain.tableau) pi outputs =
    let term_str (o, p) = string_of_int pi.(o) ^ "." ^ String.concat "." p in
    let sorted f l = List.map f l |> List.sort String.compare in
    let members (c : Contain.cls) = sorted term_str c.Contain.members in
    String.concat "|"
      [
        Array.to_list (Array.mapi (fun i _ -> (pi.(i), occ_sig t i)) t.Contain.occs)
        |> List.sort compare |> List.map snd |> String.concat ";";
        "N:"
        ^ String.concat ";"
            (sorted
               (fun (s, steps, d) ->
                 Fmt.str "%d>%s>%d" pi.(s) (String.concat "." steps) pi.(d))
               t.Contain.navs);
        "U:" ^ String.concat ";" (sorted term_str t.Contain.unnests);
        "C:"
        ^ String.concat ";"
            (sorted
               (fun (c : Contain.cls) ->
                 Fmt.str "{%s}b%s l%s h%s x%s"
                   (String.concat "," (members c))
                   (match c.Contain.binding with None -> "_" | Some v -> value_str v)
                   (bound_str c.Contain.lo) (bound_str c.Contain.hi)
                   (String.concat "," (List.map value_str c.Contain.excluded)))
               (Array.to_list t.Contain.classes));
        "R:"
        ^ String.concat ";"
            (sorted
               (fun (x, cmp, y) ->
                 term_str x ^ Pred.cmp_to_string cmp ^ term_str y)
               t.Contain.residuals);
        "O:"
        ^ String.concat ";"
            (List.map
               (fun o ->
                 match Hashtbl.find_opt t.Contain.cls_of o with
                 | Some i ->
                   "{" ^ String.concat "," (members t.Contain.classes.(i)) ^ "}"
                 | None -> term_str o)
               outputs);
      ]
  in
  let structural = "S:" ^ Nalg.canonical e in
  match Contain.of_expr e with
  | None -> structural
  | Some t when t.Contain.unsat -> (
    match t.Contain.outputs with
    | Some outputs -> Fmt.str "T:UNSAT:%d" (List.length outputs)
    | None -> structural)
  | Some t -> (
    match t.Contain.outputs with
    | None -> structural
    | Some outputs ->
      let n = Array.length t.Contain.occs in
      let groups =
        List.init n (fun i -> (occ_sig t i, i))
        |> List.sort compare
        |> List.fold_left
             (fun acc (s, i) ->
               match acc with
               | (s', is) :: rest when String.equal s s' -> (s', i :: is) :: rest
               | _ -> (s, [ i ]) :: acc)
             []
        |> List.rev_map (fun (_, is) -> List.rev is)
      in
      let count =
        List.fold_left
          (fun acc is ->
            let rec go acc k = if acc > 720 || k <= 1 then acc else go (acc * k) (k - 1) in
            go acc (List.length is))
          1 groups
      in
      if count > 720 then structural
      else
        let pi = Array.make n 0 in
        let best = ref None in
        let rec assign base = function
          | [] ->
            let s = serialize_under t pi outputs in
            if match !best with Some b -> String.compare s b < 0 | None -> true then
              best := Some s
          | is :: rest ->
            List.iter
              (fun perm ->
                List.iteri (fun k i -> pi.(i) <- base + k) perm;
                assign (base + List.length is) rest)
              (permutations is)
        in
        assign 0 groups;
        "T:" ^ Option.get !best)

(* Random university joins: the planning benchmark's five families
   (as pinned in [Test_planner]) with random constants, plus the
   generator above. *)
let join_family_gen =
  let open QCheck.Gen in
  let pick l st = List.nth l (int_bound (List.length l - 1) st) in
  let dept = pick [ "Computer Science"; "Mathematics"; "Physics" ] in
  let session = pick [ "Fall"; "Winter"; "Spring" ] in
  fun st ->
    match int_bound 5 st with
    | 0 -> Pins.dept_members (dept st)
    | 1 -> Pins.fig2 (dept st)
    | 2 -> Pins.ex71 (session st) (pick [ "Full"; "Associate"; "Assistant" ] st)
    | 3 -> Pins.ex72 (dept st) (pick [ "Graduate"; "Undergraduate" ] st)
    | 4 -> Pins.ex72_session (dept st) (session st)
    | _ -> query_gen st

(* Plans of the rewrite closures of the planner's reference (joins,
   then selections, sunk and pruned; [Pins.closure]). A closure lists its seeds first, then the plans it
   reaches breadth first; keeping the seeds plus the first 80 join and
   120 selection plans keeps each query's sample small. *)
let closure_plans sql =
  let memo = Memo.create schema (Stats.create ()) in
  let seeds =
    View.expand registry (Conjunctive.to_algebra (parse sql))
    |> List.map (fun e -> Planner.rule4_fixpoint memo (Memo.intern memo e))
  in
  let prefix seeds k plans = List.filteri (fun i _ -> i < List.length seeds + k) plans in
  let joins =
    prefix seeds 80 (Pins.closure memo Pins.join_rules seeds)
  in
  let selections = prefix joins 120 (Pins.closure memo [ Rewrite.rule6 ] joins) in
  List.map Memo.expr joins
  @ List.map
      (fun n ->
        let sunk = Memo.intern ~hint:n memo (Rewrite.sink_selections memo n) in
        Rewrite.prune memo sunk)
      selections

(* Each key is a function of the other over [plans]: the two induce
   the same partition. *)
let same_partition keys refs =
  let functional xs ys =
    let tbl = Hashtbl.create 64 in
    List.for_all2
      (fun x y ->
        match Hashtbl.find_opt tbl x with
        | Some y' -> String.equal y y'
        | None ->
          Hashtbl.add tbl x y;
          true)
      xs ys
  in
  functional keys refs && functional refs keys

let prop_plan_key_matches_reference =
  QCheck.Test.make ~name:"plan_key partitions closure plans like the reference key"
    ~count:24
    (QCheck.make ~print:Fun.id join_family_gen)
    (fun sql ->
      let plans = closure_plans sql in
      same_partition
        (List.map Contain.plan_key plans)
        (List.map reference_key plans))

(* Plans with one key have one hint, so classes told apart by their
   hints are never one class. *)
let prop_hint_follows_key =
  QCheck.Test.make ~name:"plans with equal keys have equal key hints" ~count:24
    (QCheck.make ~print:Fun.id join_family_gen)
    (fun sql ->
      let stages = List.map Contain.key_stages (closure_plans sql) in
      List.for_all
        (fun (h1, k1) ->
          List.for_all
            (fun (h2, k2) -> h1 = h2 || not (String.equal (Lazy.force k1) (Lazy.force k2)))
            stages)
        stages)

(* Renaming every alias (to names that sort the other way round)
   leaves the key unchanged. *)
let prop_plan_key_alias_invariant =
  QCheck.Test.make ~name:"plan_key is invariant under alias renaming" ~count:24
    (QCheck.make ~print:Fun.id join_family_gen)
    (fun sql ->
      List.for_all
        (fun e ->
          let renamed =
            List.fold_left
              (fun (e, k) alias ->
                (Nalg.rename_alias ~from:alias ~into:(Fmt.str "z%d_%s" k alias) e, k - 1))
              (e, 99) (Nalg.aliases e)
            |> fst
          in
          String.equal (Contain.plan_key e) (Contain.plan_key renamed))
        (closure_plans sql))

(* On a 4-way join the closure holds many isomorphic plans: the
   partition is far from trivial, and identical to the reference. *)
let test_plan_key_merges_like_reference () =
  let plans =
    closure_plans (Pins.ex72 "Physics" "Graduate")
  in
  let keys = List.map Contain.plan_key plans and refs = List.map reference_key plans in
  let distinct l = List.length (List.sort_uniq String.compare l) in
  Alcotest.(check bool) "isomorphic plans merge" true (distinct keys < List.length plans / 2);
  Alcotest.(check int) "as many keys as reference keys" (distinct refs) (distinct keys);
  Alcotest.(check bool) "same partition" true (same_partition keys refs)

let suite =
  ( "contain",
    [
      Alcotest.test_case "unsat_pred verdicts" `Quick test_unsat_pred;
      Alcotest.test_case "unsat_expr verdicts" `Quick test_unsat_expr;
      Alcotest.test_case "containment under refinement" `Quick
        test_contains_refinement;
      Alcotest.test_case "equivalence under permutation" `Quick
        test_equiv_permutation;
      Alcotest.test_case "closed bound is not an exclusion" `Quick
        test_closed_bound_is_not_exclusion;
      Alcotest.test_case "plan_key caps many-way self-joins" `Quick
        test_plan_key_many_way_self_join;
      Alcotest.test_case "plan_key merges like the reference key" `Quick
        test_plan_key_merges_like_reference;
      Alcotest.test_case "minimization folds key-equated duplicates" `Quick
        test_minimize_folds;
      Alcotest.test_case "minimization keeps non-key duplicates" `Quick
        test_minimize_keeps_distinct_occurrences;
      Alcotest.test_case "unsatisfiable query reported" `Quick
        test_unsat_diagnostic;
      Alcotest.test_case "registry subsumption lint" `Quick test_registry_lint;
      Alcotest.test_case "filter tree buckets join keys with select atoms"
        `Quick test_filter_tree_join_keys_vs_select_atoms;
      QCheck_alcotest.to_alcotest prop_minimize_preserves_rows;
      QCheck_alcotest.to_alcotest prop_minimize_preserves_gets;
      QCheck_alcotest.to_alcotest prop_contains_reflexive;
      QCheck_alcotest.to_alcotest prop_contains_transitive;
      QCheck_alcotest.to_alcotest prop_restriction_contained;
      QCheck_alcotest.to_alcotest prop_plan_key_matches_reference;
      QCheck_alcotest.to_alcotest prop_hint_follows_key;
      QCheck_alcotest.to_alcotest prop_plan_key_alias_invariant;
      Alcotest.test_case "seeded university minimize-equivalence (7/21/42)"
        `Slow test_seeded_university;
      Alcotest.test_case "seeded catalog minimize-equivalence (7/21/42)" `Slow
        test_seeded_catalog;
      Alcotest.test_case "seeded bibliography minimize-equivalence (7/21/42)"
        `Slow test_seeded_bibliography;
    ] )
