(* The pinned queries and their sites, shared by the planner tests and
   the golden-file programs of this directory ([planner_pins],
   [rule_outputs], [exec_trace]).

   The queries are the five join families of the planning benchmark on
   a 20-dept/400-prof/800-course/4-session university, two constant
   sets each, and every query the examples plan. [block] prints what
   the planner decides for one of them: the best plan, every
   candidate's cost in order, the explored count and the
   diagnostic codes, then the whole plan space —
   every candidate's cost, cardinality and plan text in order, and
   every diagnostic with its code, path and message. planner_pins.exe
   prints every block, and dune diffs that against
   planner_pins.expected: a change that only makes planning cheaper
   must leave all of it unchanged. *)

open Webviews

let join_site =
  lazy
    (Sitegen.Sites.of_university
       (Sitegen.University.build
          ~config:
            {
              Sitegen.University.default_config with
              Sitegen.University.n_depts = 20;
              n_profs = 400;
              n_courses = 800;
              n_sessions = 4;
            }
          ()))

let uni_site = lazy (Sitegen.Sites.load University)
let catalog_site = lazy (Sitegen.Sites.load Catalog)

(* Schema, registry and crawled statistics of a pinned site. *)
let parts site =
  let (s : Sitegen.Sites.t) = Lazy.force site in
  (s.schema, s.registry, Sitegen.Sites.stats s)

let dept_members dept =
  Printf.sprintf
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d WHERE p.PName = \
     d.PName AND d.DName = '%s'"
    dept

let fig2 dept =
  Printf.sprintf
    "SELECT c.CName, c.Description FROM Course c, CourseInstructor ci, \
     ProfDept pd WHERE c.CName = ci.CName AND ci.PName = pd.PName AND \
     pd.DName = '%s'"
    dept

let ex71 session rank =
  Printf.sprintf
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, \
     Course c WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session \
     = '%s' AND p.Rank = '%s'"
    session rank

let ex72 dept ctype =
  Printf.sprintf
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
     ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName \
     = pd.PName AND pd.DName = '%s' AND c.Type = '%s'"
    dept ctype

let ex72_session dept session =
  Printf.sprintf
    "SELECT c.CName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
     ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName \
     = pd.PName AND pd.DName = '%s' AND c.Session = '%s'"
    dept session

(* A 5-way join in a FROM order none of the five families has: the
   left-deep tree joins CourseInstructor with Dept before anything
   links them. On it the join groups reach the whole-plan closure's
   classes only with both the rotations against a child group's other
   members and the rewrites a new member catches up on from its
   children's groups; the five families need neither. *)
let chain5 =
  "SELECT c.CName, d.Address FROM CourseInstructor ci, Dept d, Professor p, \
   ProfDept pd, Course c WHERE c.CName = ci.CName AND ci.PName = p.PName AND \
   p.PName = pd.PName AND pd.DName = d.DName"

(* Every FROM order of [sql], the given one first (orders by position
   in the given FROM list, lexicographically), each labelled with its
   aliases in order, e.g. "c, ci, p, pd". *)
let from_orders sql =
  let index_of sub =
    let n = String.length sub in
    let rec go i = if String.sub sql i n = sub then i else go (i + 1) in
    go 0
  in
  let from = index_of " FROM " + 6 and where = index_of " WHERE " in
  let items = String.split_on_char ',' (String.sub sql from (where - from)) |> List.map String.trim in
  let rec orders = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (List.cons x) (orders (List.filter (( <> ) x) l))) l
  in
  let alias item = List.nth (String.split_on_char ' ' item) 1 in
  List.map
    (fun order ->
      ( String.concat ", " (List.map alias order),
        String.sub sql 0 from ^ String.concat ", " order
        ^ String.sub sql where (String.length sql - where) ))
    (orders items)

let cases =
  [
    ("dept-members/cs", join_site, dept_members "Computer Science");
    ("dept-members/d16", join_site, dept_members "Department 16");
    ("fig2/cs", join_site, fig2 "Computer Science");
    ("fig2/d12", join_site, fig2 "Department 12");
    ("ex7.1/fall-full", join_site, ex71 "Fall" "Full");
    ("ex7.1/summer-assistant", join_site, ex71 "Summer" "Assistant");
    ("ex7.2/cs-graduate", join_site, ex72 "Computer Science" "Graduate");
    ("ex7.2/physics-undergraduate", join_site, ex72 "Physics" "Undergraduate");
    ("ex7.2-session/cs-fall", join_site, ex72_session "Computer Science" "Fall");
    ("ex7.2-session/d20-winter", join_site, ex72_session "Department 20" "Winter");
    ("examples/quickstart", uni_site, dept_members "Computer Science");
    ("examples/optimizer_tour", uni_site, ex71 "Fall" "Full");
    ( "examples/materialized_views/cs-ranks",
      uni_site,
      "SELECT p.PName, p.Rank FROM Professor p, ProfDept d WHERE p.PName = \
       d.PName AND d.DName = 'Computer Science'" );
    ("examples/materialized_views/all", uni_site, "SELECT p.PName FROM Professor p");
    ( "examples/catalog_shopping/brand",
      catalog_site,
      "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND \
       p.Price < 50" );
    ( "examples/catalog_shopping/category",
      catalog_site,
      "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND \
       p.Price >= 400" );
    ( "examples/catalog_shopping/price",
      catalog_site,
      "SELECT p.PName FROM Product p WHERE p.Price > 495" );
  ]

(* One pin block: the case's name and query, then the outcome. Plans
   print on one line (line breaks escaped). *)
let block (name, site, sql) =
  let schema, registry, stats = parts site in
  let o = Planner.plan_sql schema stats registry sql in
  let one_line s = String.concat "\\n" (String.split_on_char '\n' s) in
  String.concat "\n"
    ([
      "query " ^ name;
      "sql " ^ sql;
      "best " ^ one_line (Nalg.to_string o.Planner.best.Planner.expr);
      "costs "
      ^ String.concat " "
          (List.map
             (fun (p : Planner.plan) -> Printf.sprintf "%.17g" p.Planner.cost)
             o.Planner.candidates);
      Printf.sprintf "explored %d" o.Planner.explored;
      "diagnostics "
      ^ String.concat ","
          (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) o.Planner.diagnostics);
    ]
    @ List.map
        (fun (p : Planner.plan) ->
          Printf.sprintf "candidate %.17g %.17g %s" p.Planner.cost p.Planner.card
            (one_line (Nalg.to_string p.Planner.expr)))
        o.Planner.candidates
    @ List.map
        (fun (d : Diagnostic.t) ->
          Printf.sprintf "diagnostic %s [%s] %s" d.Diagnostic.code
            (String.concat "/" d.Diagnostic.path)
            (one_line d.Diagnostic.message))
        o.Planner.diagnostics)

(* The seeds of [enumerate]'s join phase for a query, over one memo:
   its expansions, each with rule 4 applied to fixpoint. *)
let seeds memo registry sql =
  let q, _ = Contain.minimize_query registry (Sql_parser.parse registry sql) in
  View.expand registry (Conjunctive.to_algebra q)
  |> List.map (fun e -> Planner.rule4_fixpoint memo (Memo.intern memo e))

(* Closure of a seed set under one-step rewritings, deduplicated by
   memo node (structural identity): the seeds, then every plan
   reached, in breadth-first order. A closure applies the rules in list
   order, and each rule yields its outputs in pre-order, so the
   exploration order is fixed. Each rule output is interned against the
   plan it rewrote. *)
let closure memo (rules : Rewrite.rule list) (seeds : Memo.node list) =
  let seen = Memo.visit memo in
  let out = ref [] in
  let queue = Queue.create () in
  let add n =
    if Memo.first_visit seen n then begin
      out := n :: !out;
      Queue.add n queue
    end
  in
  List.iter add seeds;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter
      (fun rule -> List.iter (fun e' -> add (Memo.intern ~hint:n memo e')) (rule memo n))
      rules
  done;
  List.rev !out

(* The join phase's rules as whole-plan rewritings, in the order of
   [Planner.join_steps ~pointer_rules:true]. *)
let join_rules =
  [ Rewrite.rule4; Rewrite.join_commute; Rewrite.join_rotate; Rewrite.rules8_9; Rewrite.rule2 ]

(* The join phase as whole plans: the closure of the seeds under the
   join rules, every join order a plan of its own. The planner runs
   the phase over groups ([Planner.join_groups]); this is the
   reference it is held to. *)
let join_phase memo registry sql =
  closure memo join_rules (seeds memo registry sql)

(* The groups of [plans], as their sorted distinct ids: each plan is
   made a member of its group ([Memo.member]). A member added here is
   not explored, so call it after the join phase has run on [memo]. *)
let group_ids memo plans =
  List.map (fun n -> Memo.gid (Option.get (Memo.group_of (Memo.member ~fresh:ignore memo n)))) plans
  |> List.sort_uniq Int.compare

(* The root groups of the planner's join phase, one per class:
   the plans the selection and projection phases start from. *)
let representatives memo registry sql =
  Planner.join_groups memo (Planner.join_steps ~pointer_rules:true) (seeds memo registry sql)

(* The selection and projection phases as whole-plan closures from
   [seeds]: the closure under rule 6, its plans sunk (plain
   commutation, a group member into its group's cheapest member), and
   the closure under rule 7. The planner makes the rules' choices while
   it extracts one plan per class ([Planner.extract]); this is the
   reference it is held to. *)
let later_phases memo seeds =
  let selections = closure memo [ Rewrite.rule6 ] seeds in
  let sunk = List.map (Rewrite.sink memo) selections in
  let projections = closure memo [ Rewrite.rule7_replace ] sunk in
  (selections, sunk, projections)

(* The reference's candidates from [seeds]: the later phases'
   projection plans pruned, the well-typed ones, each once, in order. *)
let reference memo seeds =
  let _, _, projections = later_phases memo seeds in
  let seen = Memo.visit memo in
  List.filter_map
    (fun n ->
      let n = Memo.intern ~hint:n memo (Rewrite.prune memo n) in
      if Memo.first_visit seen n && not (Memo.has_errors memo n) then Some n else None)
    projections

(* Where the planner departs from the whole-plan reference on a query
   (no views, no binding patterns): per join class, when the candidate
   [Planner.extract] makes of the class's root group has another cost
   and cardinality than the least ones (by cost, then cardinality) of
   the reference's candidates from that group; and when the planner's
   best plan is not the reference's (the first of least cost of all
   classes' candidates, in the reference's order). Empty when it does
   not depart. *)
let extraction_mismatches schema stats registry sql =
  let memo = Memo.create schema stats in
  let roots = representatives memo registry sql in
  let est n =
    let e = Memo.estimate memo n in
    (e.Cost.cost, e.Cost.card)
  in
  let extract = Planner.extract memo in
  let per_class =
    List.filter_map
      (fun r ->
        let c = extract r in
        match List.map est (reference memo [ r ]) with
        | [] ->
          if Memo.has_errors memo c then None
          else
            Some
              (Printf.sprintf "class %d: a well-typed candidate, none in the reference" (Memo.id r))
        | e :: es ->
          let cost, card = List.fold_left min e es in
          let cost', card' = est c in
          if cost = cost' && card = card' then None
          else
            Some
              (Printf.sprintf "class %d: candidate cost %g card %g, reference least cost %g card %g"
                 (Memo.id r) cost' card' cost card))
      roots
  in
  let best =
    match
      List.stable_sort
        (fun x y -> Float.compare (fst (est x)) (fst (est y)))
        (reference memo roots)
    with
    | [] -> []
    | b :: _ ->
      let o = Planner.plan_sql schema stats registry sql in
      if Nalg.equal (Memo.expr b) o.Planner.best.Planner.expr then []
      else
        [
          Printf.sprintf "best plan %s, reference best %s"
            (Nalg.to_string o.Planner.best.Planner.expr)
            (Nalg.to_string (Memo.expr b));
        ]
  in
  per_class @ best
