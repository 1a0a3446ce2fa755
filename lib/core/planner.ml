(* Plan selection (Algorithm 1, Section 6.3):

   1. translate the conjunctive query into relational algebra over
      external relations;
   2. replace each external relation with its default navigations in
      all possible ways (rule 1);
   3. eliminate repeated navigations (rule 4);
   4. push and prune joins (rules 8 and 9) over groups, one root group
      per equivalence class;
   5. push selections (rule 6 + commutation);
   6/7. push projections and eliminate unnecessary navigations
      (rules 7, 3, 5 — the [prune] pass);
   8. estimate the cost of every candidate and pick the cheapest.
   Steps 5–7 extract one candidate per class ([extract]). *)

type plan = { expr : Nalg.expr; cost : float; card : float }

(* A registered-view access path offered to the enumeration: the
   filter tree finds subsuming views, the economics snapshot prices
   them, and the typed environments let the soundness gate accept
   plans whose leaves are view scans. *)
type view_context = {
  vc_index : Viewmatch.t;
  vc_econ : Cost.view_econ;
  vc_env : string -> Typecheck.env option;
}

(* Provenance of one view substitution in a chosen plan: which
   registered view answers which query occurrence, the residual
   predicate the executor still applies above the scan, and the
   priced HEAD/GET wire split of the scan. *)
type substitution = {
  sub_view : string;
  sub_alias : string;
  sub_residual : Pred.t;
  sub_heads : float;
  sub_gets : float;
}

type outcome = {
  best : plan;
  candidates : plan list; (* all candidates, sorted by cost *)
  explored : int;
  merged : int;
      (* always 0: a class is a memo group, so no candidate is merged
         after the join phase; kept for the end-to-end benchmark's
         planner.merged counter (bench/e2e/workloads.ml) *)
  select : string list; (* the query's output attributes, in order *)
  view_used : substitution list;
      (* view substitutions of the best plan, one per External leaf;
         empty when the cost race chose pure navigation *)
  diagnostics : Diagnostic.t list;
      (* findings of the enumeration: E0402/E0403 when a rewrite step
         failed the soundness check, E0404 for candidates rejected as
         ill-typed before costing, E0601/W0602 from input-query
         minimization, W0605 when the best plan answers from a
         materialized view *)
}

(* Candidate plans name their output columns after the page-scheme
   occurrences they navigate, which differ between plans (aliasing);
   the projection order, however, always follows the query's SELECT
   list. Rebuild the header positionally with the user's names — this
   also copes with plans where rule 4 merged two SELECT columns onto
   the same plan attribute (duplicate projection names). *)
let rename_output (o : outcome) rel =
  let attrs = Adm.Relation.attrs rel in
  if List.length attrs = List.length o.select then
    Adm.Relation.of_arrays o.select (Adm.Relation.rows_arrays rel)
  else rel

(* The join rules at one position, for the join groups: each output
   comes with the renaming of attribute names it applies above the
   rewritten join, rule 4's or the identity. *)
type join_step = (Nalg.expr * (string -> string)) Rewrite.at

let plain at m w i = List.map (fun e -> (e, Fun.id)) (at m w i)

let join_steps ~pointer_rules =
  [ Rewrite.rule4_at; plain Rewrite.join_commute_at; plain Rewrite.join_rotate_at ]
  @ if pointer_rules then [ plain Rewrite.rules8_9_at; plain Rewrite.rule2_at ] else []

(* A rewrite of one group into another, to be applied to every
   operator over it: the operator over the new group, its attribute
   names renamed, and dropped when it still references an alias the
   rewrite removed (rule 9's side condition; rule 4 renames its
   dropped aliases away). *)
type edge = { into : Memo.group; rename : string -> string; gone : string list }

(* Step 4 over groups (Algorithm 1 keeps one plan per equivalence
   class; Goldstein–Larson's Cascades-style memo): the join phase's
   plans are the groups' members. Each step matches at one member's
   own operator; rotation, whose pattern reaches a child's operator,
   also matches with each member of that child's group in its place.
   An output in the member's group (commutation, rotation) is one
   more member; an output in another group (rules 4, 8/9 and 2) is a
   rewrite of the group, which reaches every operator over it, up to
   the plans' roots. Each member is explored once, so a rewrite the
   groups already hold spawns nothing. Returns the witness of every
   root group — one plan of the join phase up to join order — in the
   order they were reached. [judge] sees each member a step adds to its
   own group with the plan it was rewritten from, [~by_name:true] (a
   reordering permutes the columns of a join, which only a root's
   projection puts in order), and each root reached from another root
   with its parent root, [~by_name:false]. *)
let join_groups ?(judge = fun ~by_name:_ ~parent:_ ~child:_ -> ()) memo
    (steps : join_step list) seeds =
  let rotation = [ plain Rewrite.join_rotate_at ] in
  let queue = Queue.create () and added = ref 0 in
  let member n = Memo.member ~fresh:(fun c -> incr added; Queue.add c queue) memo n in
  let group n = Option.get (Memo.group_of n) in
  let roots = ref [] and is_root = Hashtbl.create 16 in
  let root g =
    if not (Hashtbl.mem is_root (Memo.gid g)) then begin
      Hashtbl.add is_root (Memo.gid g) ();
      roots := g :: !roots
    end
  in
  let edges = Hashtbl.create 64 in
  let edges_of g = Option.value (Hashtbl.find_opt edges (Memo.gid g)) ~default:[] in
  (* [p], a member over [g], over [edge.into] instead *)
  let rec propagate p g edge =
    let kids =
      List.map (fun k -> if group k == g then Memo.witness edge.into else k) (Memo.kids p)
    in
    let n = Memo.make memo (Memo.expr p) kids in
    let n =
      if edge.rename == Fun.id then n
      else Memo.make memo (Nalg.rename_attrs edge.rename (Memo.expr n)) kids
    in
    if edge.gone = [] || not (Rewrite.references_any_alias (Memo.expr n) edge.gone) then begin
      let p' = member n in
      let h = group p in
      if Hashtbl.mem is_root (Memo.gid h) then begin
        root (group p');
        judge ~by_name:false ~parent:p ~child:p'
      end;
      add_edge h { edge with into = group p' }
    end
  and add_edge g edge =
    let known = edges_of g in
    if
      edge.into != g
      && not
           (List.exists
              (fun e -> e.into == edge.into && e.rename == edge.rename && e.gone = edge.gone)
              known)
    then begin
      Hashtbl.replace edges (Memo.gid g) (edge :: known);
      List.iter (fun p -> propagate p g edge) (Memo.parents g)
    end
  in
  (* [steps] at the root of [n], a plan of group [g] *)
  let rewrite steps g n =
    let w = Memo.walk memo n in
    List.iter
      (fun step ->
        List.iter
          (fun (e, rename) ->
            let before = !added in
            let c = member (Memo.intern ~hint:n memo e) in
            if group c == g then begin
              (* once per member: only when this step added it *)
              if !added > before then judge ~by_name:true ~parent:n ~child:c
            end
            else begin
              let kept = Nalg.aliases (Memo.expr c) in
              let gone =
                List.filter (fun a -> not (List.mem a kept)) (Nalg.aliases (Memo.expr n))
              in
              add_edge g { into = group c; rename; gone }
            end)
          (step memo w 0))
      steps
  in
  (* [n] with child [i] replaced by [q] *)
  let with_kid n i q =
    Memo.make memo (Memo.expr n) (List.mapi (fun j k -> if j = i then q else k) (Memo.kids n))
  in
  List.iter (fun s -> root (group (member s))) seeds;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    let g = group p in
    List.iter (fun k -> List.iter (propagate p (group k)) (edges_of (group k))) (Memo.kids p);
    match Memo.expr p with
    | Nalg.Join _ ->
      rewrite steps g p;
      (* rotation, the one pattern that reaches a child's operator:
         the members of each child's group under [p], and [p] under
         each join over its group *)
      List.iteri
        (fun i k ->
          List.iter
            (fun q -> if q != k then rewrite rotation g (with_kid p i q))
            (Memo.members (group k)))
        (Memo.kids p);
      List.iter
        (fun parent ->
          match Memo.expr parent with
          | Nalg.Join _ ->
            List.iteri
              (fun i k ->
                if group k == g && k != p then
                  rewrite rotation (group parent) (with_kid parent i p))
              (Memo.kids parent)
          | _ -> ())
        (Memo.parents g)
    | _ -> ()
  done;
  List.rev_map Memo.witness !roots

(* Rule 4 to its fixpoint, taking its first output each round. The
   recursion ends without a cap: each step replaces a join with one of
   its operands, so every output has one join fewer than its input. *)
let rec rule4_fixpoint memo n =
  match Rewrite.rule4 memo n with
  | [] -> n
  | e' :: _ -> rule4_fixpoint memo (Memo.intern ~hint:n memo e')

(* Steps 5–7 for one class, from its root group: sink the selections
   into the cheapest member of every group and the cheapest rule-6
   form, then prune in the cheapest rule-7 form. [extract m] keeps its
   sinking choices for every class it is applied to. *)
let extract ?(constraint_selections = true) memo =
  let sink = Rewrite.sink ~rule6:constraint_selections memo in
  fun root ->
    let n = sink root in
    Memo.intern ~hint:n memo (Rewrite.prune ~rule7:true memo n)

(* The residual predicate of a view substitution: the selection atoms
   of the plan that reference the substituted occurrence's alias —
   what the executor still filters above the view scan. *)
let residual_of (e : Nalg.expr) alias : Pred.t =
  let prefix = alias ^ "." in
  let refers a =
    String.length a > String.length prefix
    && String.sub a 0 (String.length prefix) = prefix
  in
  Nalg.fold
    (fun acc n ->
      match n with
      | Nalg.Select (p, _) ->
        List.filter (fun atom -> List.exists refers (Pred.atom_attrs atom)) p
        @ acc
      | _ -> acc)
    [] e
  |> Pred.normalize

(* The view substitutions a plan answers from: one per External leaf
   the economics snapshot prices (and therefore the executor can
   scan), with the HEAD/GET wire split that price predicts. *)
let substitutions_of (views : view_context option) (e : Nalg.expr) :
    substitution list =
  match views with
  | None -> []
  | Some vc ->
    List.filter_map
      (fun (name, alias) ->
        match vc.vc_econ.Cost.view name with
        | None -> None
        | Some v ->
          let heads = v.Cost.view_pages *. v.Cost.view_stale in
          Some
            {
              sub_view = name;
              sub_alias = alias;
              sub_residual = residual_of e alias;
              sub_heads = heads;
              sub_gets = heads *. v.Cost.view_change;
            })
      (Nalg.externals e)

let enumerate ?(pointer_rules = true) ?(constraint_selections = true)
    ?(minimize = true) ?views ?bindings (schema : Adm.Schema.t)
    (stats : Stats.t) (registry : View.registry) (q : Conjunctive.t) : outcome =
  (* [pointer_rules] and [constraint_selections] exist for ablation
     studies: without rules 8/9 (resp. rule 6) the planner falls back
     to the constraint-blind plans. *)
  let diagnostics = ref [] in
  let diag d = diagnostics := d :: !diagnostics in
  (* View access paths: the economics snapshot prices materialized
     views; an External leaf it knows is a legitimate scan, not a
     computability failure. *)
  let econ =
    match views with Some vc -> vc.vc_econ | None -> Cost.no_views
  in
  let known name = econ.Cost.view name <> None in
  (* One interned memo per call: every plan's nodes and their
     properties, dropped on return. *)
  let memo =
    Memo.create
      ?views:(Option.map (fun vc -> vc.vc_env) views)
      ~econ schema stats
  in
  (* Rewrite soundness (E0402/E0403): each distinct child plan judged
     once, against the first plan rewritten into it. *)
  let judge ~by_name ~parent ~child =
    (* an ill-typed parent gets no verdict, as in [Typecheck.judge] *)
    if Memo.first_judgment child && not (Memo.has_errors memo parent) then
      List.iter diag
        ((if by_name then Typecheck.judge_reordering else Typecheck.judge)
           ~parent:(Memo.infer memo parent) ~child:(Memo.infer memo child))
  in
  (* Semantic minimization first (Contain): fold FROM occurrences
     equated on declared keys (bag-sound), normalize the WHERE
     conjunction, report provable emptiness. The minimized query has
     the same select arity and position-wise the same output values,
     so [rename_output] keeps working with the original SELECT. *)
  let q_plan =
    if minimize then begin
      let q', ds = Contain.minimize_query registry q in
      List.iter diag ds;
      (* a query proved unsatisfiable is planned with the always-false
         atom for its WHERE, which sinking puts on an entry page *)
      if List.exists (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code "E0601") ds then
        { q' with Conjunctive.where = [ Pred.falsum ] }
      else q'
    end
    else q
  in
  let base = Conjunctive.to_algebra q_plan in
  (* Step 2: rule 1 *)
  let expanded = View.expand registry base in
  (* Step 2': rule 1 generalized to access paths — each occurrence may
     also resolve to a scan of a materialized view that subsumes it
     (itself, or a registered view the filter tree proves equivalent
     on the occurrence's attributes). These plans keep External leaves
     and bypass the navigation rewrites below: the rewrite rules
     reason over page navigations, and a view scan exposes none. They
     rejoin the pipeline at the costing stage, where the economics
     snapshot prices their staleness against pure navigation. *)
  let view_plans =
    match views with
    | None -> []
    | Some vc ->
      let scans (rel : View.relation) ~alias =
        let self =
          if known rel.View.rel_name then
            [ Nalg.external_ ~alias rel.View.rel_name ]
          else []
        in
        let subsumed =
          Viewmatch.subsumers vc.vc_index rel
          |> List.filter_map (fun (g : View.relation) ->
                 if known g.View.rel_name then
                   Some (Nalg.external_ ~alias g.View.rel_name)
                 else None)
        in
        self @ subsumed
      in
      View.expand_access registry ~scans base
      |> List.filter (fun e -> Nalg.externals e <> [])
  in
  (* Step 3: rule 4 to fixpoint on each expansion (cheap first pass) *)
  let merged =
    List.map (fun e -> rule4_fixpoint memo (Memo.intern memo e)) expanded
  in
  (* Step 4: join reordering and rules 4, 8, 9 (and 2) over groups;
     a group is Algorithm 1's equivalence class, so the later phases
     start from one root group per class *)
  let representatives = join_groups ~judge memo (join_steps ~pointer_rules) merged in
  (* Steps 5–7: one candidate per class, judged against the class's
     plan *)
  let extract = extract ~constraint_selections memo in
  let extracted =
    List.map
      (fun r ->
        let n = extract r in
        judge ~by_name:false ~parent:r ~child:n;
        n)
      representatives
  in
  (* Step 2'': binding-pattern access paths — on sites whose data sits
     behind parameterized forms, an equivalent-rewriting search over
     the registered path views (see {!Bindings}) supplies chains of
     [Call] operators answering the query with every input bound.
     Like view scans, they bypass the navigation rewrites (the rules
     reason over link structure, which a call does not expose) and
     rejoin at the costing stage as ordinary candidates. The hook is
     function-typed so the search can live above this library. *)
  let binding_plans =
    match bindings with None -> [] | Some f -> f q_plan
  in
  (* structural dedup; typecheck gate. Computability is relaxed to
     access paths: a plan may keep External leaves when every one
     names a view the economics snapshot prices (the executor answers
     those from the store). *)
  let seen = Memo.visit memo in
  let gate plans =
    List.filter (Memo.first_visit seen) plans
    |> List.filter (fun n ->
           List.for_all (fun (name, _) -> known name) (Nalg.externals (Memo.expr n)))
    |> List.filter (fun n ->
           if Memo.has_errors memo n then begin
             diag
               (Diagnostic.error ~code:"E0404"
                  "rejected ill-typed candidate plan %s" (Nalg.to_string (Memo.expr n)));
             false
           end
           else true)
  in
  (* the view scans and binding-pattern plans bypassed the phases and
     rejoin here *)
  let bypassing = List.map (Memo.intern memo) (view_plans @ binding_plans) in
  let candidates =
    List.map
      (fun n ->
        let est = Memo.estimate memo n in
        { expr = Memo.expr n; cost = est.Cost.cost; card = est.Cost.card })
      (gate (extracted @ bypassing))
    |> List.stable_sort (fun p1 p2 -> Float.compare p1.cost p2.cost)
  in
  match candidates with
  | [] -> invalid_arg "Planner.enumerate: no computable plan"
  | best :: _ ->
    let view_used = substitutions_of views best.expr in
    List.iter
      (fun s ->
        diag
          (Diagnostic.warning ~code:"W0605"
             "best plan answers occurrence %s from materialized view %s \
              (≈%.1f HEAD, ≈%.1f GET)"
             s.sub_alias s.sub_view s.sub_heads s.sub_gets))
      view_used;
    {
      best;
      candidates;
      explored = List.length extracted + List.length bypassing;
      merged = 0;
      select = q.Conjunctive.select;
      view_used;
      diagnostics = List.rev !diagnostics;
    }

let plan_sql ?pointer_rules ?constraint_selections ?minimize ?views
    ?bindings schema stats registry sql =
  enumerate ?pointer_rules ?constraint_selections ?minimize ?views
    ?bindings schema stats registry
    (Sql_parser.parse registry sql)

(* Plan and execute a SQL query against a page source. Returns the
   chosen plan and the result. [views] opens registered-view access
   paths to the enumeration; a chosen view scan is answered by the
   source's own view answerer. *)
let run ?views ?bindings schema stats registry source sql =
  let outcome = plan_sql ?views ?bindings schema stats registry sql in
  (outcome, rename_output outcome (Eval.eval schema source outcome.best.expr))
