(* Human-readable plan explanations: the query-plan tree annotated
   with the cost model's estimates, in the spirit of the paper's
   Figures 2–4. *)

let pp_annotated ?(views = Cost.no_views) (schema : Adm.Schema.t)
    (stats : Stats.t) ppf (root : Nalg.expr) =
  let est e = Cost.estimate ~views schema stats root e in
  let rec go indent ppf e =
    let pad = String.make indent ' ' in
    let { Cost.cost; card } = est e in
    let note = Fmt.str "  {card≈%.1f, cost=%.1f}" card cost in
    let adorned scheme =
      (* binding adornment of the page-scheme when it is parameterized:
         DeptProfsPage^bff reads "first input bound, outputs free" *)
      match Adm.Schema.find_scheme schema scheme with
      | Some ps when Adm.Page_scheme.is_parameterized ps ->
        Fmt.str "%s^%s" scheme (Adm.Page_scheme.adornment ps)
      | Some _ | None -> scheme
    in
    match (e : Nalg.expr) with
    | Nalg.Entry { scheme; alias } ->
      Fmt.pf ppf "%s%s%s%s@," pad (adorned scheme)
        (if String.equal scheme alias then "" else " as " ^ alias)
        note
    | Nalg.External { name; _ } -> (
      match views.Cost.view name with
      | Some _ -> Fmt.pf ppf "%sview-scan %s%s@," pad name note
      | None -> Fmt.pf ppf "%sext:%s (not computable)@," pad name)
    | Nalg.Call { c_src; c_scheme; c_alias; c_args } -> (
      Fmt.pf ppf "%s⇒ %s [@[<h>%a@]]%s%s@," pad (adorned c_scheme) Nalg.pp_args c_args
        (if String.equal c_scheme c_alias then "" else " as " ^ c_alias)
        note;
      match c_src with None -> () | Some src -> go (indent + 2) ppf src)
    | Nalg.Select (p, e1) ->
      Fmt.pf ppf "%sσ %a%s@,%a" pad Pred.pp p note (go (indent + 2)) e1
    | Nalg.Project (attrs, e1) ->
      Fmt.pf ppf "%sπ %a%s@,%a" pad Fmt.(list ~sep:(any ", ") string) attrs note
        (go (indent + 2)) e1
    | Nalg.Join (keys, e1, e2) ->
      let pp_key ppf (a, b) = Fmt.pf ppf "%s=%s" a b in
      Fmt.pf ppf "%s⋈ %a%s@,%a%a" pad Fmt.(list ~sep:(any ", ") pp_key) keys note
        (go (indent + 2)) e1 (go (indent + 2)) e2
    | Nalg.Unnest (e1, a) -> Fmt.pf ppf "%s◦ %s%s@,%a" pad a note (go (indent + 2)) e1
    | Nalg.Follow { src; link; scheme; alias } ->
      Fmt.pf ppf "%s→ %s [via %s]%s%s@,%a" pad scheme link
        (if String.equal scheme alias then "" else " as " ^ alias)
        note (go (indent + 2)) src
  in
  Fmt.pf ppf "@[<v>%a@]" (go 0) root

(* The physical tree, annotated per operator with the cost model's
   estimates and — when the plan has been run — the executor's actual
   rows, batches and page accesses next to them, so a prediction that
   went wrong is visible on the exact operator that missed. *)
let pp_physical ?estimates ?metrics () ppf (plan : Physplan.plan) =
  let note (o : Physplan.op) =
    let est =
      match estimates with
      | Some ests ->
        let { Physplan.est_rows; est_pages } = ests.(o.Physplan.id) in
        if est_pages > 0.0 then
          Fmt.str "est rows≈%.1f, pages≈%.1f" est_rows est_pages
        else Fmt.str "est rows≈%.1f" est_rows
      | None -> ""
    in
    let actual =
      match metrics with
      | None -> ""
      | Some (m : Exec.metrics) ->
        let om = m.Exec.ops.(o.Physplan.id) in
        if om.Exec.pages > 0 then
          Fmt.str "actual rows=%d, batches=%d, pages=%d" om.Exec.rows_out
            om.Exec.batches_out om.Exec.pages
        else Fmt.str "actual rows=%d, batches=%d" om.Exec.rows_out om.Exec.batches_out
    in
    match est, actual with
    | "", "" -> ""
    | e, "" | "", e -> Fmt.str "  {%s}" e
    | e, a -> Fmt.str "  {%s | %s}" e a
  in
  Physplan.pp_noted note ppf plan

(* One-line operator label, for pointing diagnostics at plan nodes
   without printing whole subtrees. *)
let node_label (e : Nalg.expr) =
  match e with
  | Nalg.Entry { scheme; alias } ->
    if String.equal scheme alias then scheme else Fmt.str "%s as %s" scheme alias
  | Nalg.External { name; _ } -> Fmt.str "ext:%s" name
  | Nalg.Select (p, _) -> Fmt.str "σ %s" (Pred.to_string p)
  | Nalg.Project (attrs, _) -> Fmt.str "π %s" (String.concat ", " attrs)
  | Nalg.Join (keys, _, _) ->
    Fmt.str "⋈ %s"
      (String.concat ", " (List.map (fun (a, b) -> Fmt.str "%s=%s" a b) keys))
  | Nalg.Unnest (_, a) -> Fmt.str "◦ %s" a
  | Nalg.Follow { link; scheme; _ } -> Fmt.str "→ %s via %s" scheme link
  | Nalg.Call { c_scheme; c_args; _ } ->
    Fmt.str "⇒ %s [%s]" c_scheme (Fmt.str "%a" Nalg.pp_args c_args)

(* Graphviz rendering of a query plan, one node per operator, in the
   visual style of the paper's figures (page relations as boxes, link
   operators as upward edges). *)
let to_dot (root : Nalg.expr) : string =
  let buf = Buffer.create 512 in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Fmt.str "n%d" !counter
  in
  let escape s =
    String.concat "\\\"" (String.split_on_char '"' s)
  in
  let node id label shape =
    Buffer.add_string buf
      (Fmt.str "  %s [label=\"%s\", shape=%s];\n" id (escape label) shape)
  in
  let edge a b = Buffer.add_string buf (Fmt.str "  %s -> %s;\n" a b) in
  let shape : Nalg.expr -> string = function
    | Nalg.Entry _ | Nalg.External _ | Nalg.Follow _ | Nalg.Call _ -> "box"
    | Nalg.Join _ -> "diamond"
    | Nalg.Select _ | Nalg.Project _ | Nalg.Unnest _ -> "ellipse"
  in
  let rec walk e =
    let id = fresh () in
    node id (node_label e) (shape e);
    List.iter (fun kid -> edge id (walk kid)) (Nalg.children e);
    id
  in
  Buffer.add_string buf "digraph plan {\n  rankdir=BT;\n";
  let (_ : string) = walk root in
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Diagnostic location                                                 *)
(* ------------------------------------------------------------------ *)

(* Walk a diagnostic's path (see {!Diagnostic.t}) down the expression
   tree to the operator it points at. *)
let locate (root : Nalg.expr) (path : string list) : Nalg.expr option =
  let rec go e = function
    | [] -> Some e
    | step :: rest -> (
      match step, (e : Nalg.expr) with
      | "select", Nalg.Select (_, e1) -> go e1 rest
      | "project", Nalg.Project (_, e1) -> go e1 rest
      | "join.left", Nalg.Join (_, e1, _) -> go e1 rest
      | "join.right", Nalg.Join (_, _, e2) -> go e2 rest
      | "unnest", Nalg.Unnest (e1, _) -> go e1 rest
      | "follow", Nalg.Follow { src; _ } -> go src rest
      | "call", Nalg.Call { c_src = Some src; _ } -> go src rest
      | _, (Nalg.Entry _ | Nalg.External _ | Nalg.Select _ | Nalg.Project _
           | Nalg.Join _ | Nalg.Unnest _ | Nalg.Follow _ | Nalg.Call _) ->
        None)
  in
  go root path

(* Strategy classification for the Section 7 experiments: a plan that
   joins link sets follows the pointer-join approach; a pure
   navigation plan is a pointer chase. *)
type strategy = Pointer_join | Pointer_chase

let strategy (e : Nalg.expr) =
  let has_join =
    Nalg.fold
      (fun acc n -> acc || match n with Nalg.Join _ -> true | _ -> false)
      false e
  in
  if has_join then Pointer_join else Pointer_chase

let strategy_name = function
  | Pointer_join -> "pointer-join"
  | Pointer_chase -> "pointer-chase"

(* The cheapest candidate of each strategy, if any. *)
let best_of_strategy (o : Planner.outcome) s =
  List.find_opt (fun (p : Planner.plan) -> strategy p.Planner.expr = s) o.Planner.candidates

(* One-line summary of a planner outcome, plus one line per view
   substitution the winning plan carries. *)
let pp_outcome ppf (o : Planner.outcome) =
  Fmt.pf ppf "@[<v>%d candidate plans, best cost %.2f"
    (List.length o.Planner.candidates)
    o.Planner.best.Planner.cost;
  if o.Planner.merged > 0 then
    Fmt.pf ppf " (%d equivalent candidate(s) merged)" o.Planner.merged;
  (match o.Planner.diagnostics with
  | [] -> ()
  | ds -> Fmt.pf ppf " (%s)" (Diagnostic.summary ds));
  List.iter
    (fun (s : Planner.substitution) ->
      Fmt.pf ppf "@,  occurrence %s ← view %s (≈%.1f HEAD, ≈%.1f GET)%a"
        s.Planner.sub_alias s.Planner.sub_view s.Planner.sub_heads s.Planner.sub_gets
        (fun ppf (p : Pred.t) ->
          if p <> [] then Fmt.pf ppf ", residual σ[%a]" Pred.pp p)
        s.Planner.sub_residual)
    o.Planner.view_used;
  Fmt.pf ppf "@]"

(* Runtime report of an evaluation through the fetch engine: the
   merged cost ledger — page accesses and fetch work in one record. *)
let pp_fetch_report ppf (r : Eval.fetch_report) =
  Fmt.pf ppf "@[<v>rows: %d@,%a@]"
    (Adm.Relation.cardinality r.Eval.result)
    Websim.Fetcher.pp_report r.Eval.fetch

(* Tabulate all candidates with their costs, one line each. *)
let pp_candidates ppf (o : Planner.outcome) =
  let pp_one ppf (i, (p : Planner.plan)) =
    Fmt.pf ppf "#%d  cost=%8.2f  @[<h>%a@]" i p.Planner.cost Nalg.pp p.Planner.expr
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_one)
    (List.mapi (fun i p -> (i + 1, p)) o.Planner.candidates)
