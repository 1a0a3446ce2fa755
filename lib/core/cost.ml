(* The cost model of Section 6.2. The only costly operation is a
   network page access:

     C(entry point) = 1
     C(R →L P)      = |π_L(R)|   (distinct outgoing links followed)
     C(σ), C(π), C(⋈), C(◦) = 0

   Cardinalities of intermediate results are estimated with the
   paper's Step-1 rules. One deviation, recorded in EXPERIMENTS.md:
   the paper's table states |R →L P| = |P|, but every worked example
   in Section 7 computes subsequent costs from the *source*
   cardinality (each link reaches exactly one page, URL being a key),
   so we use |R →L P| = |R|, which reproduces the paper's numbers. *)

type estimate = { cost : float; card : float }

(* ------------------------------------------------------------------ *)
(* View-scan economics (paper Section 8, Function 2)                   *)
(* ------------------------------------------------------------------ *)

(* A registered materialized view priced as an access path. URLCheck
   weighs a light connection (HEAD) at 1 against a download (GET) at
   10, so answering from the store costs, per stale page, one HEAD —
   plus a full GET with the probability the page actually changed
   since the access date. Fresh entries cost nothing on the wire. *)
type view_cost = {
  view_rows : float; (* estimated rows the scan yields *)
  view_pages : float; (* pages materialized under the view *)
  view_stale : float; (* fraction of pages older than max_age, 0..1 *)
  view_change : float; (* observed per-check change probability, 0..1 *)
  view_attrs : string list; (* declared attributes, unqualified *)
}

type view_econ = {
  head_unit : float; (* HEAD weight relative to GET = 1.0 (Function 2: 0.1) *)
  view : string -> view_cost option;
}

let no_views = { head_unit = 0.1; view = (fun _ -> None) }

let view_scan_cost (econ : view_econ) (vc : view_cost) =
  vc.view_pages *. vc.view_stale *. (econ.head_unit +. vc.view_change)

let attr_path (e : Nalg.expr) attr =
  match Nalg.constraint_path_of_attr e attr with
  | Some (path, _alias) -> Some path
  | None -> None

(* c_A for an attribute of the current expression, resolved through
   the alias environment; None when the statistics don't know it. *)
let distinct_of (stats : Stats.t) (root : Nalg.expr) attr =
  match attr_path root attr with
  | None -> None
  | Some p ->
    let k = Stats.key p.Adm.Constraints.scheme p.Adm.Constraints.steps in
    if Stats.has_distinct stats k then Some (Stats.distinct stats k) else None

let selectivity_of_atom stats root (a : Pred.atom) =
  let attr_side =
    match a.Pred.left, a.Pred.right with
    | Pred.Attr attr, Pred.Const _ | Pred.Const _, Pred.Attr attr -> Some attr
    | Pred.Attr _, Pred.Attr _ | Pred.Const _, Pred.Const _ -> None
  in
  match a.Pred.cmp with
  | Pred.Eq -> (
    match attr_side with
    | Some attr -> (
      match distinct_of stats root attr with
      | Some c -> 1.0 /. float_of_int (max 1 c)
      | None -> 0.1)
    | None -> 0.1)
  | Pred.Neq -> 0.9
  | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge -> 1.0 /. 3.0

(* Estimated number of distinct values of [attr] within an
   intermediate result of cardinality [card]: bounded by the global
   distinct count c_A. This is |π_attr(R)| = |R| / r_A capped at c_A. *)
let distinct_in stats root attr card =
  match distinct_of stats root attr with
  | Some c -> Float.min card (float_of_int c)
  | None -> card

(* Join selectivity: 1 / max(c_A, c_B), the System-R uniform estimate
   (the paper treats it as a given parameter). *)
let join_selectivity stats root keys =
  List.fold_left
    (fun acc (a, b) ->
      let ca = match distinct_of stats root a with Some c -> c | None -> 10 in
      let cb = match distinct_of stats root b with Some c -> c | None -> 10 in
      acc /. float_of_int (max 1 (max ca cb)))
    1.0 keys

(* Distinct argument combinations a parameterized call issues: one
   templated GET per distinct tuple of [Arg_attr] values drawn from
   the source (constant-only calls fetch a single page). The product
   of per-attribute distinct counts, capped by the source cardinality
   — the same shape as the Follow estimate. *)
let call_navigations stats root (c : Nalg.call) src_card =
  let attr_args =
    List.filter_map
      (function _, Nalg.Arg_attr a -> Some a | _, Nalg.Arg_const _ -> None)
      c.Nalg.c_args
  in
  match attr_args with
  | [] -> 1.0
  | args ->
    let product =
      List.fold_left (fun acc a -> acc *. distinct_in stats root a src_card) 1.0 args
    in
    Float.max 1.0 (Float.min src_card product)

let rec estimate ?(views = no_views) (schema : Adm.Schema.t) (stats : Stats.t)
    (root : Nalg.expr) (e : Nalg.expr) : estimate =
  let estimate = estimate ~views in
  match e with
  | Nalg.External { name; _ } -> (
    match views.view name with
    | Some vc -> { cost = view_scan_cost views vc; card = vc.view_rows }
    | None -> { cost = infinity; card = 0.0 })
  | Nalg.Entry { scheme; alias = _ } ->
    let ps = Adm.Schema.find_scheme_exn schema scheme in
    let card =
      if Adm.Page_scheme.is_entry_point ps then 1.0
      else float_of_int (Stats.cardinality stats scheme)
    in
    { cost = 1.0; card }
  | Nalg.Select (p, e1) ->
    let { cost; card } = estimate schema stats root e1 in
    let sel =
      List.fold_left (fun acc a -> acc *. selectivity_of_atom stats root a) 1.0 p
    in
    { cost; card = card *. sel }
  | Nalg.Project (attrs, e1) ->
    let { cost; card } = estimate schema stats root e1 in
    (* |π_X(R)| capped by the product of the attribute domains *)
    let cap =
      List.fold_left
        (fun acc a ->
          match distinct_of stats root a with
          | Some c -> acc *. float_of_int c
          | None -> acc *. card)
        1.0 attrs
    in
    { cost; card = Float.max 1.0 (Float.min card cap) }
  | Nalg.Join (keys, e1, e2) ->
    let est1 = estimate schema stats root e1 in
    let est2 = estimate schema stats root e2 in
    let sel = join_selectivity stats root keys in
    {
      cost = est1.cost +. est2.cost;
      card = Float.max 0.0 (est1.card *. est2.card *. sel);
    }
  | Nalg.Unnest (e1, attr) ->
    let { cost; card } = estimate schema stats root e1 in
    let fanout =
      match attr_path root attr with
      | Some p -> Stats.fanout stats (Stats.key p.Adm.Constraints.scheme p.Adm.Constraints.steps)
      | None -> 1.0
    in
    { cost; card = card *. fanout }
  | Nalg.Follow { src; link; scheme = _; alias = _ } ->
    let { cost; card } = estimate schema stats root src in
    let navigations = distinct_in stats root link card in
    { cost = cost +. navigations; card }
  | Nalg.Call { c_src = None; _ } ->
    (* a constant-bound call is a single templated GET yielding the
       one page its arguments select, like an entry point *)
    { cost = 1.0; card = 1.0 }
  | Nalg.Call ({ c_src = Some src; _ } as c) ->
    let { cost; card } = estimate schema stats root src in
    let navigations = call_navigations stats root c card in
    { cost = cost +. navigations; card }

let cost ?views schema stats e = (estimate ?views schema stats e e).cost
let cardinality ?views schema stats e = (estimate ?views schema stats e e).card

(* Refined cost (paper, footnote 8): bytes transferred instead of page
   count. Each navigation's access count is weighted by the average
   page size of the target scheme. Distinguishes plans that tie on
   page count — e.g. the intro's path through the (smaller) list of
   database conferences versus the list of all conferences. *)
let rec byte_estimate ?(views = no_views) (schema : Adm.Schema.t)
    (stats : Stats.t) (root : Nalg.expr) (e : Nalg.expr) : float =
  let byte_estimate = byte_estimate ~views in
  match e with
  | Nalg.External { name; _ } -> (
    match views.view name with
    (* ~1KiB per GET-equivalent wire unit: a HEAD moves headers only *)
    | Some vc -> view_scan_cost views vc *. 1024.0
    | None -> infinity)
  | Nalg.Entry { scheme; alias = _ } -> Stats.page_bytes stats scheme
  | Nalg.Select (_, e1) | Nalg.Project (_, e1) | Nalg.Unnest (e1, _) ->
    byte_estimate schema stats root e1
  | Nalg.Join (_, e1, e2) ->
    byte_estimate schema stats root e1 +. byte_estimate schema stats root e2
  | Nalg.Follow { src; link; scheme; alias = _ } ->
    let { card; _ } = estimate ~views schema stats root src in
    let navigations = distinct_in stats root link card in
    byte_estimate schema stats root src +. (navigations *. Stats.page_bytes stats scheme)
  | Nalg.Call { c_src = None; c_scheme; _ } -> Stats.page_bytes stats c_scheme
  | Nalg.Call ({ c_src = Some src; c_scheme; _ } as c) ->
    let { card; _ } = estimate ~views schema stats root src in
    let navigations = call_navigations stats root c card in
    byte_estimate schema stats root src
    +. (navigations *. Stats.page_bytes stats c_scheme)

let byte_cost ?views schema stats e = byte_estimate ?views schema stats e e

(* Lowering with cost annotations: the physical plan carries, per
   operator, the estimated output cardinality and the page accesses
   the operator itself issues (1 for a scan; the distinct-link count
   of Section 6.2 for a navigation). The [pages] callback computes
   the navigation count directly — not as a cost difference — so the
   annotation matches the worked examples exactly. *)
let lower ?(views = no_views) ?window (schema : Adm.Schema.t) (stats : Stats.t)
    (e : Nalg.expr) : Physplan.plan =
  let card sub = (estimate ~views schema stats e sub).card in
  let pages sub =
    match sub with
    | Nalg.Entry _ -> 1.0
    | Nalg.Follow { src; link; _ } ->
      distinct_in stats e link (estimate ~views schema stats e src).card
    | Nalg.Call { c_src = None; _ } -> 1.0
    | Nalg.Call ({ c_src = Some src; _ } as c) ->
      call_navigations stats e c (estimate ~views schema stats e src).card
    | Nalg.External { name; _ } -> (
      (* expected light connections: every stale page costs one HEAD *)
      match views.view name with
      | Some vc -> vc.view_pages *. vc.view_stale
      | None -> 0.0)
    | _ -> 0.0
  in
  let view_attrs name = Option.map (fun vc -> vc.view_attrs) (views.view name) in
  Physplan.lower ~card ~pages ~view_attrs ?window schema e

(* Predicted simulated elapsed time (milliseconds) under the batched
   fetch engine: a navigation submits its URL set in prefetch windows
   whose latencies overlap, so a Follow costs ceil(navigations /
   window) sequential rounds of the per-page latency instead of one
   round per page. Local operators stay free. It is computed from the
   plan actually executed: a fold over the lowered operators,
   page-fetching ones only. *)
let rounds ~window n =
  Float.of_int (int_of_float (Float.ceil (n /. float_of_int (max 1 window))))

let elapsed_estimate ?(views = no_views) ?(window = 1) ?(get_ms = 40.0) ?head_ms
    schema stats e =
  (* Function-2 ratio: a light connection (HEAD) moves headers only and
     costs a tenth of a download round, matching Churn.Budget's 1:10. *)
  let head_ms = match head_ms with Some h -> h | None -> get_ms /. 10.0 in
  match lower ~views ~window schema stats e with
  | plan ->
    Physplan.fold
      (fun acc (o : Physplan.op) ->
        match o.Physplan.node, o.Physplan.est with
        | Physplan.Scan _, _ -> acc +. get_ms
        | Physplan.View_scan _, Some { est_pages; _ } ->
          acc +. (rounds ~window est_pages *. head_ms)
        | Physplan.View_scan _, None -> acc +. head_ms
        | Physplan.Follow_links _, Some { est_pages; _ }
        | Physplan.Call_fetch _, Some { est_pages; _ } ->
          acc +. (rounds ~window est_pages *. get_ms)
        | Physplan.Follow_links _, None | Physplan.Call_fetch _, None ->
          acc +. get_ms
        | (Physplan.Filter _ | Physplan.Project _ | Physplan.Hash_join _
          | Physplan.Stream_unnest _), _ -> acc)
      0.0 plan
  | exception Physplan.Not_computable _ -> infinity
