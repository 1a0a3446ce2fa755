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

(* ------------------------------------------------------------------ *)
(* Attribute statistics                                                *)
(* ------------------------------------------------------------------ *)

(* What the statistics say about one attribute: its distinct count
   c_A, when known, and its fanout as a list. *)
type attr_stats = { distinct : int option; fanout : float }

(* Statistics entries already resolved, by attribute name and then by
   the (alias length, scheme) qualifying it: each entry costs one key
   and one lookup per table, however many plans read it. *)
type stats_cache = {
  c_stats : Stats.t;
  entries : (string, (int * string * attr_stats) list) Hashtbl.t;
}

let stats_cache stats = { c_stats = stats; entries = Hashtbl.create 16 }

(* The statistics of [attr] resolved through the alias environment
   [env]; [None] when no alias in scope qualifies it. *)
let attr_stats cache env attr =
  match Nalg.qualifier env attr with
  | None -> None
  | Some (k, scheme) -> (
    let known = Option.value (Hashtbl.find_opt cache.entries attr) ~default:[] in
    match
      List.find_opt (fun (k', scheme', _) -> k = k' && String.equal scheme scheme') known
    with
    | Some (_, _, s) -> Some s
    | None ->
      (* the dotted key [Stats.key scheme steps], steps after the alias *)
      let key = scheme ^ String.sub attr k (String.length attr - k) in
      let s =
        {
          distinct = Stats.find_distinct cache.c_stats key;
          fanout = Stats.fanout cache.c_stats key;
        }
      in
      Hashtbl.replace cache.entries attr ((k, scheme, s) :: known);
      Some s)

(* c_A for an attribute of the current expression; None when the
   statistics don't know it. *)
let distinct_of cache env attr =
  match attr_stats cache env attr with Some s -> s.distinct | None -> None

let selectivity_of_atom cache env (a : Pred.atom) =
  let attr_side =
    match a.Pred.left, a.Pred.right with
    | Pred.Attr attr, Pred.Const _ | Pred.Const _, Pred.Attr attr -> Some attr
    | Pred.Attr _, Pred.Attr _ | Pred.Const _, Pred.Const _ -> None
  in
  match a.Pred.cmp with
  | Pred.Eq -> (
    match attr_side with
    | Some attr -> (
      match distinct_of cache env attr with
      | Some c -> 1.0 /. float_of_int (max 1 c)
      | None -> 0.1)
    | None -> 0.1)
  | Pred.Neq -> 0.9
  | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge -> 1.0 /. 3.0

(* Estimated number of distinct values of [attr] within an
   intermediate result of cardinality [card]: bounded by the global
   distinct count c_A. This is |π_attr(R)| = |R| / r_A capped at c_A. *)
let distinct_in cache env attr card =
  match distinct_of cache env attr with
  | Some c -> Float.min card (float_of_int c)
  | None -> card

(* Join selectivity: 1 / max(c_A, c_B), the System-R uniform estimate
   (the paper treats it as a given parameter). *)
let join_selectivity cache env keys =
  List.fold_left
    (fun acc (a, b) ->
      let ca = match distinct_of cache env a with Some c -> c | None -> 10 in
      let cb = match distinct_of cache env b with Some c -> c | None -> 10 in
      acc /. float_of_int (max 1 (max ca cb)))
    1.0 keys

(* Distinct argument combinations a parameterized call issues: one
   templated GET per distinct tuple of [Arg_attr] values drawn from
   the source (constant-only calls fetch a single page). The product
   of per-attribute distinct counts, capped by the source cardinality
   — the same shape as the Follow estimate. *)
let call_navigations cache env (c : Nalg.call) src_card =
  let attr_args =
    List.filter_map
      (function _, Nalg.Arg_attr a -> Some a | _, Nalg.Arg_const _ -> None)
      c.Nalg.c_args
  in
  match attr_args with
  | [] -> 1.0
  | args ->
    let product =
      List.fold_left (fun acc a -> acc *. distinct_in cache env a src_card) 1.0 args
    in
    Float.max 1.0 (Float.min src_card product)

(* The estimate of one node from its children's ([kids], in
   [Nalg.children] order), its attributes resolved through the alias
   environment [env]. *)
let estimate_node ~views (schema : Adm.Schema.t) cache env (e : Nalg.expr)
    (kids : estimate list) : estimate =
  let kid () = match kids with k :: _ -> k | [] -> invalid_arg "Cost.estimate_node" in
  match e with
  | Nalg.External { name; _ } -> (
    match views.view name with
    | Some vc -> { cost = view_scan_cost views vc; card = vc.view_rows }
    | None -> { cost = infinity; card = 0.0 })
  | Nalg.Entry { scheme; alias = _ } ->
    let ps = Adm.Schema.find_scheme_exn schema scheme in
    let card =
      if Adm.Page_scheme.is_entry_point ps then 1.0
      else float_of_int (Stats.cardinality cache.c_stats scheme)
    in
    { cost = 1.0; card }
  | Nalg.Select (p, _) ->
    let { cost; card } = kid () in
    let sel =
      List.fold_left (fun acc a -> acc *. selectivity_of_atom cache env a) 1.0 p
    in
    { cost; card = card *. sel }
  | Nalg.Project (attrs, _) ->
    let { cost; card } = kid () in
    (* |π_X(R)| capped by the product of the attribute domains *)
    let cap =
      List.fold_left
        (fun acc a ->
          match distinct_of cache env a with
          | Some c -> acc *. float_of_int c
          | None -> acc *. card)
        1.0 attrs
    in
    { cost; card = Float.max 1.0 (Float.min card cap) }
  | Nalg.Join (keys, _, _) ->
    let est1, est2 =
      match kids with [ e1; e2 ] -> (e1, e2) | _ -> invalid_arg "Cost.estimate_node"
    in
    let sel = join_selectivity cache env keys in
    {
      cost = est1.cost +. est2.cost;
      card = Float.max 0.0 (est1.card *. est2.card *. sel);
    }
  | Nalg.Unnest (_, attr) ->
    let { cost; card } = kid () in
    let fanout =
      match attr_stats cache env attr with Some s -> s.fanout | None -> 1.0
    in
    { cost; card = card *. fanout }
  | Nalg.Follow { link; _ } ->
    let { cost; card } = kid () in
    let navigations = distinct_in cache env link card in
    { cost = cost +. navigations; card }
  | Nalg.Call { c_src = None; _ } ->
    (* a constant-bound call is a single templated GET yielding the
       one page its arguments select, like an entry point *)
    { cost = 1.0; card = 1.0 }
  | Nalg.Call c ->
    let { cost; card } = kid () in
    let navigations = call_navigations cache env c card in
    { cost = cost +. navigations; card }

(* [estimate] over the alias environment [env] of the root. *)
let rec estimate_in ~views schema cache env (e : Nalg.expr) : estimate =
  estimate_node ~views schema cache env e
    (List.map (estimate_in ~views schema cache env) (Nalg.children e))

let estimate ?(views = no_views) schema stats root e =
  estimate_in ~views schema (stats_cache stats) (Nalg.alias_env root) e

let cost ?views schema stats e = (estimate ?views schema stats e e).cost
let cardinality ?views schema stats e = (estimate ?views schema stats e e).card

(* Refined cost (paper, footnote 8): bytes transferred instead of page
   count. Each navigation's access count is weighted by the average
   page size of the target scheme. Distinguishes plans that tie on
   page count — e.g. the intro's path through the (smaller) list of
   database conferences versus the list of all conferences. *)
let byte_estimate ~views (schema : Adm.Schema.t) (stats : Stats.t)
    (root : Nalg.expr) : float =
  let env = Nalg.alias_env root in
  let cache = stats_cache stats in
  let card e = (estimate_in ~views schema cache env e).card in
  let rec bytes (e : Nalg.expr) =
    match e with
    | Nalg.External { name; _ } -> (
      match views.view name with
      (* ~1KiB per GET-equivalent wire unit: a HEAD moves headers only *)
      | Some vc -> view_scan_cost views vc *. 1024.0
      | None -> infinity)
    | Nalg.Entry { scheme; alias = _ } -> Stats.page_bytes stats scheme
    | Nalg.Select (_, e1) | Nalg.Project (_, e1) | Nalg.Unnest (e1, _) -> bytes e1
    | Nalg.Join (_, e1, e2) -> bytes e1 +. bytes e2
    | Nalg.Follow { src; link; scheme; alias = _ } ->
      let navigations = distinct_in cache env link (card src) in
      bytes src +. (navigations *. Stats.page_bytes stats scheme)
    | Nalg.Call { c_src = None; c_scheme; _ } -> Stats.page_bytes stats c_scheme
    | Nalg.Call ({ c_src = Some src; c_scheme; _ } as c) ->
      let navigations = call_navigations cache env c (card src) in
      bytes src +. (navigations *. Stats.page_bytes stats c_scheme)
  in
  bytes root

let byte_cost ?(views = no_views) schema stats e = byte_estimate ~views schema stats e

(* The estimates of a lowered plan, per operator: the estimated
   output cardinality of the logical subexpression it computes, and
   the page accesses the operator itself issues (1 for a scan; the
   distinct-link count of Section 6.2 for a navigation; the expected
   HEADs for a view scan; none for a local operator). The navigation
   count is computed directly — not as a cost difference — so it
   matches the worked examples exactly. *)
let estimates ?(views = no_views) (schema : Adm.Schema.t) (stats : Stats.t)
    (plan : Physplan.plan) : Physplan.est array =
  let env = Nalg.alias_env (Physplan.to_nalg plan) in
  let cache = stats_cache stats in
  let card sub = (estimate_in ~views schema cache env sub).card in
  let pages (sub : Nalg.expr) =
    match sub with
    | Nalg.Entry _ -> 1.0
    | Nalg.Follow { src; link; _ } -> distinct_in cache env link (card src)
    | Nalg.Call { c_src = None; _ } -> 1.0
    | Nalg.Call ({ c_src = Some src; _ } as c) ->
      call_navigations cache env c (card src)
    | Nalg.External { name; _ } -> (
      (* expected light connections: every stale page costs one HEAD *)
      match views.view name with
      | Some vc -> vc.view_pages *. vc.view_stale
      | None -> 0.0)
    | _ -> 0.0
  in
  let ests = Array.make plan.Physplan.n_ops { Physplan.est_rows = 0.0; est_pages = 0.0 } in
  Physplan.fold
    (fun () (o : Physplan.op) ->
      let e = Physplan.op_to_nalg o in
      let est_pages =
        match o.Physplan.node, e with
        (* a fetch's or view scan's pages are its access's, fused
           selection stripped *)
        | (Physplan.Fetch _ | Physplan.View_scan _), (Nalg.Select (_, access) | access) ->
          pages access
        | (Physplan.Filter _ | Physplan.Project _ | Physplan.Hash_join _
          | Physplan.Stream_unnest _), _ -> 0.0
      in
      ests.(o.Physplan.id) <- { Physplan.est_rows = card e; est_pages })
    () plan;
  ests

(* Predicted simulated elapsed time (milliseconds) under the batched
   fetch engine: a navigation submits its URL set in prefetch windows
   whose latencies overlap, so a Follow costs ceil(navigations /
   window) sequential rounds of the per-page latency instead of one
   round per page. Local operators stay free. It is computed from the
   plan actually executed: a fold over the lowered operators,
   page-fetching ones only. *)
let rounds ~window n =
  Float.of_int (int_of_float (Float.ceil (n /. float_of_int (max 1 window))))

(* One download round is the network model's 40 ms round-trip; by
   Function 2's ratio a light connection (HEAD) moves headers only and
   costs a tenth of it, matching Churn.Budget's 1:10. *)
let get_ms = 40.0
let head_ms = get_ms /. 10.0

let elapsed_estimate ?(views = no_views) ?(window = 1) schema stats e =
  let view_attrs name = Option.map (fun vc -> vc.view_attrs) (views.view name) in
  match Physplan.lower ~view_attrs ~window schema e with
  | plan ->
    let ests = estimates ~views schema stats plan in
    Physplan.fold
      (fun acc (o : Physplan.op) ->
        let pages = ests.(o.Physplan.id).Physplan.est_pages in
        match o.Physplan.node with
        | Physplan.Fetch _ -> acc +. (rounds ~window pages *. get_ms)
        | Physplan.View_scan _ -> acc +. (rounds ~window pages *. head_ms)
        | Physplan.Filter _ | Physplan.Project _ | Physplan.Hash_join _
        | Physplan.Stream_unnest _ -> acc)
      0.0 plan
  | exception Physplan.Not_computable _ -> infinity
