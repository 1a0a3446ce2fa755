(* Physical operator plans: the executable form of a NALG expression.

   Logical NALG (Section 4) says what a navigation computes; this IR
   says how the executor computes it, one physical operator per node:

   - [Scan] fuses an entry-point page access with any selection sunk
     onto it (a filtered scan, not a scan-then-filter);
   - [Hash_join] carries an explicit build side, chosen from the cost
     model's cardinality estimates (build the smaller input, probe
     with the larger) — the legacy evaluator always built the right
     input;
   - [Stream_unnest] expands nested lists row by row against the
     declared inner header, so unnesting never materializes its
     input;
   - [Follow_links] is the pipelined navigation [R →L P]: it dedupes
     link values incrementally (one URL table per operator, mirroring
     the paper's distinct-access cost model) and hands the fetch
     engine prefetch windows of [window] URLs while probing pages
     already fetched.

   Lowering is total on well-typed expressions. In ADM every list
   attribute has a declared tuple type, so the inner header of every
   unnest is known before any page is fetched, and a streaming plan
   always exists. [Not_computable] (re-exported by {!Eval}) is raised
   only for what {!Typecheck} rejects: [External] leaves that name no
   registered view (E0107), non-entry-point entries (E0102), calls to
   unparameterized schemes (E0111), and unnests of an attribute that
   is not a declared list (E0103/E0104). *)

type est = {
  est_rows : float; (* estimated output cardinality of the operator *)
  est_pages : float; (* estimated page accesses the operator itself issues *)
}

type node =
  | Scan of { scheme : string; alias : string; url : string; filter : Pred.t }
  | View_scan of {
      view : string; (* registered relation answered from the matview store *)
      alias : string;
      ext_attrs : string list; (* declared attributes, unqualified *)
      filter : Pred.t; (* selection fused over the scan *)
    }
  | Filter of { pred : Pred.t; input : op }
  | Project of { attrs : string list; input : op }
  | Hash_join of {
      keys : (string * string) list; (* (left attr, right attr) pairs *)
      left : op;
      right : op;
      build_left : bool; (* hash the left input, probe with the right *)
    }
  | Stream_unnest of { attr : string; expect : string list; input : op }
  | Follow_links of {
      src : op;
      link : string;
      scheme : string;
      alias : string;
      filter : Pred.t; (* selection fused over the joined output *)
    }
  | Call_fetch of {
      src : op option; (* None: all-constant root call, a 1-page scan *)
      scheme : string; (* parameterized target page-scheme *)
      alias : string;
      args : (string * Nalg.arg) list;
      filter : Pred.t; (* selection fused over the joined output *)
    }

and op = { id : int; node : node; est : est option }

type plan = { root : op; n_ops : int; window : int }

exception Not_computable of string
exception Not_streamable of string

let lower ?card ?pages ?(view_attrs = fun (_ : string) -> None) ?(window = 8)
    (schema : Adm.Schema.t) (e : Nalg.expr) : plan =
  let counter = ref 0 in
  let mk node est =
    let id = !counter in
    incr counter;
    { id; node; est }
  in
  let pages_of e = match pages with Some f -> f e | None -> 0.0 in
  let est_of ?(own_pages = 0.0) e =
    Option.map (fun f -> { est_rows = f e; est_pages = own_pages }) card
  in
  let rec go (e : Nalg.expr) : op =
    match e with
    | Nalg.External { name; alias } -> (
      match view_attrs name with
      | Some attrs ->
        mk
          (View_scan { view = name; alias; ext_attrs = attrs; filter = [] })
          (est_of ~own_pages:(pages_of e) e)
      | None ->
        raise
          (Not_computable
             (Fmt.str
                "external relation %s must be replaced by a default navigation (rule 1)"
                name)))
    | Nalg.Entry { scheme; alias } -> (
      let ps = Adm.Schema.find_scheme_exn schema scheme in
      match Adm.Page_scheme.entry_url ps with
      | None ->
        raise (Not_computable (Fmt.str "page-scheme %s is not an entry point" scheme))
      | Some url ->
        mk (Scan { scheme; alias; url; filter = [] }) (est_of ~own_pages:(pages_of e) e))
    | Nalg.Select (p, e1) -> (
      (* fuse the selection into the producing operator when it has a
         filter slot; page estimates are the producer's own *)
      let inner = go e1 in
      let own_pages =
        match inner.est with Some { est_pages; _ } -> est_pages | None -> 0.0
      in
      let est = est_of ~own_pages e in
      match inner.node with
      | Scan s -> { inner with node = Scan { s with filter = s.filter @ p }; est }
      | View_scan v ->
        { inner with node = View_scan { v with filter = v.filter @ p }; est }
      | Follow_links f ->
        { inner with node = Follow_links { f with filter = f.filter @ p }; est }
      | Call_fetch c ->
        { inner with node = Call_fetch { c with filter = c.filter @ p }; est }
      | Filter f -> { inner with node = Filter { f with pred = f.pred @ p }; est }
      | Project _ | Hash_join _ | Stream_unnest _ ->
        mk (Filter { pred = p; input = inner }) est)
    | Nalg.Project (attrs, e1) -> mk (Project { attrs; input = go e1 }) (est_of e)
    | Nalg.Join (keys, e1, e2) ->
      let left = go e1 in
      let right = go e2 in
      let build_left =
        (* build the smaller estimated side; without statistics keep
           the legacy evaluator's choice (build the right input) *)
        match left.est, right.est with
        | Some l, Some r -> l.est_rows < r.est_rows
        | _ -> false
      in
      mk (Hash_join { keys; left; right; build_left }) (est_of e)
    | Nalg.Unnest (e1, attr) -> (
      match Nalg.list_fields schema e1 attr with
      | None ->
        raise
          (Not_computable
             (Fmt.str "unnest of %s: not a declared list attribute" attr))
      | Some fields ->
        let input = go e1 in
        let expect = List.map (fun (f, _) -> attr ^ "." ^ f) fields in
        mk (Stream_unnest { attr; expect; input }) (est_of e))
    | Nalg.Follow { src; link; scheme; alias } ->
      let src_op = go src in
      mk
        (Follow_links { src = src_op; link; scheme; alias; filter = [] })
        (est_of ~own_pages:(pages_of e) e)
    | Nalg.Call { c_src; c_scheme; c_alias; c_args } ->
      let ps = Adm.Schema.find_scheme_exn schema c_scheme in
      if not (Adm.Page_scheme.is_parameterized ps) then
        raise
          (Not_computable (Fmt.str "page-scheme %s takes no parameters" c_scheme));
      let src_op = Option.map go c_src in
      mk
        (Call_fetch
           { src = src_op; scheme = c_scheme; alias = c_alias; args = c_args;
             filter = [] })
        (est_of ~own_pages:(pages_of e) e)
  in
  let root = go e in
  { root; n_ops = !counter; window = max 1 window }

(* ------------------------------------------------------------------ *)
(* Back to logical NALG (for validation)                               *)
(* ------------------------------------------------------------------ *)

let rec op_to_nalg (o : op) : Nalg.expr =
  match o.node with
  | Scan { scheme; alias; url = _; filter } ->
    let base = Nalg.Entry { scheme; alias } in
    if filter = [] then base else Nalg.Select (filter, base)
  | View_scan { view; alias; ext_attrs = _; filter } ->
    let base = Nalg.External { name = view; alias } in
    if filter = [] then base else Nalg.Select (filter, base)
  | Filter { pred; input } -> Nalg.Select (pred, op_to_nalg input)
  | Project { attrs; input } -> Nalg.Project (attrs, op_to_nalg input)
  | Hash_join { keys; left; right; build_left = _ } ->
    Nalg.Join (keys, op_to_nalg left, op_to_nalg right)
  | Stream_unnest { attr; expect = _; input } -> Nalg.Unnest (op_to_nalg input, attr)
  | Follow_links { src; link; scheme; alias; filter } ->
    let base = Nalg.Follow { src = op_to_nalg src; link; scheme; alias } in
    if filter = [] then base else Nalg.Select (filter, base)
  | Call_fetch { src; scheme; alias; args; filter } ->
    let base =
      Nalg.Call
        { c_src = Option.map op_to_nalg src; c_scheme = scheme;
          c_alias = alias; c_args = args }
    in
    if filter = [] then base else Nalg.Select (filter, base)

let to_nalg plan = op_to_nalg plan.root

(* ------------------------------------------------------------------ *)
(* Traversal and printing                                              *)
(* ------------------------------------------------------------------ *)

let rec fold_op f acc o =
  let acc = f acc o in
  match o.node with
  | Scan _ | View_scan _ | Call_fetch { src = None; _ } -> acc
  | Filter { input; _ } | Project { input; _ } | Stream_unnest { input; _ } ->
    fold_op f acc input
  | Follow_links { src; _ } | Call_fetch { src = Some src; _ } ->
    fold_op f acc src
  | Hash_join { left; right; _ } -> fold_op f (fold_op f acc left) right

let fold f acc plan = fold_op f acc plan.root

let node_label (o : op) =
  let aka scheme alias = if String.equal scheme alias then "" else " as " ^ alias in
  let filtered = function [] -> "" | p -> Fmt.str " σ[%s]" (Pred.to_string p) in
  match o.node with
  | Scan { scheme; alias; filter; _ } ->
    Fmt.str "scan %s%s%s" scheme (aka scheme alias) (filtered filter)
  | View_scan { view; alias; filter; _ } ->
    Fmt.str "view-scan %s%s%s" view (aka view alias) (filtered filter)
  | Filter { pred; _ } -> Fmt.str "filter σ[%s]" (Pred.to_string pred)
  | Project { attrs; _ } -> Fmt.str "project π %s" (String.concat ", " attrs)
  | Hash_join { keys; build_left; _ } ->
    Fmt.str "hash-join ⋈ %s (build=%s)"
      (String.concat ", " (List.map (fun (a, b) -> Fmt.str "%s=%s" a b) keys))
      (if build_left then "left" else "right")
  | Stream_unnest { attr; _ } -> Fmt.str "stream-unnest ◦ %s" attr
  | Follow_links { link; scheme; alias; filter; _ } ->
    Fmt.str "follow → %s [via %s]%s%s" scheme link (aka scheme alias)
      (filtered filter)
  | Call_fetch { scheme; alias; args; filter; _ } ->
    Fmt.str "call ⇒ %s [%s]%s%s" scheme
      (Fmt.str "%a" Nalg.pp_args args)
      (aka scheme alias) (filtered filter)

let pp ppf (plan : plan) =
  let rec go indent ppf o =
    let pad = String.make indent ' ' in
    Fmt.pf ppf "%s%s@," pad (node_label o);
    match o.node with
    | Scan _ | View_scan _ | Call_fetch { src = None; _ } -> ()
    | Filter { input; _ } | Project { input; _ } | Stream_unnest { input; _ } ->
      go (indent + 2) ppf input
    | Follow_links { src; _ } | Call_fetch { src = Some src; _ } ->
      go (indent + 2) ppf src
    | Hash_join { left; right; _ } ->
      go (indent + 2) ppf left;
      go (indent + 2) ppf right
  in
  Fmt.pf ppf "@[<v>%a@]" (go 0) plan.root
