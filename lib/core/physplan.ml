(* Physical operator plans: the executable form of a NALG expression.

   Logical NALG (Section 4) says what a navigation computes; this IR
   says how the executor computes it, one physical operator per node:

   - [Fetch] is the one page-reading operator. The paper reads pages
     by entry-point access and by following links ([R →L P]); binding
     patterns add form calls ([R ⇒[args] P]). All three are priced by
     the same rule (distinct page accesses, Section 6.2) and run the
     same steps, so they are one node with an optional input and a
     [target] saying where each URL comes from: the entry point's URL,
     a link attribute of the input row, or a form template over
     constants and input attributes. The executor dedupes the URLs
     incrementally (one URL table per operator, mirroring the
     distinct-access cost model), hands the fetch engine prefetch
     windows of [window] URLs, and applies any selection sunk onto the
     node to the joined output (a filtered fetch, not fetch-then-filter);
   - [Hash_join] carries an explicit build side, chosen from the cost
     model's cardinality estimates (build the smaller input, probe
     with the larger) — the legacy evaluator always built the right
     input;
   - [Stream_unnest] expands nested lists row by row against the
     declared inner header, so unnesting never materializes its
     input.

   Lowering is total on well-typed expressions. In ADM every list
   attribute has a declared tuple type, so the inner header of every
   unnest is known before any page is fetched, and a streaming plan
   always exists. An all-constant call works out its URL here, as an
   entry point does, so execution never fails to find one.
   [Not_computable] (re-exported by {!Eval}) is raised only for what
   {!Typecheck} rejects: [External] leaves that name no registered view
   (E0107), non-entry-point entries (E0102), calls to unparameterized
   schemes or all-constant calls that do not bind every parameter
   (E0111), and unnests of an attribute that is not a declared list
   (E0103/E0104). *)

type est = {
  est_rows : float; (* estimated output cardinality of the operator *)
  est_pages : float; (* estimated page accesses the operator itself issues *)
}

type target =
  | Entry_url of string (* the entry point's URL *)
  | Link of string (* a link attribute of the input row *)
  | Form of {
      args : (string * Nalg.arg) list; (* form template *)
      url : string option; (* all-constant call without input: its URL *)
    }

type node =
  | Fetch of {
      input : op option;
      target : target;
      scheme : string;
      alias : string;
      filter : Pred.t; (* selection fused over the joined output *)
    }
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

and op = { id : int; node : node; est : est option }

type plan = { root : op; n_ops : int; window : int }

exception Not_computable of string
exception Not_streamable of string

(* The URL of an all-constant call: every argument a constant, every
   parameter bound. *)
let constant_url schema scheme args =
  let ps = Adm.Schema.find_scheme_exn schema scheme in
  let bindings =
    List.map
      (fun (p, arg) ->
        match arg with
        | Nalg.Arg_const v -> (p, v)
        | Nalg.Arg_attr a ->
          raise
            (Not_computable
               (Fmt.str "call argument %s := %s has no source relation" p a)))
      args
  in
  match Adm.Page_scheme.bound_url ps bindings with
  | Some url -> url
  | None ->
    raise
      (Not_computable (Fmt.str "call to %s does not bind every parameter" scheme))

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
    let fetch input target scheme alias =
      mk
        (Fetch { input; target; scheme; alias; filter = [] })
        (est_of ~own_pages:(pages_of e) e)
    in
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
      | Some url -> fetch None (Entry_url url) scheme alias)
    | Nalg.Select (p, e1) -> (
      (* fuse the selection into the producing operator when it has a
         filter slot; page estimates are the producer's own *)
      let inner = go e1 in
      let own_pages =
        match inner.est with Some { est_pages; _ } -> est_pages | None -> 0.0
      in
      let est = est_of ~own_pages e in
      match inner.node with
      | Fetch f -> { inner with node = Fetch { f with filter = f.filter @ p }; est }
      | View_scan v ->
        { inner with node = View_scan { v with filter = v.filter @ p }; est }
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
      fetch (Some (go src)) (Link link) scheme alias
    | Nalg.Call { c_src; c_scheme; c_alias; c_args } ->
      let ps = Adm.Schema.find_scheme_exn schema c_scheme in
      if not (Adm.Page_scheme.is_parameterized ps) then
        raise
          (Not_computable (Fmt.str "page-scheme %s takes no parameters" c_scheme));
      let input = Option.map go c_src in
      let url =
        match input with
        | None -> Some (constant_url schema c_scheme c_args)
        | Some _ -> None
      in
      fetch input (Form { args = c_args; url }) c_scheme c_alias
  in
  let root = go e in
  { root; n_ops = !counter; window = max 1 window }

(* ------------------------------------------------------------------ *)
(* Back to logical NALG (for validation)                               *)
(* ------------------------------------------------------------------ *)

let rec op_to_nalg (o : op) : Nalg.expr =
  let filtered filter base = if filter = [] then base else Nalg.Select (filter, base) in
  match o.node with
  | Fetch { input; target; scheme; alias; filter } ->
    let src = Option.map op_to_nalg input in
    filtered filter
      (match target with
      | Entry_url _ -> Nalg.Entry { scheme; alias }
      | Link link -> Nalg.Follow { src = Option.get src; link; scheme; alias }
      | Form { args; url = _ } ->
        Nalg.Call { c_src = src; c_scheme = scheme; c_alias = alias; c_args = args })
  | View_scan { view; alias; ext_attrs = _; filter } ->
    filtered filter (Nalg.External { name = view; alias })
  | Filter { pred; input } -> Nalg.Select (pred, op_to_nalg input)
  | Project { attrs; input } -> Nalg.Project (attrs, op_to_nalg input)
  | Hash_join { keys; left; right; build_left = _ } ->
    Nalg.Join (keys, op_to_nalg left, op_to_nalg right)
  | Stream_unnest { attr; expect = _; input } -> Nalg.Unnest (op_to_nalg input, attr)

let to_nalg plan = op_to_nalg plan.root

(* ------------------------------------------------------------------ *)
(* Traversal and printing                                              *)
(* ------------------------------------------------------------------ *)

let children (o : op) =
  match o.node with
  | View_scan _ -> []
  | Fetch { input; _ } -> Option.to_list input
  | Filter { input; _ } | Project { input; _ } | Stream_unnest { input; _ } ->
    [ input ]
  | Hash_join { left; right; _ } -> [ left; right ]

let fold f acc plan =
  let rec go acc o = List.fold_left go (f acc o) (children o) in
  go acc plan.root

let node_label (o : op) =
  let aka scheme alias = if String.equal scheme alias then "" else " as " ^ alias in
  let filtered = function [] -> "" | p -> Fmt.str " σ[%s]" (Pred.to_string p) in
  match o.node with
  | Fetch { target; scheme; alias; filter; _ } ->
    let head =
      match target with
      | Entry_url _ -> "scan " ^ scheme
      | Link link -> Fmt.str "follow → %s [via %s]" scheme link
      | Form { args; _ } ->
        Fmt.str "call ⇒ %s [%s]" scheme (Fmt.str "%a" Nalg.pp_args args)
    in
    head ^ aka scheme alias ^ filtered filter
  | View_scan { view; alias; filter; _ } ->
    Fmt.str "view-scan %s%s%s" view (aka view alias) (filtered filter)
  | Filter { pred; _ } -> Fmt.str "filter σ[%s]" (Pred.to_string pred)
  | Project { attrs; _ } -> Fmt.str "project π %s" (String.concat ", " attrs)
  | Hash_join { keys; build_left; _ } ->
    Fmt.str "hash-join ⋈ %s (build=%s)"
      (String.concat ", " (List.map (fun (a, b) -> Fmt.str "%s=%s" a b) keys))
      (if build_left then "left" else "right")
  | Stream_unnest { attr; _ } -> Fmt.str "stream-unnest ◦ %s" attr

let pp_noted note ppf (plan : plan) =
  let rec go indent ppf o =
    Fmt.pf ppf "%s%s%s@," (String.make indent ' ') (node_label o) (note o);
    List.iter (go (indent + 2) ppf) (children o)
  in
  Fmt.pf ppf "@[<v>%a@]" (go 0) plan.root

let pp = pp_noted (fun _ -> "")
