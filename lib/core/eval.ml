(* Evaluation of computable NALG expressions.

   Pages are obtained through a page source, which abstracts where
   tuples come from: the live site over (simulated) HTTP, or the local
   materialized store of Section 8. The same record carries the
   answerer for view scans when the plan may read a registered view.
   Evaluation is lower-then-run: the logical tree is compiled by
   {!Physplan.lower} into a streaming plan and executed by {!Exec.run}
   with pull-based cursors. Lowering is total on well-typed
   expressions, so there is one evaluator on the production path.
   [eval_legacy], the original relation-at-a-time interpreter, has no
   production caller: it is kept only as the differential-testing
   oracle. *)

exception Not_computable = Physplan.Not_computable

type source = Exec.source = {
  fetch : scheme:string -> url:string -> Adm.Value.tuple option;
  prefetch : scheme:string -> string list -> unit;
  window : int;
  views : Exec.views option;
}

(* A source over the resilient fetch engine: pages are downloaded
   through its cache, retries and circuit breaker, and a navigation's
   URL set is submitted as one batch whose simulated latencies overlap
   under the fetcher's window. The executor's prefetch windows follow
   the fetcher's configured width. *)
let fetcher_source (schema : Adm.Schema.t) (fetcher : Websim.Fetcher.t) =
  let fetch ~scheme ~url =
    match Websim.Fetcher.get fetcher url with
    | Websim.Fetcher.Fetched page ->
      let ps = Adm.Schema.find_scheme_exn schema scheme in
      Some (Websim.Wrapper.extract ps ~url page.Websim.Fetcher.body)
    | Websim.Fetcher.Absent | Websim.Fetcher.Unreachable -> None
  in
  {
    fetch;
    prefetch = (fun ~scheme:_ urls -> Websim.Fetcher.prefetch fetcher urls);
    window = Websim.Fetcher.window fetcher;
    views = None;
  }

(* A live source downloads pages with GET and wraps them. With
   [cache] (default), each URL is downloaded at most once per source
   — the cost model counts *distinct* network accesses. The bounded
   LRU of the fetch engine replaces the old unbounded per-source
   table; over the perfect network the traffic is identical. *)
let live_source ?(cache = true) (schema : Adm.Schema.t) (http : Websim.Http.t) =
  let config =
    if cache then Websim.Fetcher.default_config
    else Websim.Fetcher.config ~cache_capacity:0 ()
  in
  fetcher_source schema (Websim.Fetcher.create ~config http)

(* A source reading a crawled instance (no network): used in tests. *)
let instance_source (instance : Websim.Crawler.instance) =
  {
    fetch = (fun ~scheme ~url -> Websim.Crawler.tuple_of_url instance ~scheme ~url);
    prefetch = (fun ~scheme:_ _ -> ());
    window = 32;
    views = None;
  }

let pages_relation = Exec.pages_relation

(* ------------------------------------------------------------------ *)
(* The legacy relation-at-a-time evaluator                             *)
(* ------------------------------------------------------------------ *)

(* Kept verbatim in spirit: a navigation [P1 →L P2] collects the
   distinct values of link attribute L across the fully materialized
   source, fetches those pages and hash-joins on [P1.L = P2.URL].
   Only the oracle the streaming executor is differentially tested
   against; no production path calls it. *)
let eval_legacy (schema : Adm.Schema.t) (source : source) (e : Nalg.expr) :
    Adm.Relation.t =
  let rec go (e : Nalg.expr) : Adm.Relation.t =
    match e with
    | Nalg.External { name; _ } ->
      raise
        (Not_computable
           (Fmt.str "external relation %s must be replaced by a default navigation (rule 1)" name))
    | Nalg.Entry { scheme; alias } -> (
      let ps = Adm.Schema.find_scheme_exn schema scheme in
      match Adm.Page_scheme.entry_url ps with
      | None ->
        raise (Not_computable (Fmt.str "page-scheme %s is not an entry point" scheme))
      | Some url -> pages_relation schema source ~scheme ~alias [ url ])
    | Nalg.Select (p, e1) ->
      let r = go e1 in
      Adm.Relation.filter_rows (Pred.compile ~offset:(Adm.Relation.offset_opt r) p) r
    | Nalg.Project (attrs, e1) -> Adm.Relation.project attrs (go e1)
    | Nalg.Join (keys, e1, e2) -> Adm.Relation.equi_join keys (go e1) (go e2)
    | Nalg.Unnest (e1, attr) ->
      (* seed the unnested header with the statically-known nested
         attributes so that empty inputs keep a full header *)
      let expect =
        match Nalg.list_fields schema e1 attr with
        | Some fields -> List.map (fun (f, _) -> attr ^ "." ^ f) fields
        | None -> []
      in
      Adm.Relation.unnest ~expect attr (go e1)
    | Nalg.Follow { src; link; scheme; alias } ->
      let src_rel = go src in
      let urls =
        Adm.Relation.column link src_rel
        |> List.filter_map Adm.Value.as_link
        |> List.sort_uniq String.compare
      in
      let target = pages_relation schema source ~scheme ~alias urls in
      Adm.Relation.equi_join
        [ (link, alias ^ "." ^ Adm.Page_scheme.url_attr) ]
        src_rel target
    | Nalg.Call { c_src; c_scheme; c_alias; c_args } -> (
      let ps = Adm.Schema.find_scheme_exn schema c_scheme in
      match c_src with
      | None ->
        (* all-constant call: one templated GET, a single-page relation *)
        let bindings =
          List.map
            (fun (p, arg) ->
              match arg with
              | Nalg.Arg_const v -> (p, v)
              | Nalg.Arg_attr a ->
                raise
                  (Not_computable
                     (Fmt.str "call argument %s := %s has no source relation" p a)))
            c_args
        in
        (match Adm.Page_scheme.bound_url ps bindings with
        | None ->
          raise
            (Not_computable
               (Fmt.str "call to %s does not bind every parameter" c_scheme))
        | Some url ->
          pages_relation schema source ~scheme:c_scheme ~alias:c_alias [ url ])
      | Some src ->
        (* per source row: compute the templated URL from its bound
           arguments, fetch each distinct URL once, join row and page *)
        let src_rel = go src in
        let src_attrs = Adm.Relation.attrs src_rel in
        let url_of row =
          let tuple = List.combine src_attrs (Array.to_list row) in
          let rec build acc = function
            | [] -> Adm.Page_scheme.bound_url ps (List.rev acc)
            | (p, Nalg.Arg_const v) :: tl -> build ((p, v) :: acc) tl
            | (p, Nalg.Arg_attr a) :: tl -> (
              match Option.bind (Adm.Value.find tuple a) Exec.param_string with
              | Some s -> build ((p, s) :: acc) tl
              | None -> None)
          in
          build [] c_args
        in
        let src_rows = Adm.Relation.rows_arrays src_rel in
        let urls =
          List.filter_map url_of src_rows |> List.sort_uniq String.compare
        in
        let target = pages_relation schema source ~scheme:c_scheme ~alias:c_alias urls in
        let target_attrs = Adm.Relation.attrs target in
        let url_attr = c_alias ^ "." ^ Adm.Page_scheme.url_attr in
        let url_off =
          match Adm.Relation.offset_opt target url_attr with
          | Some i -> i
          | None -> raise (Not_computable "call target lacks URL attribute")
        in
        let by_url = Hashtbl.create 64 in
        List.iter
          (fun trow ->
            match Adm.Value.as_link trow.(url_off) with
            | Some u -> Hashtbl.replace by_url u trow
            | None -> ())
          (Adm.Relation.rows_arrays target);
        let out_rows =
          List.filter_map
            (fun row ->
              match url_of row with
              | None -> None
              | Some url ->
                Option.map (fun trow -> Array.append row trow)
                  (Hashtbl.find_opt by_url url))
            src_rows
        in
        Adm.Relation.of_arrays (src_attrs @ target_attrs) out_rows)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Lower-then-run                                                      *)
(* ------------------------------------------------------------------ *)

let eval ?limit schema source e = Exec.run ?limit schema source (Exec.lower schema source e)

(* Evaluate through the fetch engine and report the merged cost
   ledger: the paper's page accesses and the runtime's fetch work
   (attempts, retries, cache traffic, simulated elapsed time) in one
   record, scoped to this evaluation as a delta. *)
type fetch_report = {
  result : Adm.Relation.t;
  fetch : Websim.Fetcher.report; (* merged cost ledger, as a delta *)
}

let eval_fetched ?limit schema (fetcher : Websim.Fetcher.t) e =
  let before = Websim.Fetcher.report fetcher in
  let result = eval ?limit schema (fetcher_source schema fetcher) e in
  let after = Websim.Fetcher.report fetcher in
  { result; fetch = Websim.Fetcher.report_diff ~before ~after }
