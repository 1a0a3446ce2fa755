(* The live-churn runtime: glue between the mutation generator, the
   maintenance engine, the SLA layer and the concurrent scheduler.

   The store-backed query path is Algorithm 3 with the freshness work
   made budget-aware: an entry within its view's max_age is served
   with no connection at all; an over-age entry gets a light
   connection if the wire budget admits one (GET only on a proven
   change), and is served stale — with the denial recorded — when the
   bucket is dry. The oracle (the live site's Last-Modified) is
   consulted only when a served entry is *recorded*, never to decide
   anything: queries and maintenance see exactly what the wire
   protocol shows them. *)

type policy = Incremental | Full_refresh | No_maintenance

let policy_to_string = function
  | Incremental -> "incremental"
  | Full_refresh -> "full-refresh"
  | No_maintenance -> "none"

let policy_of_string = function
  | "incremental" -> Some Incremental
  | "full-refresh" | "full_refresh" -> Some Full_refresh
  | "none" | "no-maintenance" -> Some No_maintenance
  | _ -> None

type config = {
  profile : Profile.t;
  churn_seed : int;
  sla : Sla.t;
  budget_per_turn : float;
  costs : Budget.costs;
  policy : policy;
  maintain : Maintain.config;
  query_check : bool;
}

let config ?(profile = Profile.low) ?(churn_seed = 42) ?(sla = Sla.create ())
    ?(budget_per_turn = 8.0) ?(costs = Budget.default_costs) ?(policy = Incremental)
    ?(maintain = Maintain.default_config) ?(query_check = true) () =
  { profile; churn_seed; sla; budget_per_turn; costs; policy; maintain; query_check }

type report = {
  sched : Server.Sched.report;
  policy : policy;
  ticks : int;
  mutations : (Traffic.kind * int) list;
  mutations_total : int;
  maintenance : Maintain.counters;
  full_refreshes : int;
  budget_spent : float;
  budget_denied : int;
  verdicts : (string * int) list;
  violations : int;
  mean_staleness : float;
  p95_staleness : float;
  store_pages : int;
  views_chosen : (string * int) list;
      (* registered views the planned workload actually answers from *)
  wire : Websim.Fetcher.report;
}

(* Schemes a plan can touch: its alias environment's schemes. *)
let plan_schemes expr =
  List.sort_uniq String.compare (List.map snd (Webviews.Nalg.alias_env expr))

let run ?(sched = Server.Sched.default_config) ?pool ?bindings (cfg : config)
    (schema : Adm.Schema.t) (stats : Webviews.Stats.t)
    (registry : Webviews.View.registry) (http : Websim.Http.t)
    (workload : Server.Workload.entry list) : report =
  let site = Websim.Http.site http in
  (* One shared fetch engine for everything: cache-less, because the
     materialized store *is* the cache and its HEAD protocol must stay
     the only freshness layer between queries and the wire. *)
  let fetcher =
    Websim.Fetcher.create ~config:(Websim.Fetcher.config ~cache_capacity:0 ()) http
  in
  let cache = Server.Shared_cache.wrap ?pool fetcher in
  let store = Webviews.Matview.materialize ~fetcher schema http in
  let entry_urls =
    List.filter_map Adm.Page_scheme.entry_url (Adm.Schema.entry_points schema)
  in
  let traffic =
    Traffic.create ~seed:cfg.churn_seed ~protect:entry_urls ~profile:cfg.profile site
  in
  let budget = Budget.create ~per_turn:cfg.budget_per_turn () in
  let engine =
    Maintain.create ~config:cfg.maintain ~sla:cfg.sla ~budget ~costs:cfg.costs
      ~shared:cache store
  in
  (* Under the incremental policy the registered views over the same
     store become cost-priced access paths for the workload. A
     [View_scan]'s revalidation pass draws on the same wire budget as
     every other freshness check — a HEAD only when the bucket admits
     one, the GET charged when a change forces it — so view answering
     cannot out-spend the maintenance lane. The baselines keep their
     original shape: full-refresh must let the bucket accrue a whole
     recrawl (view HEADs would drain it), and no-maintenance measures
     raw decay. *)
  let vs = Webviews.Viewstore.create schema registry store in
  if cfg.policy = Incremental then
    Server.Shared_cache.attach_views cache vs
      ~answerer:
        (Webviews.Viewstore.answerer
           ~admit_head:(fun () -> Budget.admit budget cfg.costs.Budget.head)
           ~charge_get:(fun () -> Budget.force budget cfg.costs.Budget.get)
           vs);
  let full_refreshes = ref 0 in
  let now () = Websim.Site.clock site in
  (* oracle truth, report-only: has the live page changed since we
     validated our entry (or vanished entirely)? *)
  let oracle_stale ~url ~access_date =
    match Websim.Site.find site url with
    | None -> true
    | Some p -> p.Websim.Site.last_modified > access_date
  in
  let observations : (int, Sla.obs) Hashtbl.t = Hashtbl.create 64 in
  let obs_for qid =
    match Hashtbl.find_opt observations qid with
    | Some o -> o
    | None ->
      let o = Sla.obs_create () in
      Hashtbl.replace observations qid o;
      o
  in
  (* ---- the store-backed per-query page source ---- *)
  let serve_stored obs ~scheme ~url ~access_date =
    let age = now () - access_date in
    Sla.observe obs ~age
      ~stale:(oracle_stale ~url ~access_date)
      ~within_sla:(age <= Sla.max_age cfg.sla ~scheme);
    Webviews.Matview.stored_tuple store ~scheme ~url
  in
  let churn_fetch obs ~scheme ~url =
    match Webviews.Matview.entry_date store ~scheme ~url with
    | Some access_date -> (
      let age = now () - access_date in
      let max_age = Sla.max_age cfg.sla ~scheme in
      if (not cfg.query_check) || cfg.policy <> Incremental || age <= max_age then
        serve_stored obs ~scheme ~url ~access_date
      else if Budget.admit budget cfg.costs.Budget.head then
        match Webviews.Matview.revalidate store ~scheme ~url with
        | `Current | `Unknown ->
          (* validated just now (or raced away): serve what is stored *)
          (match Webviews.Matview.entry_date store ~scheme ~url with
          | Some d -> serve_stored obs ~scheme ~url ~access_date:d
          | None ->
            Sla.observe_missing obs;
            None)
        | `Refreshed ->
          Budget.force budget cfg.costs.Budget.get;
          Server.Shared_cache.invalidate cache ~scheme ~url;
          serve_stored obs ~scheme ~url ~access_date:(now ())
        | `Gone ->
          Server.Shared_cache.invalidate cache ~scheme ~url;
          Sla.observe_missing obs;
          None
        | `Unreachable -> serve_stored obs ~scheme ~url ~access_date
      else begin
        (* bucket dry: serve stale and record the denial *)
        Sla.observe_denied obs;
        serve_stored obs ~scheme ~url ~access_date
      end)
    | None ->
      (* not stored: a link target that appeared after materialization.
         Discovery is a full download — admitted against the budget
         under the incremental policy, not attempted otherwise (the
         full-refresh baseline picks new pages up at its next pass). *)
      if
        cfg.policy = Incremental && cfg.query_check
        && Budget.admit budget cfg.costs.Budget.get
      then
        match Webviews.Matview.download_entry store ~scheme ~url with
        | Some _ -> serve_stored obs ~scheme ~url ~access_date:(now ())
        | None ->
          Sla.observe_missing obs;
          None
      else begin
        Sla.observe_missing obs;
        None
      end
  in
  let source_for (spec : Server.Sched.spec) =
    let obs = obs_for spec.Server.Sched.qid in
    Some
      {
        Webviews.Eval.fetch = (fun ~scheme ~url -> churn_fetch obs ~scheme ~url);
        prefetch = (fun ~scheme:_ _ -> ()) (* freshness work is per-entry *);
        window = 32;
      }
  in
  (* ---- the churn hook: one turn = one site tick ---- *)
  let relevant_cache : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  let schemes_of (spec : Server.Sched.spec) =
    match Hashtbl.find_opt relevant_cache spec.Server.Sched.qid with
    | Some ss -> ss
    | None ->
      let ss = plan_schemes spec.Server.Sched.expr in
      Hashtbl.replace relevant_cache spec.Server.Sched.qid ss;
      ss
  in
  let on_turn ~turn:_ ~resident =
    ignore (Traffic.tick traffic);
    Budget.refill budget;
    match cfg.policy with
    | No_maintenance -> ()
    | Incremental ->
      (* Relevance = what resident navigation plans touch, plus the
         schemes under every view a chosen plan answers from: a page
         kept fresh there pays off at the next [View_scan], so the
         maintenance lane learns the planner's choices. *)
      let resident_schemes =
        List.sort_uniq String.compare
          (List.concat_map schemes_of resident
          @ Webviews.Viewstore.relevant_schemes vs)
      in
      Maintain.slice engine ~relevant:(fun scheme -> List.mem scheme resident_schemes)
    | Full_refresh ->
      (* the same budget accrues until it covers a whole recrawl, then
         the store is rebuilt in one burst and charged at cost *)
      let pages = max 1 (Webviews.Matview.total_pages store) in
      let estimate = float_of_int pages *. cfg.costs.Budget.get in
      if Budget.balance budget >= estimate then begin
        let before = Websim.Fetcher.report fetcher in
        Webviews.Matview.full_refresh store;
        let d =
          Websim.Fetcher.report_diff ~before ~after:(Websim.Fetcher.report fetcher)
        in
        Budget.force budget
          ((float_of_int d.Websim.Fetcher.gets *. cfg.costs.Budget.get)
          +. (float_of_int d.Websim.Fetcher.heads *. cfg.costs.Budget.head));
        incr full_refreshes
      end
  in
  let probe ~qid = Some (Sla.to_freshness (obs_for qid)) in
  let specs =
    Server.Sched.plan_workload ?pool ?bindings
      ?views:
        (if cfg.policy = Incremental then Some (Webviews.Viewstore.context vs)
         else None)
      schema stats registry workload
  in
  (* Record which views the chosen plans answer from — the signal the
     relevance ordering above consumes. *)
  List.iter
    (fun (s : Server.Sched.spec) ->
      Webviews.Viewstore.note_plan vs s.Server.Sched.expr)
    specs;
  let wire_before = Websim.Fetcher.report fetcher in
  let sched_report =
    Server.Sched.run ~on_turn ~source_for ~probe sched cache schema specs
  in
  let wire =
    Websim.Fetcher.report_diff ~before:wire_before ~after:(Websim.Fetcher.report fetcher)
  in
  let freshnesses =
    List.map (fun (r : Server.Sched.result) -> r.Server.Sched.freshness) sched_report.Server.Sched.results
  in
  let verdicts = Sla.merge_verdicts freshnesses in
  let per_query_index, per_query_max =
    List.fold_left
      (fun (idx, mx) f ->
        match f with
        | None -> (idx, mx)
        | Some (f : Server.Sched.freshness) ->
          let served = f.Server.Sched.pages_served in
          let mass =
            f.Server.Sched.mean_staleness *. float_of_int f.Server.Sched.stale_served
          in
          let i = if served = 0 then 0.0 else mass /. float_of_int served in
          (i :: idx, float_of_int f.Server.Sched.max_staleness :: mx))
      ([], []) freshnesses
  in
  let mean_staleness =
    match per_query_index with
    | [] -> 0.0
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  {
    sched = sched_report;
    policy = cfg.policy;
    ticks = Traffic.ticks traffic;
    mutations = Traffic.applied_by_kind traffic;
    mutations_total = Traffic.applied traffic;
    maintenance = Maintain.counters engine;
    full_refreshes = !full_refreshes;
    budget_spent = Budget.spent budget;
    budget_denied = Budget.denied budget;
    verdicts;
    violations =
      (match List.assoc_opt "violated" verdicts with Some n -> n | None -> 0);
    mean_staleness;
    p95_staleness = Server.Sched.percentile 0.95 per_query_max;
    store_pages = Webviews.Matview.total_pages store;
    views_chosen = Webviews.Viewstore.chosen_views vs;
    wire;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%a@,@,policy: %s  ticks: %d  mutations: %d (%a)@,\
     maintenance: %a  full refreshes: %d@,\
     budget: %.1f units spent, %d denied@,\
     verdicts: %a@,\
     answer staleness: mean %.2f ticks, p95(max) %.1f ticks@,\
     store: %d pages%a@]"
    Server.Sched.pp_report r.sched (policy_to_string r.policy) r.ticks
    r.mutations_total
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, n) ->
         Fmt.pf ppf "%s %d" (Traffic.kind_to_string k) n))
    r.mutations Maintain.pp_counters r.maintenance r.full_refreshes r.budget_spent
    r.budget_denied
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, n) -> Fmt.pf ppf "%s %d" v n))
    r.verdicts r.mean_staleness r.p95_staleness r.store_pages
    (fun ppf -> function
      | [] -> ()
      | vs ->
        Fmt.pf ppf "@,views chosen: %a"
          (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, n) ->
               Fmt.pf ppf "%s x%d" v n))
          vs)
    r.views_chosen
