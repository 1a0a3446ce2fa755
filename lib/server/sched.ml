(* The cooperative multi-query scheduler.

   N admitted queries interleave as steps over the pull-based cursors
   of {!Webviews.Exec}: one scheduler turn gives one query a quantum
   of [Exec.step] calls, each pulling one batch from its root cursor
   (and fetching whatever pages that batch needs, through the shared
   cache). There is no preemption inside a step — a cursor between two
   steps holds no control state — so the whole interleaving is a
   deterministic function of the workload, the config and the
   netmodel seed: no wall-clock reads, no OS threads, no races.

   Time is the simulated clock of the shared fetch engine, which only
   advances when someone touches the network. Deadlines are checked
   against it before every step; a query past its deadline is
   finalized with whatever rows it has pulled (graceful degradation,
   not an error). The same degradation path serves circuit-open
   periods: when the shared engine's breaker fast-fails a page and the
   query's page source (given through [source_for]) keeps a stale
   store, it serves the stored tuple, and the cache's count of it
   lands in the query's completeness report.

   Domains and lanes. With [config.domains = D] the scheduler models a
   D-domain server by greedy list scheduling at quantum granularity:
   each quantum whose fetching advanced the simulated clock is charged
   to the lane with the earliest frontier (deterministic tie-break by
   index), starting no earlier than the end of the same query's
   previous quantum — a query's own chain stays sequential, but any
   free domain picks up the next runnable quantum, which is exactly
   how {!Pool} distributes work. Per-query pinning was rejected: the
   lane is chosen at admission, before anyone knows which queries are
   cold and expensive, so two first-of-template giants can stack on
   one lane and cap the speedup no matter the tie-break. The
   *decisions* (admission, pick order, fetch order, netmodel draws,
   deadline cuts — checked against the domain-independent global fetch
   clock) are exactly those of the sequential run at every D, so
   results, distinct-GET sets and the sharing ledger are
   byte-identical across domain counts; only the time accounting fans
   out. Makespan is the largest lane frontier, and D = 1 degenerates
   to the old single-clock numbers exactly. Real domains still run the
   pure stages (wrapper extraction of prefetched windows, workload
   planning) through {!Pool}. *)

type policy = Round_robin | Priority

type config = {
  concurrency : int; (* resident-query cap *)
  quantum : int; (* Exec.step calls per scheduler turn *)
  policy : policy;
  max_resident_rows : int; (* admission-control row budget *)
  domains : int; (* simulated execution lanes; 1 = sequential *)
}

let config ?(concurrency = 8) ?(quantum = 4) ?(policy = Round_robin)
    ?(max_resident_rows = 100_000) ?(domains = 1) () =
  if concurrency < 1 then invalid_arg "Sched.config: concurrency < 1";
  if quantum < 1 then invalid_arg "Sched.config: quantum < 1";
  if domains < 1 then invalid_arg "Sched.config: domains < 1";
  { concurrency; quantum; policy; max_resident_rows; domains }

let default_config = config ()

type spec = {
  qid : int;
  label : string;
  expr : Webviews.Nalg.expr;
  priority : int;
  deadline_ms : float option;
}

(* ------------------------------------------------------------------ *)
(* Planning a workload into specs                                      *)
(* ------------------------------------------------------------------ *)

(* Workloads draw from small template pools, so plan each distinct SQL
   text once; the distinct texts plan in parallel on the pool when one
   is given (planning is pure — costs, rewrites, no network; a view
   context is a read-only snapshot, so it fans out too). *)
let plan_workload ?pool ?views ?bindings (schema : Adm.Schema.t)
    (stats : Webviews.Stats.t) (registry : Webviews.View.registry)
    (entries : Workload.entry list) : spec list =
  let texts =
    List.sort_uniq String.compare
      (List.map (fun (e : Workload.entry) -> e.Workload.sql) entries)
  in
  let plan sql =
    ( sql,
      (Webviews.Planner.plan_sql ?views ?bindings schema stats registry sql)
        .Webviews.Planner.best )
  in
  let planned =
    match pool with
    | Some p when List.length texts > 1 -> Pool.map p plan texts
    | _ -> List.map plan texts
  in
  let by_sql = Hashtbl.create 16 in
  List.iter (fun (sql, best) -> Hashtbl.replace by_sql sql best) planned;
  List.mapi
    (fun i (e : Workload.entry) ->
      let best = Hashtbl.find by_sql e.Workload.sql in
      {
        qid = i;
        label = e.Workload.sql;
        expr = best.Webviews.Planner.expr;
        priority = e.Workload.priority;
        deadline_ms = e.Workload.deadline_ms;
      })
    entries

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type completeness = {
  complete : bool;
      (** exhausted its cursor with no deadline cut, no stale serves
          and no pages lost — the result is the full fresh answer *)
  deadline_hit : bool;
  stale_pages : int; (* pages served from the materialized store *)
  missing_pages : int; (* pages neither fetchable nor stored *)
}

(* Per-query freshness SLA verdicts (the churn runtime fills these in
   through [?probe]; the scheduler itself only carries them). *)
type freshness_verdict = Fresh | Stale_within_sla | Violated

type freshness = {
  verdict : freshness_verdict;
  pages_served : int; (* store entries this answer used *)
  stale_served : int; (* entries whose live page had already changed *)
  mean_staleness : float; (* mean age of the stale entries, site ticks *)
  max_staleness : int; (* oldest stale entry served, site ticks *)
  checks_denied : int; (* freshness checks skipped: wire budget gone *)
  pages_missing : int; (* entries gone from both the site and the store *)
}

type result = {
  qid : int;
  label : string;
  rows : Adm.Relation.t;
  completeness : completeness;
  freshness : freshness option; (* present only under a churn runtime *)
  elapsed_ms : float; (* simulated lane-model time: admit → final *)
  service_ms : float; (* lane time this query's own fetching consumed *)
  wait_ms : float; (* elapsed - service: queueing behind other quanta *)
  lane : int; (* lane of the query's latest charged quantum *)
  steps : int;
}

(* Every plan runs on the resumable cursor API: lowering is total on
   well-typed expressions, so each job holds its executor run and can
   yield, or be cut at its deadline, between any two steps. *)
type job = {
  spec : spec;
  run : Webviews.Exec.run;
  mutable last_turn : int; (* scheduler turn this job last ran in *)
  mutable steps : int;
  degraded_before : int * int;
      (* the cache's (stale, missing) counts for this qid at admission:
         a reused cache still holds an earlier run's counts *)
  mutable lane : int; (* lane of the latest charged quantum *)
  admitted_ms : float; (* lane-model (virtual) time at admission *)
  clock_admitted : float; (* global fetch clock at admission: deadlines *)
  mutable chain_end : float; (* virtual end of the latest charged quantum *)
  mutable service_ms : float; (* lane time charged to this query *)
}

let job_finished j = Webviews.Exec.finished j.run
let job_buffered j = Webviews.Exec.buffered_rows j.run

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

type report = {
  results : result list; (* in qid order *)
  ledger : Shared_cache.ledger;
  fetch : Websim.Fetcher.report; (* shared-engine work, as a delta *)
  makespan_ms : float; (* largest lane frontier *)
  p50_ms : float; (* per-query elapsed percentiles *)
  p95_ms : float;
  p50_service_ms : float; (* own fetch work: the latency floor *)
  p95_service_ms : float;
  p50_wait_ms : float; (* queueing behind other quanta *)
  p95_wait_ms : float;
  domains : int;
  lane_busy_ms : float list; (* per-lane accumulated busy time *)
  peak_resident_queries : int;
  peak_resident_rows : int;
  turns : int;
}

(* Nearest-rank percentile over a non-empty sample. *)
let percentile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let rank = q *. float_of_int n in
    if Float.is_nan rank then arr.(0)
    else
      let rank = int_of_float (ceil rank) in
      arr.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                  *)
(* ------------------------------------------------------------------ *)

let run ?on_result ?(keep_rows = true) ?on_turn ?source_for ?probe
    (cfg : config) (cache : Shared_cache.t) (schema : Adm.Schema.t)
    (specs : spec list) : report =
  let fetcher = Shared_cache.fetcher cache in
  let now () = Websim.Fetcher.now_ms fetcher in
  let fetch_before = Shared_cache.report cache in
  (* Lane frontiers start at 0; the global fetch clock keeps running
     wherever the netmodel left it. [lane_clock] is each lane's
     frontier including dependency stalls (a quantum may have to wait
     for its query's previous quantum on another lane); [lane_busy] is
     charged work only, so the busy times sum to the total service. *)
  let lane_clock = Array.make cfg.domains 0.0 in
  let lane_busy = Array.make cfg.domains 0.0 in
  let least_loaded () =
    let best = ref 0 in
    for i = 1 to cfg.domains - 1 do
      if lane_clock.(i) < lane_clock.(!best) then best := i
    done;
    !best
  in
  let pending = Queue.create () in
  List.iter (fun s -> Queue.add s pending) specs;
  let resident : job list ref = ref [] in
  let finished : result list ref = ref [] in
  let turn = ref 0 in
  let peak_queries = ref 0 in
  let peak_rows = ref 0 in
  let finalize j ~deadline_hit =
    let stale_pages, missing_pages =
      let stale, missing = Shared_cache.degraded cache ~query:j.spec.qid in
      let stale0, missing0 = j.degraded_before in
      (stale - stale0, missing - missing0)
    in
    let rows = Webviews.Exec.snapshot j.run in
    let exhausted =
      Webviews.Exec.finished j.run
      && (Webviews.Exec.metrics_of j.run).Webviews.Exec.exhausted
    in
    let completeness =
      {
        complete = exhausted && (not deadline_hit) && stale_pages = 0 && missing_pages = 0;
        deadline_hit;
        stale_pages;
        missing_pages;
      }
    in
    (* Normal completion: the chain's end is the finish time. A
       deadline cut is clamped up to the deadline itself — the query
       was held until its budget ran out before being finalized. *)
    let elapsed =
      let e = j.chain_end -. j.admitted_ms in
      match (deadline_hit, j.spec.deadline_ms) with
      | true, Some d -> Float.max e d
      | _ -> e
    in
    let result =
      {
        qid = j.spec.qid;
        label = j.spec.label;
        rows;
        completeness;
        freshness = (match probe with Some f -> f ~qid:j.spec.qid | None -> None);
        elapsed_ms = elapsed;
        service_ms = j.service_ms;
        wait_ms = Float.max 0.0 (elapsed -. j.service_ms);
        lane = j.lane;
        steps = j.steps;
      }
    in
    (match on_result with Some f -> f result | None -> ());
    let stored =
      if keep_rows then result
      else { result with rows = Adm.Relation.empty (Adm.Relation.attrs rows) }
    in
    finished := stored :: !finished
  in
  (* Deadlines are checked against the global fetch clock, which is
     the same at every domain count — so the set of cut queries (and
     with it every result) is domain-independent by construction. At
     D = 1 this is exactly the old lane-clock check. *)
  let deadline_passed j =
    match j.spec.deadline_ms with
    | None -> false
    | Some d -> now () -. j.clock_admitted >= d
  in
  let pick () =
    (* One comparator serves both policies: priority is flattened to a
       constant under round-robin, and the (last_turn, qid) tail gives
       the rotation and the deterministic tie-break. *)
    let weight j = match cfg.policy with Round_robin -> 0 | Priority -> j.spec.priority in
    match !resident with
    | [] -> None
    | jobs ->
      Some
        (List.fold_left
           (fun bj cj ->
             let cmp =
               match Int.compare (weight bj) (weight cj) with
               | 0 -> (
                 match Int.compare cj.last_turn bj.last_turn with
                 | 0 -> Int.compare cj.spec.qid bj.spec.qid
                 | c -> c)
               | c -> c
             in
             if cmp > 0 then bj else cj)
           (List.hd jobs) (List.tl jobs))
  in
  let remove j = resident := List.filter (fun j' -> j' != j) !resident in
  let admit () =
    while
      (not (Queue.is_empty pending))
      && List.length !resident < cfg.concurrency
      && (!resident = []
         || List.fold_left (fun acc j -> acc + job_buffered j) 0 !resident
            <= cfg.max_resident_rows)
    do
      let spec = Queue.pop pending in
      (* [source_for] is the one way to give a query another source: a
         stale-serving server passes the cache's source over a stale
         store, a churn runtime its own store-backed source (whose
         stale story goes into the [freshness] record instead). *)
      let source =
        match Option.bind source_for (fun f -> f spec) with
        | Some s -> s
        | None -> Shared_cache.source cache ~query:spec.qid schema
      in
      (* A plan that answers an occurrence from a registered view
         carries an [External] leaf; lowering resolves it to a
         [View_scan] against the source's view answerer, which only a
         [source_for] supplies — plan_workload emits such a plan only
         when given a view context over that store. *)
      let run =
        Webviews.Exec.start schema source (Webviews.Exec.lower schema source spec.expr)
      in
      (* The admission stamp is the earliest lane frontier: the first
         moment any domain could have picked the query up. *)
      let lane = least_loaded () in
      let admitted_ms = lane_clock.(lane) in
      let job =
        {
          spec;
          run;
          last_turn = -1;
          steps = 0;
          degraded_before = Shared_cache.degraded cache ~query:spec.qid;
          lane;
          admitted_ms;
          clock_admitted = now ();
          chain_end = admitted_ms;
          service_ms = 0.0;
        }
      in
      resident := !resident @ [ job ]
    done
  in
  (* Leadership rotation. In a fixed round-robin cycle the same
     member of a group of same-plan queries always reaches the
     uncached pages first, so one query absorbs the group's entire
     cold fetch chain — and that chain bounds the makespan at every
     domain count. Real concurrent same-plan queries leapfrog: while
     one blocks on a window (single-flight), the other issues the
     next, splitting the chain. Model that by sending the cycle's
     front to the back without running it once every [cfg.quantum]
     turns, which shifts the cycle start by one and rotates who
     fetches next (a measured optimum: slower rotation lets one
     leader re-absorb the chain, faster rotation thrashes the
     cycle). The tick is a pure function of the turn counter, so the
     interleaving — and with it every result — stays identical at
     every domain count. Strict [Priority] ordering is untouched. *)
  let rotate () =
    if cfg.policy = Round_robin && !turn mod cfg.quantum = 0 then
      match pick () with
      | Some j when List.length !resident > 1 ->
        incr turn;
        j.last_turn <- !turn
      | _ -> ()
  in
  let rec loop () =
    admit ();
    peak_queries := max !peak_queries (List.length !resident);
    (* The churn hook: mutation traffic and the maintenance lane run
       here, between quanta, keyed by the turn counter alone — the
       turn sequence is the same at every domain count, so everything
       the hook does is domain-count-invariant by construction. *)
    (match on_turn with
    | Some f -> f ~turn:!turn ~resident:(List.map (fun j -> j.spec) !resident)
    | None -> ());
    rotate ();
    match pick () with
    | None -> ()
    | Some j ->
      incr turn;
      j.last_turn <- !turn;
      if deadline_passed j then begin
        finalize j ~deadline_hit:true;
        remove j
      end
      else begin
        let k = ref cfg.quantum in
        let before = now () in
        while !k > 0 && (not (job_finished j)) && not (deadline_passed j) do
          j.steps <- j.steps + 1;
          ignore (Webviews.Exec.step j.run);
          decr k
        done;
        (* Greedy list scheduling: charge the quantum's simulated
           fetch time to the earliest-frontier lane, no earlier than
           the end of this query's previous quantum; exec work itself
           is free on the simulated clock. *)
        let dt = now () -. before in
        if dt > 0.0 then begin
          let lane = least_loaded () in
          let start = Float.max lane_clock.(lane) j.chain_end in
          lane_clock.(lane) <- start +. dt;
          lane_busy.(lane) <- lane_busy.(lane) +. dt;
          j.chain_end <- start +. dt;
          j.lane <- lane;
          j.service_ms <- j.service_ms +. dt
        end
        else
          (* An instant quantum (every page already cached) takes no
             lane time but still runs no earlier than the earliest
             lane frontier — a query that sat behind someone else's
             fetching reports that wait. At D = 1 this is exactly the
             old clock-at-finalize semantics. *)
          j.chain_end <-
            Float.max j.chain_end lane_clock.(least_loaded ());
        peak_rows :=
          max !peak_rows
            (List.fold_left (fun acc j' -> acc + job_buffered j') 0 !resident);
        if job_finished j then begin
          finalize j ~deadline_hit:false;
          remove j
        end
        else if deadline_passed j then begin
          finalize j ~deadline_hit:true;
          remove j
        end
      end;
      loop ()
  in
  loop ();
  let results =
    List.sort (fun a b -> Int.compare a.qid b.qid) !finished
  in
  let elapsed = List.map (fun (r : result) -> r.elapsed_ms) results in
  let service = List.map (fun (r : result) -> r.service_ms) results in
  let wait = List.map (fun (r : result) -> r.wait_ms) results in
  {
    results;
    ledger = Shared_cache.ledger cache;
    fetch =
      Websim.Fetcher.report_diff ~before:fetch_before
        ~after:(Shared_cache.report cache);
    makespan_ms = Array.fold_left Float.max 0.0 lane_clock;
    p50_ms = percentile 0.50 elapsed;
    p95_ms = percentile 0.95 elapsed;
    p50_service_ms = percentile 0.50 service;
    p95_service_ms = percentile 0.95 service;
    p50_wait_ms = percentile 0.50 wait;
    p95_wait_ms = percentile 0.95 wait;
    domains = cfg.domains;
    lane_busy_ms = Array.to_list lane_busy;
    peak_resident_queries = !peak_queries;
    peak_resident_rows = !peak_rows;
    turns = !turn;
  }

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)
(* ------------------------------------------------------------------ *)

let pp_completeness ppf c =
  if c.complete then Fmt.string ppf "complete"
  else
    Fmt.pf ppf "partial (%s%d stale, %d missing)"
      (if c.deadline_hit then "deadline, " else "")
      c.stale_pages c.missing_pages

let verdict_to_string = function
  | Fresh -> "fresh"
  | Stale_within_sla -> "stale-within-sla"
  | Violated -> "violated"

let pp_freshness ppf f =
  Fmt.pf ppf "%s (%d pages, %d stale" (verdict_to_string f.verdict) f.pages_served
    f.stale_served;
  if f.stale_served > 0 then
    Fmt.pf ppf ", age mean %.1f max %d" f.mean_staleness f.max_staleness;
  if f.checks_denied > 0 then Fmt.pf ppf ", %d denied" f.checks_denied;
  if f.pages_missing > 0 then Fmt.pf ppf ", %d missing" f.pages_missing;
  Fmt.string ppf ")"

let pp_result ppf r =
  Fmt.pf ppf "q%-3d %4d rows  %8.1f ms (%0.1f svc + %0.1f wait, lane %d)  %2d steps  %a  %a%s"
    r.qid
    (Adm.Relation.cardinality r.rows)
    r.elapsed_ms r.service_ms r.wait_ms r.lane r.steps pp_completeness r.completeness
    (Fmt.option (fun ppf f -> Fmt.pf ppf "%a  " pp_freshness f))
    r.freshness
    (if String.length r.label > 56 then String.sub r.label 0 53 ^ "..."
     else r.label)

let pp_report ppf rep =
  Fmt.pf ppf
    "@[<v>%a@,@,%a@,@,domains: %d  makespan: %.1f ms@,\
     per-query p50/p95: elapsed %.1f/%.1f ms  service %.1f/%.1f ms  wait %.1f/%.1f ms@,\
     peak resident: %d queries, %d rows  (%d scheduler turns)@,@,%a@]"
    (Fmt.list ~sep:Fmt.cut pp_result)
    rep.results Shared_cache.pp_ledger rep.ledger rep.domains rep.makespan_ms
    rep.p50_ms rep.p95_ms rep.p50_service_ms rep.p95_service_ms rep.p50_wait_ms
    rep.p95_wait_ms rep.peak_resident_queries rep.peak_resident_rows rep.turns
    Websim.Fetcher.pp_report rep.fetch
