type config = {
  max_actions_per_slice : int;
  sweep_per_slice : int;
  debt_threshold : float;
}

let config ?(max_actions_per_slice = 4) ?(sweep_per_slice = 2) ?(debt_threshold = 0.5)
    () =
  {
    max_actions_per_slice = max 0 max_actions_per_slice;
    sweep_per_slice = max 0 sweep_per_slice;
    debt_threshold = Float.max 0.0 debt_threshold;
  }

let default_config = config ()

type counters = {
  mutable slices : int;
  mutable heads : int;
  mutable gets_refreshed : int;
  mutable validated : int;
  mutable gone : int;
  mutable purged : int;
  mutable swept : int;
  mutable denied : int;
}

type t = {
  cfg : config;
  sla : Sla.t;
  budget : Budget.t;
  costs : Budget.costs;
  store : Webviews.Matview.t;
  counters : counters;
}

let create ?(config = default_config) ~sla ~budget ~costs store =
  {
    cfg = config;
    sla;
    budget;
    costs;
    store;
    counters =
      {
        slices = 0;
        heads = 0;
        gets_refreshed = 0;
        validated = 0;
        gone = 0;
        purged = 0;
        swept = 0;
        denied = 0;
      };
  }

let counters t = t.counters

(* Drain a bounded, budgeted slice of the CheckMissing backlog. *)
let sweep_slice t =
  let backlog = Webviews.Matview.check_missing_backlog t.store in
  if backlog > 0 && t.cfg.sweep_per_slice > 0 then begin
    let want = min backlog t.cfg.sweep_per_slice in
    (* admit the HEADs one by one so a dry bucket stops the drain *)
    let admitted = ref 0 in
    while !admitted < want && Budget.admit t.budget t.costs.Budget.head do
      incr admitted
    done;
    if !admitted < want then t.counters.denied <- t.counters.denied + 1;
    if !admitted > 0 then begin
      let purged, processed = Webviews.Matview.sweep_limited t.store ~limit:!admitted in
      t.counters.swept <- t.counters.swept + processed;
      t.counters.purged <- t.counters.purged + purged;
      (* the admitted-but-unprocessed remainder (backlog shorter than
         planned) stays spent: the budget models intent, and the gap
         is at most one slice's allowance *)
      ignore processed
    end
  end

(* The most urgent candidates first: relevant before irrelevant, then
   higher staleness debt, then (scheme, url) — a total order, so the
   pick never depends on store iteration order. *)
let more_urgent (r1, d1, s1, u1) (r2, d2, s2, u2) =
  match Bool.compare r2 r1 with
  | 0 -> (
    match Float.compare d2 d1 with
    | 0 -> ( match String.compare s1 s2 with 0 -> String.compare u1 u2 | c -> c)
    | c -> c)
  | c -> c

(* Insert into a list kept least urgent first. *)
let rec insert c = function
  | c' :: rest when more_urgent c c' < 0 -> c' :: insert c rest
  | l -> c :: l

(* The [max_actions_per_slice] most urgent entries over the debt
   threshold, most urgent first, in one pass over the store: relevance
   and the SLA's [max_age] are looked up once per scheme, and an entry
   is kept only while it beats the least urgent one kept so far. *)
let candidates t ~relevant =
  let k = t.cfg.max_actions_per_slice in
  let now = Webviews.Matview.now t.store in
  let kept = ref [] and size = ref 0 in
  let consider c =
    match !kept with
    | worst :: rest when !size >= k ->
      if more_urgent c worst < 0 then kept := insert c rest
    | l ->
      kept := insert c l;
      incr size
  in
  if k > 0 then
    List.iter
      (fun scheme ->
        let r = relevant scheme in
        let max_age = Sla.max_age t.sla ~scheme in
        Webviews.Matview.iter_scheme t.store scheme (fun ~url ~access_date ->
            let age = now - access_date in
            let debt =
              if max_age <= 0 then float_of_int age
              else float_of_int age /. float_of_int max_age
            in
            if debt >= t.cfg.debt_threshold then consider (r, debt, scheme, url)))
      (Webviews.Matview.schemes t.store);
  List.rev_map (fun (_, _, scheme, url) -> (scheme, url)) !kept

let slice t ~relevant =
  t.counters.slices <- t.counters.slices + 1;
  sweep_slice t;
  if t.cfg.max_actions_per_slice > 0 then begin
    let picked = candidates t ~relevant in
    let rec go n = function
      | [] -> ()
      | _ when n >= t.cfg.max_actions_per_slice -> ()
      | (scheme, url) :: rest ->
        if not (Budget.admit t.budget t.costs.Budget.head) then
          t.counters.denied <- t.counters.denied + 1 (* dry: stop the slice *)
        else begin
          t.counters.heads <- t.counters.heads + 1;
          (match Webviews.Matview.revalidate t.store ~scheme ~url with
          | `Current -> t.counters.validated <- t.counters.validated + 1
          | `Refreshed ->
            (* the HEAD proved a change: the GET is committed, even
               into overdraft *)
            Budget.force t.budget t.costs.Budget.get;
            t.counters.gets_refreshed <- t.counters.gets_refreshed + 1
          | `Gone ->
            (* entry dropped and deferred to CheckMissing; the sweep
               confirms and counts the purge *)
            t.counters.gone <- t.counters.gone + 1
          | `Unreachable | `Unknown -> ());
          go (n + 1) rest
        end
    in
    go 0 picked
  end

let pp_counters ppf c =
  Fmt.pf ppf
    "%d slices: %d heads (%d current, %d refreshed, %d gone), %d swept (%d purged), %d denied"
    c.slices c.heads c.validated c.gets_refreshed c.gone c.swept c.purged c.denied
