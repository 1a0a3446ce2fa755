(* Registered views as cost-based access paths, backed by the
   materialized store of Section 8.

   The planner sees the registry through two lenses this module
   assembles: a {!Cost.view_econ} snapshot pricing every view by
   light-connection economics (per stale page one HEAD, plus a GET
   with the observed probability the page actually changed — Function
   2's 1:10 weights), and the {!Viewmatch} filter tree that finds
   which registered views subsume a query occurrence. The executor
   sees it as an {!Exec.views} answerer: a [View_scan] triggers a
   bounded HEAD-revalidation pass over the stalest pages under the
   view (budgeted, so a badly stale view cannot stampede the wire)
   and then answers from the store's tuples alone, reusing the view's
   cached extent while the tuples under it are unchanged.

   Each revalidation outcome feeds a per-scheme change-rate
   observation, so the cost snapshot learns how churny each region of
   the site is: a stale view over a hot scheme prices close to
   navigation (HEAD + likely GET per page) and genuinely loses the
   cost race until maintenance revalidates it. [note_plan] records
   which views chosen plans actually use — the signal the churn
   runtime's relevance ordering consumes. *)

type obs = { mutable checked : int; mutable changed : int }

(* One registered view's scan, compiled on first use, with its extent:
   the rows and stored-page count of the last evaluation, tagged with
   the tuple versions they were computed from. *)
type extent = {
  attrs : string list; (* the view's declared attributes *)
  plan : Nalg.expr; (* its navigation, projected on them *)
  schemes : string list; (* the stored pages a scan revalidates *)
  reads : string list; (* every scheme the navigation reads a page of *)
  mutable tag : int list option; (* versions of [reads] behind [rows] *)
  mutable rows : Adm.Relation.row array;
  mutable pages : int;
}

type t = {
  schema : Adm.Schema.t;
  registry : View.registry;
  store : Matview.t;
  index : Viewmatch.t;
  max_age : int; (* freshness tolerance, simulated clock ticks *)
  head_budget : int; (* default HEAD allowance per view scan *)
  obs : (string, obs) Hashtbl.t; (* scheme -> revalidation outcomes *)
  chosen : (string, int) Hashtbl.t; (* view -> times a best plan used it *)
  extents : extent Adm.String_tbl.t; (* view -> compiled scan and extent *)
}

let create ?(max_age = 0) ?(head_budget = 64) (schema : Adm.Schema.t)
    (registry : View.registry) (store : Matview.t) : t =
  {
    schema;
    registry;
    store;
    index = Viewmatch.make registry;
    max_age;
    head_budget;
    obs = Hashtbl.create 16;
    chosen = Hashtbl.create 16;
    extents = Adm.String_tbl.create 16;
  }

let store t = t.store
let index t = t.index
let registry t = t.registry
let max_age t = t.max_age

(* ------------------------------------------------------------------ *)
(* Navigation structure of a view                                      *)
(* ------------------------------------------------------------------ *)

let first_nav (rel : View.relation) =
  match rel.View.navigations with [] -> None | nav :: _ -> Some nav

let nav_schemes (nav : View.navigation) =
  Nalg.fold
    (fun acc e ->
      match e with
      | Nalg.Entry { scheme; _ } | Nalg.Follow { scheme; _ } -> scheme :: acc
      | _ -> acc)
    [] nav.View.nav_expr
  |> List.sort_uniq String.compare

(* The scheme whose pages become the view's rows: the outermost page
   occurrence of the defining navigation. *)
let rec out_scheme (e : Nalg.expr) =
  match e with
  | Nalg.Entry { scheme; _ } | Nalg.Follow { scheme; _ } -> Some scheme
  | Nalg.Call { c_scheme; _ } -> Some c_scheme
  | Nalg.Select (_, e1) | Nalg.Project (_, e1) | Nalg.Unnest (e1, _) ->
    out_scheme e1
  | Nalg.Join (_, _, e2) -> out_scheme e2
  | Nalg.External _ -> None

(* The navigation's plan attributes for the declared external
   attributes, in declaration order; None when a binding is missing. *)
let plan_attrs (rel : View.relation) (nav : View.navigation) =
  List.fold_left
    (fun acc a ->
      match acc with
      | None -> None
      | Some acc -> (
        match List.assoc_opt a nav.View.bindings with
        | Some p -> Some (p :: acc)
        | None -> None))
    (Some []) rel.View.rel_attrs
  |> Option.map List.rev

let find_view t name = View.find t.registry name

(* ------------------------------------------------------------------ *)
(* Change-rate observations                                            *)
(* ------------------------------------------------------------------ *)

let observe t scheme ~changed =
  let o =
    match Hashtbl.find_opt t.obs scheme with
    | Some o -> o
    | None ->
      let o = { checked = 0; changed = 0 } in
      Hashtbl.add t.obs scheme o;
      o
  in
  o.checked <- o.checked + 1;
  if changed then o.changed <- o.changed + 1

(* Laplace-smoothed change probability: an unobserved scheme prices at
   0.5 — agnostic, so freshness (not optimism) decides the race. *)
let change_rate t schemes =
  let checked, changed =
    List.fold_left
      (fun (k, c) scheme ->
        match Hashtbl.find_opt t.obs scheme with
        | Some o -> (k + o.checked, c + o.changed)
        | None -> (k, c))
      (0, 0) schemes
  in
  (float_of_int changed +. 0.5) /. (float_of_int checked +. 1.0)

(* ------------------------------------------------------------------ *)
(* The planner's economics snapshot                                    *)
(* ------------------------------------------------------------------ *)

(* One pass over the store per snapshot, shared by every view priced
   from it — planning cost stays flat in registry size (the filter
   tree bounds the matching work, this bounds the pricing work). *)
let econ t : Cost.view_econ =
  let now = Matview.now t.store in
  let per_scheme : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  Matview.iter_entries t.store (fun ~scheme ~url:_ ~access_date ->
      let total, stale =
        Option.value (Hashtbl.find_opt per_scheme scheme) ~default:(0, 0)
      in
      let stale = if now - access_date > t.max_age then stale + 1 else stale in
      Hashtbl.replace per_scheme scheme (total + 1, stale));
  let view name =
    match find_view t name with
    | None -> None
    | Some rel -> (
      match first_nav rel with
      | None -> None
      | Some nav ->
        let schemes = nav_schemes nav in
        let pages, stale =
          List.fold_left
            (fun (p, s) scheme ->
              let total, st =
                Option.value (Hashtbl.find_opt per_scheme scheme) ~default:(0, 0)
              in
              (p + total, s + st))
            (0, 0) schemes
        in
        if pages = 0 then None (* nothing materialized under this view *)
        else
          let rows =
            match out_scheme nav.View.nav_expr with
            | Some scheme ->
              float_of_int
                (fst
                   (Option.value
                      (Hashtbl.find_opt per_scheme scheme)
                      ~default:(0, 0)))
            | None -> 0.0
          in
          Some
            {
              Cost.view_rows = Float.max 1.0 rows;
              view_pages = float_of_int pages;
              view_stale = float_of_int stale /. float_of_int pages;
              view_change = change_rate t schemes;
              view_attrs = rel.View.rel_attrs;
            })
  in
  { Cost.head_unit = 0.1; view }

(* ------------------------------------------------------------------ *)
(* The executor's answerer                                             *)
(* ------------------------------------------------------------------ *)

(* Revalidate the stalest pages under the view, oldest first, within
   the HEAD budget; every outcome feeds the change-rate observations.
   Returns (heads issued, gets forced). *)
let revalidate_stale ?(head_budget = max_int) ?(admit_head = fun () -> true)
    ?(charge_get = fun () -> ()) t (schemes : string list) =
  let now = Matview.now t.store in
  let stale = ref [] in
  List.iter
    (fun scheme ->
      Matview.iter_scheme t.store scheme (fun ~url ~access_date ->
          if now - access_date > t.max_age then
            stale := (access_date, scheme, url) :: !stale))
    schemes;
  let ordered =
    List.sort
      (fun (d1, s1, u1) (d2, s2, u2) ->
        match Int.compare d1 d2 with
        | 0 -> (
          match String.compare s1 s2 with
          | 0 -> String.compare u1 u2
          | c -> c)
        | c -> c)
      !stale
  in
  (* Compose the admitted batch up front — the budget and the caller's
     wire gate bound the HEADs — then revalidate it as one windowed
     batch so the light-connection latencies overlap. *)
  let admitted = ref [] in
  (try
     List.iter
       (fun (_, scheme, url) ->
         if List.length !admitted >= head_budget || not (admit_head ()) then
           raise Exit;
         admitted := (scheme, url) :: !admitted)
       ordered
   with Exit -> ());
  let heads = List.length !admitted in
  let gets = ref 0 in
  List.iter
    (fun (scheme, _url, outcome) ->
      match outcome with
      | `Refreshed ->
        charge_get ();
        incr gets;
        observe t scheme ~changed:true
      | `Gone ->
        (* the page vanished: a change, and the GET never happened *)
        observe t scheme ~changed:true
      | `Current -> observe t scheme ~changed:false
      | `Unreachable | `Unknown -> ())
    (Matview.revalidate_batch t.store (List.rev !admitted));
  (heads, !gets)

(* Every scheme whose pages the navigation reads — calls included —
   so the extent's tag covers every tuple its evaluation can touch. *)
let read_schemes (e : Nalg.expr) =
  Nalg.fold
    (fun acc e ->
      match e with
      | Nalg.Entry { scheme; _ } | Nalg.Follow { scheme; _ } -> scheme :: acc
      | Nalg.Call { c_scheme; _ } -> c_scheme :: acc
      | _ -> acc)
    [] e
  |> List.sort_uniq String.compare

let extent_of t view =
  match Adm.String_tbl.find_opt t.extents view with
  | Some x -> Some x
  | None ->
    let compiled =
      Option.bind (find_view t view) (fun rel ->
          Option.bind (first_nav rel) (fun nav ->
              Option.map
                (fun projected ->
                  {
                    attrs = rel.View.rel_attrs;
                    plan = Nalg.project projected nav.View.nav_expr;
                    schemes = nav_schemes nav;
                    reads = read_schemes nav.View.nav_expr;
                    tag = None;
                    rows = [||];
                    pages = 0;
                  })
                (plan_attrs rel nav)))
    in
    Option.iter (Adm.String_tbl.replace t.extents view) compiled;
    compiled

let scan ?head_budget ?admit_head ?charge_get t ~view :
    Exec.view_answer option =
  match extent_of t view with
  | None -> None
  | Some x ->
    let head_budget =
      match head_budget with Some b -> b | None -> t.head_budget
    in
    let heads, gets =
      revalidate_stale ~head_budget ?admit_head ?charge_get t x.schemes
    in
    (* Serve from the stored tuples without further connections: the
       budgeted pass above is this scan's whole wire work, and what it
       could not afford is accepted obsolescence (the cost model
       already priced that staleness in). While no tuple under the
       view was added, replaced or removed since the extent was
       evaluated, it is the evaluation's answer: reuse it, counting
       its pages as local hits as a re-evaluation would. *)
    let tag = List.map (Matview.tuple_version t.store) x.reads in
    if x.tag = Some tag then begin
      let c = Matview.counters t.store in
      c.Matview.local_hits <- c.Matview.local_hits + x.pages
    end
    else begin
      let result, pages = Matview.eval_stored t.store x.plan in
      x.rows <- Array.of_list (Adm.Relation.rows_arrays result);
      x.pages <- pages;
      x.tag <- Some tag
    end;
    Some
      {
        Exec.va_attrs = x.attrs;
        va_rows = x.rows;
        va_heads = heads;
        va_gets = gets;
        va_pages = x.pages;
      }

let answerer ?head_budget ?admit_head ?charge_get t : Exec.views =
  {
    Exec.view_attrs =
      (fun name ->
        Option.map (fun (r : View.relation) -> r.View.rel_attrs)
          (find_view t name));
    answer = (fun ~view -> scan ?head_budget ?admit_head ?charge_get t ~view);
  }

(* ------------------------------------------------------------------ *)
(* Feedback: which views chosen plans actually use                     *)
(* ------------------------------------------------------------------ *)

let note_plan t (e : Nalg.expr) =
  List.iter
    (fun (name, _alias) ->
      let n = Option.value (Hashtbl.find_opt t.chosen name) ~default:0 in
      Hashtbl.replace t.chosen name (n + 1))
    (Nalg.externals e)

let chosen_views t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.chosen []
  |> List.sort (fun (n1, _) (n2, _) -> String.compare n1 n2)

let view_schemes t name =
  match Option.bind (find_view t name) first_nav with
  | None -> []
  | Some nav -> nav_schemes nav

(* Schemes the maintenance lane should keep fresh because a resident
   plan answers from a view over them. *)
let relevant_schemes t =
  Hashtbl.fold
    (fun name n acc -> if n <= 0 then acc else view_schemes t name @ acc)
    t.chosen []
  |> List.sort_uniq String.compare

(* The typed environment the planner's soundness gate uses for a view
   occurrence: each declared attribute with its navigation's type. *)
let type_env t name =
  Option.map (Typecheck.relation_env t.schema) (find_view t name)

(* Everything the planner needs to treat this store's views as access
   paths, priced as of now. *)
let context t : Planner.view_context =
  { Planner.vc_index = t.index; vc_econ = econ t; vc_env = type_env t }
